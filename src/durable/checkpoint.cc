#include "durable/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "durable/journal.h"  // crc32
#include "obs/obs.h"

namespace csq::durable {

namespace {

constexpr char kMagic[8] = {'C', 'S', 'Q', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kVersion = 1;
// u8 done + 7 doubles + 3 status bytes per point.
constexpr std::size_t kPointBytes = 1 + 7 * 8 + 3;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));  // bit-exact: NaN patterns survive
  put_u64(out, bits);
}

[[nodiscard]] std::uint32_t get_u32(const std::string& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]);
  return v;
}

[[nodiscard]] std::uint64_t get_u64(const std::string& in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(in[at + static_cast<std::size_t>(i)]);
  return v;
}

[[nodiscard]] double get_double(const std::string& in, std::size_t at) {
  const std::uint64_t bits = get_u64(in, at);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Exact textual identity of a double: hex bit pattern, so 0.1 vs the nearest
// representable neighbour never alias in a checkpoint meta string.
[[nodiscard]] std::string double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

[[nodiscard]] std::string sweep_meta(const char* axis, double fixed, double mean_short,
                                     double mean_long, double long_scv,
                                     const std::vector<double>& grid) {
  std::string raw;
  raw.reserve(grid.size() * 8);
  for (const double x : grid) put_double(raw, x);
  std::ostringstream os;
  os << "axis=" << axis << ";fixed=" << double_bits(fixed)
     << ";mean_s=" << double_bits(mean_short) << ";mean_l=" << double_bits(mean_long)
     << ";scv_l=" << double_bits(long_scv) << ";n=" << grid.size() << ";grid_crc=";
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32(raw.data(), raw.size()));
  os << crc_hex;
  return os.str();
}

// A row is final only when no policy column is a budget artifact.
[[nodiscard]] bool row_done(const SweepRow& row) {
  return row.dedicated_status != PointStatus::kTimedOut &&
         row.csid_status != PointStatus::kTimedOut &&
         row.cscq_status != PointStatus::kTimedOut;
}

// Tracks progress during one checkpointed sweep and drives the periodic
// atomic saves. on_row arrives from pool workers; everything is serialized
// on an internal mutex (saves are rare and the sweep point dominates).
class Checkpointer {
 public:
  Checkpointer(std::string path, SweepCheckpoint state, int every)
      : path_(std::move(path)), state_(std::move(state)), every_(every) {}

  void note_row(std::size_t i, const SweepRow& row) {
    const std::lock_guard<std::mutex> lock(mu_);
    state_.rows[i] = row;
    state_.done[i] = row_done(row) ? 1 : 0;
    if (++fresh_since_save_ >= every_) {
      save_sweep_checkpoint(path_, state_);
      fresh_since_save_ = 0;
    }
  }

  // Final snapshot covering the full grid (rows merged by run_sweep).
  void finalize(const std::vector<SweepRow>& rows) {
    const std::lock_guard<std::mutex> lock(mu_);
    state_.rows = rows;
    for (std::size_t i = 0; i < rows.size(); ++i) state_.done[i] = row_done(rows[i]) ? 1 : 0;
    save_sweep_checkpoint(path_, state_);
  }

 private:
  std::mutex mu_;
  std::string path_;
  SweepCheckpoint state_;
  int every_;
  int fresh_since_save_ = 0;
};

using SweepFn = std::vector<SweepRow> (*)(double, double, double, double,
                                          const std::vector<double>&, const SweepOptions&);

CheckpointedSweepResult run_checkpointed(const std::string& path, const char* axis,
                                         double fixed, double mean_short, double mean_long,
                                         double long_scv, const std::vector<double>& grid,
                                         const CheckpointedSweepOptions& opts,
                                         SweepFn sweep_fn) {
  if (path.empty())
    throw InvalidInputError("checkpointed sweep: checkpoint path must not be empty");
  if (opts.every < 1)
    throw InvalidInputError("checkpointed sweep: every must be >= 1");
  const std::string meta =
      sweep_meta(axis, fixed, mean_short, mean_long, long_scv, grid);

  SweepCheckpoint state;
  state.meta = meta;
  state.rows.resize(grid.size());
  state.done.assign(grid.size(), 0);
  std::string reason;
  if (std::optional<SweepCheckpoint> loaded = load_sweep_checkpoint(path, &reason);
      loaded.has_value()) {
    if (loaded->meta != meta)
      throw InvalidInputError(
          "checkpoint '" + path + "' belongs to a different sweep (" + loaded->meta +
          " vs " + meta + ") — refusing to graft rows across sweeps");
    if (loaded->rows.size() == grid.size()) state = std::move(*loaded);
  }

  CheckpointedSweepResult result;
  for (const std::uint8_t d : state.done) result.resumed += d != 0 ? 1 : 0;
  result.evaluated = grid.size() - result.resumed;
  CSQ_OBS_COUNT_N(kDurableCheckpointResumed, static_cast<long>(result.resumed));

  Checkpointer ckpt(path, state, opts.every);
  SweepOptions sopts = opts.sweep;
  // The checkpoint's done rows short-circuit; fresh rows stream into the
  // checkpointer, which snapshots every `every` of them.
  sopts.resume_rows = &state.rows;
  sopts.resume_done = &state.done;
  sopts.on_row = [&ckpt](std::size_t i, const SweepRow& row) { ckpt.note_row(i, row); };
  result.rows = sweep_fn(fixed, mean_short, mean_long, long_scv, grid, sopts);
  ckpt.finalize(result.rows);
  for (const SweepRow& row : result.rows) result.incomplete += row_done(row) ? 0 : 1;
  return result;
}

}  // namespace

void save_sweep_checkpoint(const std::string& path, const SweepCheckpoint& ckpt) {
  if (path.empty()) throw InvalidInputError("checkpoint: path must not be empty");
  if (ckpt.rows.size() != ckpt.done.size())
    throw InvalidInputError("checkpoint: rows and done must be the same length");
  std::string body;  // everything after the magic, CRC'd as one block
  body.reserve(16 + ckpt.meta.size() + ckpt.rows.size() * kPointBytes);
  put_u32(body, kVersion);
  put_u32(body, static_cast<std::uint32_t>(ckpt.meta.size()));
  body += ckpt.meta;
  put_u64(body, ckpt.rows.size());
  for (std::size_t i = 0; i < ckpt.rows.size(); ++i) {
    const SweepRow& r = ckpt.rows[i];
    body += static_cast<char>(ckpt.done[i] != 0 ? 1 : 0);
    put_double(body, r.x);
    put_double(body, r.dedicated_short);
    put_double(body, r.csid_short);
    put_double(body, r.cscq_short);
    put_double(body, r.dedicated_long);
    put_double(body, r.csid_long);
    put_double(body, r.cscq_long);
    body += static_cast<char>(r.dedicated_status);
    body += static_cast<char>(r.csid_status);
    body += static_cast<char>(r.cscq_status);
  }
  put_u32(body, crc32(body.data(), body.size()));

  // tmp + fsync + rename: the published name always holds a complete image.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0)
    throw InvalidInputError("checkpoint: cannot write '" + tmp +
                            "': " + std::strerror(errno));
  std::string file(kMagic, sizeof(kMagic));
  file += body;
  std::size_t off = 0;
  bool failed = false;
  while (off < file.size()) {
    const ssize_t n = ::write(fd, file.data() + off, file.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed = true;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  // Flush-before-publish: the rename must never expose unsynced bytes.
  if (!failed && ::fsync(fd) != 0) failed = true;
  ::close(fd);
  if (failed || std::rename(tmp.c_str(), path.c_str()) != 0)
    throw InternalError("checkpoint: failed to publish '" + path +
                        "': " + std::strerror(errno));
  CSQ_OBS_COUNT(kDurableCheckpointSaves);
}

std::optional<SweepCheckpoint> load_sweep_checkpoint(const std::string& path,
                                                     std::string* reason) {
  const auto reject = [&](const std::string& why) -> std::optional<SweepCheckpoint> {
    if (reason != nullptr) *reason = why;
    CSQ_OBS_COUNT(kDurableCheckpointRejected);
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (reason != nullptr) *reason = "missing";
    return std::nullopt;  // first run: not a rejection
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  if (data.size() < sizeof(kMagic) + 4 + 4 + 8 + 4) return reject("truncated header");
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) return reject("bad magic");
  const std::string body = data.substr(sizeof(kMagic), data.size() - sizeof(kMagic) - 4);
  const std::uint32_t want_crc = get_u32(data, data.size() - 4);
  if (crc32(body.data(), body.size()) != want_crc) return reject("CRC mismatch");
  std::size_t at = 0;
  const std::uint32_t version = get_u32(body, at);
  at += 4;
  if (version != kVersion)
    return reject("version " + std::to_string(version) + " != " + std::to_string(kVersion));
  const std::uint32_t meta_len = get_u32(body, at);
  at += 4;
  if (at + meta_len + 8 > body.size()) return reject("truncated meta");
  SweepCheckpoint ckpt;
  ckpt.meta = body.substr(at, meta_len);
  at += meta_len;
  const std::uint64_t n = get_u64(body, at);
  at += 8;
  // Divide instead of multiplying: `n * kPointBytes` can wrap for a crafted
  // (still CRC-valid) count near 2^64, sneaking past the size check into a
  // huge resize below.
  const std::size_t point_block = body.size() - at;
  if (point_block % kPointBytes != 0 || n != point_block / kPointBytes)
    return reject("point block size mismatch");
  ckpt.rows.resize(n);
  ckpt.done.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ckpt.done[i] = static_cast<std::uint8_t>(body[at]) != 0 ? 1 : 0;
    ++at;
    SweepRow& r = ckpt.rows[i];
    r.x = get_double(body, at);
    r.dedicated_short = get_double(body, at + 8);
    r.csid_short = get_double(body, at + 16);
    r.cscq_short = get_double(body, at + 24);
    r.dedicated_long = get_double(body, at + 32);
    r.csid_long = get_double(body, at + 40);
    r.cscq_long = get_double(body, at + 48);
    at += 56;
    const auto status_at = [&](std::size_t k) {
      const auto raw = static_cast<std::uint8_t>(body[at + k]);
      return raw <= static_cast<std::uint8_t>(PointStatus::kTimedOut)
                 ? static_cast<PointStatus>(raw)
                 : PointStatus::kFailed;
    };
    r.dedicated_status = status_at(0);
    r.csid_status = status_at(1);
    r.cscq_status = status_at(2);
    at += 3;
  }
  return ckpt;
}

CheckpointedSweepResult checkpointed_sweep_rho_short(
    const std::string& path, double rho_long, double mean_short, double mean_long,
    double long_scv, const std::vector<double>& rho_shorts,
    const CheckpointedSweepOptions& opts) {
  return run_checkpointed(path, "rho_s", rho_long, mean_short, mean_long, long_scv,
                          rho_shorts, opts, &sweep_rho_short);
}

CheckpointedSweepResult checkpointed_sweep_rho_long(
    const std::string& path, double rho_short, double mean_short, double mean_long,
    double long_scv, const std::vector<double>& rho_longs,
    const CheckpointedSweepOptions& opts) {
  return run_checkpointed(path, "rho_l", rho_short, mean_short, mean_long, long_scv,
                          rho_longs, opts, &sweep_rho_long);
}

}  // namespace csq::durable
