#include "durable/checkpoint.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "core/status.h"
#include "durable/journal.h"
#include "obs/obs.h"

namespace csq::durable {

namespace {

// A row frame's payload: the doubles, then the statuses, in this order.
constexpr double SweepRow::*kColumns[] = {
    &SweepRow::x,          &SweepRow::dedicated_short, &SweepRow::csid_short,
    &SweepRow::cscq_short, &SweepRow::dedicated_long,  &SweepRow::csid_long,
    &SweepRow::cscq_long};
constexpr PointStatus SweepRow::*kStatuses[] = {
    &SweepRow::dedicated_status, &SweepRow::csid_status, &SweepRow::cscq_status};
// "%016llx " per double, then "d d d".
constexpr std::size_t kRowBytes = std::size(kColumns) * 17 + std::size(kStatuses) * 2 - 1;

[[nodiscard]] std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));  // bit-exact: NaN patterns survive
  return bits;
}

// Exact textual identity of a double: hex bit pattern, so 0.1 vs the nearest
// representable neighbour never alias.
[[nodiscard]] std::string double_bits(double v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits_of(v)));
  return buf;
}

[[nodiscard]] std::string sweep_meta(const char* axis, double fixed, double mean_short,
                                     double mean_long, double long_scv,
                                     const std::vector<double>& grid) {
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                crc32(grid.data(), grid.size() * sizeof(double)));
  return std::string("axis=") + axis + ";fixed=" + double_bits(fixed) +
         ";mean_s=" + double_bits(mean_short) + ";mean_l=" + double_bits(mean_long) +
         ";scv_l=" + double_bits(long_scv) + ";n=" + std::to_string(grid.size()) +
         ";grid_crc=" + crc_hex;
}

// A row is final only when no policy column is a budget artifact.
[[nodiscard]] bool row_done(const SweepRow& row) {
  return row.dedicated_status != PointStatus::kTimedOut &&
         row.csid_status != PointStatus::kTimedOut &&
         row.cscq_status != PointStatus::kTimedOut;
}

[[nodiscard]] std::string row_payload(const SweepRow& row) {
  std::string out;
  out.reserve(kRowBytes);
  for (const auto column : kColumns) {
    out += double_bits(row.*column);
    out += ' ';
  }
  for (std::size_t s = 0; s < std::size(kStatuses); ++s) {
    if (s > 0) out += ' ';
    out += static_cast<char>('0' + static_cast<int>(row.*kStatuses[s]));
  }
  return out;
}

// Inverse of row_payload; false unless `p` has exactly its shape.
[[nodiscard]] bool parse_row(const std::string& p, SweepRow* row) {
  if (p.size() != kRowBytes) return false;
  std::size_t at = 0;
  for (const auto column : kColumns) {
    std::uint64_t bits = 0;
    const char* first = p.data() + at;
    const auto [end, ec] = std::from_chars(first, first + 16, bits, 16);
    if (ec != std::errc() || end != first + 16 || p[at + 16] != ' ') return false;
    std::memcpy(&(row->*column), &bits, sizeof(bits));
    at += 17;
  }
  for (std::size_t s = 0; s < std::size(kStatuses); ++s, at += 2) {
    const int code = p[at] - '0';
    if ((s > 0 && p[at - 1] != ' ') || code < 0 ||
        code > static_cast<int>(PointStatus::kTimedOut))
      return false;
    row->*kStatuses[s] = static_cast<PointStatus>(code);
  }
  return true;
}

using SweepFn = std::vector<SweepRow> (*)(double, double, double, double,
                                          const std::vector<double>&, const SweepOptions&);

CheckpointedSweepResult run_checkpointed(const std::string& path, const char* axis,
                                         double fixed, double mean_short, double mean_long,
                                         double long_scv, const std::vector<double>& grid,
                                         const SweepOptions& opts, SweepFn sweep_fn) {
  if (path.empty())
    throw InvalidInputError("checkpointed sweep: checkpoint path must not be empty");
  const std::string meta = sweep_meta(axis, fixed, mean_short, mean_long, long_scv, grid);

  ReplayStats stats;
  const std::vector<Record> records = replay(path, &stats);
  if (!records.empty() && (records[0].kind != RecordKind::kRequest || records[0].seq != 0 ||
                           records[0].payload != meta))
    throw InvalidInputError("checkpoint '" + path + "' belongs to a different sweep (" +
                            records[0].payload + " vs " + meta +
                            ") — refusing to graft rows across sweeps");
  std::vector<SweepRow> rows(grid.size());
  std::vector<std::uint8_t> done(grid.size(), 0);
  for (std::size_t r = 1; r < records.size(); ++r) {
    const Record& rec = records[r];
    SweepRow row;
    if (rec.kind != RecordKind::kResponse || rec.seq >= grid.size() ||
        !parse_row(rec.payload, &row) || !row_done(row) ||
        bits_of(row.x) != bits_of(grid[rec.seq])) {
      Diagnostics d;
      d.stage = path;
      d.notes.push_back("record " + std::to_string(r) + ", seq " + std::to_string(rec.seq));
      throw CorruptJournalError("checkpoint '" + path + "': row frame " +
                                    std::to_string(r) + " (seq " + std::to_string(rec.seq) +
                                    ") is not a finished row of this " +
                                    std::to_string(grid.size()) +
                                    "-point sweep — refusing to trust this file",
                                d);
    }
    if (done[rec.seq] != 0) continue;  // duplicate seq: first wins
    rows[rec.seq] = row;
    done[rec.seq] = 1;
  }

  CheckpointedSweepResult result;
  for (const std::uint8_t d : done) result.resumed += d;
  result.evaluated = grid.size() - result.resumed;
  CSQ_OBS_COUNT_N(kDurableCheckpointResumed, static_cast<long>(result.resumed));

  JournalOptions jopts;
  jopts.trim_tail_bytes = stats.torn_bytes;
  Journal journal = Journal::open(path, jopts);
  if (records.empty()) journal.append_record(RecordKind::kRequest, 0, meta);
  SweepOptions sopts = opts;
  sopts.resume_rows = &rows;
  sopts.resume_done = &done;
  sopts.on_row = [&journal](std::size_t i, const SweepRow& row) {
    if (row_done(row)) journal.append_record(RecordKind::kResponse, i, row_payload(row));
  };
  result.rows = sweep_fn(fixed, mean_short, mean_long, long_scv, grid, sopts);
  journal.close();
  for (const SweepRow& row : result.rows) result.incomplete += row_done(row) ? 0 : 1;
  return result;
}

}  // namespace

CheckpointedSweepResult checkpointed_sweep_rho_short(
    const std::string& path, double rho_long, double mean_short, double mean_long,
    double long_scv, const std::vector<double>& rho_shorts, const SweepOptions& opts) {
  return run_checkpointed(path, "rho_s", rho_long, mean_short, mean_long, long_scv,
                          rho_shorts, opts, &sweep_rho_short);
}

CheckpointedSweepResult checkpointed_sweep_rho_long(
    const std::string& path, double rho_short, double mean_short, double mean_long,
    double long_scv, const std::vector<double>& rho_longs, const SweepOptions& opts) {
  return run_checkpointed(path, "rho_l", rho_short, mean_short, mean_long, long_scv,
                          rho_longs, opts, &sweep_rho_long);
}

}  // namespace csq::durable
