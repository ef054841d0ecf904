#include "durable/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "core/faultpoint.h"
#include "core/status.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace csq::durable {

namespace {

// Table-driven CRC-32 (IEEE 802.3 polynomial, reflected). The table is a
// pure function of the polynomial; building it once at first use keeps the
// translation unit free of a 1 KiB literal.
const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
      t[i] = c;
    }
    return t;
  }();
  return table;
}

constexpr const char* kMagic = "CSQJ1";

[[nodiscard]] const char* kind_token(RecordKind kind) {
  return kind == RecordKind::kRequest ? "req" : "res";
}

[[nodiscard]] std::string errno_text(const char* what, const std::string& path) {
  return std::string("journal ") + what + " failed for '" + path +
         "': " + std::strerror(errno);
}

// Full write loop: write(2) may be interrupted or partial; the journal's
// durability story depends on every byte landing.
void write_all(int fd, const std::string& bytes, const std::string& path) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw InternalError(errno_text("write", path));
    }
    off += static_cast<std::size_t>(n);
  }
}

[[nodiscard]] Diagnostics offset_diag(const std::string& path, std::size_t offset) {
  Diagnostics d;
  d.stage = path;
  d.notes.push_back("byte offset " + std::to_string(offset));
  return d;
}

// Parse one frame starting at `pos`. Returns true and advances `pos` past
// the frame on success; false (pos untouched) when the bytes at `pos` do not
// form a complete well-formed frame — the caller decides torn-tail vs
// corruption.
bool parse_frame(const std::string& data, std::size_t& pos, Record* out) {
  const std::size_t header_end = data.find('\n', pos);
  if (header_end == std::string::npos) return false;
  std::istringstream header(data.substr(pos, header_end - pos));
  std::string magic;
  std::string type;
  std::uint64_t seq = 0;
  std::uint64_t len = 0;
  std::string crc_hex;
  header >> magic >> type >> seq >> len >> crc_hex;
  if (header.fail() || magic != kMagic || (type != "req" && type != "res") ||
      crc_hex.size() != 8)
    return false;
  std::uint32_t want_crc = 0;
  for (const char c : crc_hex) {
    const int digit = c >= '0' && c <= '9'   ? c - '0'
                      : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                             : -1;
    if (digit < 0) return false;
    want_crc = (want_crc << 4) | static_cast<std::uint32_t>(digit);
  }
  const std::size_t payload_start = header_end + 1;
  // Truncation check, phrased to survive a corrupt header whose len is near
  // UINT64_MAX: `payload_start + len + 1` could wrap past the size check and
  // index on garbage offsets.
  if (payload_start >= data.size()) return false;               // no payload bytes
  if (len > data.size() - payload_start - 1) return false;      // truncated payload
  if (data[payload_start + len] != '\n') return false;      // framing newline lost
  const std::string payload = data.substr(payload_start, len);
  if (crc32(payload.data(), payload.size()) != want_crc) return false;
  out->kind = type == "req" ? RecordKind::kRequest : RecordKind::kResponse;
  out->seq = seq;
  out->payload = payload;
  pos = payload_start + len + 1;
  return true;
}

// Does any well-formed frame start at or after `pos`? Distinguishes a torn
// tail (no) from mid-file corruption (yes).
[[nodiscard]] bool frame_follows(const std::string& data, std::size_t pos) {
  for (std::size_t at = data.find(kMagic, pos); at != std::string::npos;
       at = data.find(kMagic, at + 1)) {
    std::size_t probe = at;
    Record r;
    if (parse_frame(data, probe, &r)) return true;
  }
  return false;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = (crc >> 8) ^ crc_table()[(crc ^ bytes[i]) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

Journal::~Journal() {
  try {
    close();
  } catch (const Error&) {
    // Destructor: a failed final sync has no caller to inform; the on-disk
    // tail is at worst torn, which replay() handles by design.
  }
}

Journal::Journal(Journal&& other) noexcept {
  const std::lock_guard<std::mutex> lock(other.mu_);
  fd_ = std::exchange(other.fd_, -1);
  path_ = std::move(other.path_);
  opts_ = other.opts_;
  next_seq_ = other.next_seq_;
  unsynced_ = std::exchange(other.unsynced_, 0);
  fsync_count_ = other.fsync_count_;
  poisoned_ = other.poisoned_;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this == &other) return *this;
  try {
    close();
  } catch (const Error&) {
    // See ~Journal: the replaced journal's tail is recoverable regardless.
  }
  const std::lock_guard<std::mutex> lock(other.mu_);
  fd_ = std::exchange(other.fd_, -1);
  path_ = std::move(other.path_);
  opts_ = other.opts_;
  next_seq_ = other.next_seq_;
  unsynced_ = std::exchange(other.unsynced_, 0);
  fsync_count_ = other.fsync_count_;
  poisoned_ = other.poisoned_;
  return *this;
}

Journal Journal::open(const std::string& path, JournalOptions opts) {
  if (path.empty()) throw InvalidInputError("journal: path must not be empty");
  if (opts.fsync_every < 1)
    throw InvalidInputError("journal: fsync_every must be >= 1");
  if (opts.next_seq < 1) throw InvalidInputError("journal: next_seq must be >= 1");
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw InvalidInputError(errno_text("open", path));
  if (opts.trim_tail_bytes > 0) {
    // Drop a torn tail before the first append so new frames continue the
    // good history instead of landing after a partial frame.
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      const std::string msg = errno_text("fstat", path);
      ::close(fd);
      throw InvalidInputError(msg);
    }
    if (static_cast<std::uint64_t>(st.st_size) < opts.trim_tail_bytes) {
      ::close(fd);
      throw InvalidInputError("journal: trim_tail_bytes " +
                              std::to_string(opts.trim_tail_bytes) + " exceeds size of '" +
                              path + "' — the file changed since replay");
    }
    if (::ftruncate(fd, st.st_size - static_cast<off_t>(opts.trim_tail_bytes)) != 0) {
      const std::string msg = errno_text("truncate of torn tail", path);
      ::close(fd);
      throw InvalidInputError(msg);
    }
  }
  Journal j;
  j.fd_ = fd;
  j.path_ = path;
  j.opts_ = opts;
  j.next_seq_ = opts.next_seq;
  return j;
}

std::uint64_t Journal::append_request(const std::string& line) {
  std::uint64_t seq = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
  }
  append_record(RecordKind::kRequest, seq, line);
  return seq;
}

void Journal::append_response(std::uint64_t seq, const std::string& line) {
  append_record(RecordKind::kResponse, seq, line);
}

void Journal::append_record(RecordKind kind, std::uint64_t seq,
                            const std::string& payload) {
  // Fires before any byte is written, so an armed fault models a full
  // append failure: nothing lands, the caller refuses the work.
  CSQ_FAULT_POINT(kDurableJournalAppend);
  if (payload.find('\n') != std::string::npos)
    throw InvalidInputError("journal: payload must be a single line (no '\\n')");
  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32(payload.data(), payload.size()));
  std::string frame = kMagic;
  frame += ' ';
  frame += kind_token(kind);
  frame += ' ';
  frame += std::to_string(seq);
  frame += ' ';
  frame += std::to_string(payload.size());
  frame += ' ';
  frame += crc_hex;
  frame += '\n';
  frame += payload;
  frame += '\n';
  const std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_)
    throw InternalError("journal: disabled — an earlier failed append left a "
                        "partial frame that could not be rolled back");
  if (fd_ < 0) throw InternalError("journal: append on a closed journal");
  // One write_all per frame: appends are serialized on mu_, so a process
  // crash can only tear the *last* frame. A failed write, though, may leave
  // a partial frame with the process still running — roll the file back to
  // the pre-append length so a later append cannot land after the debris
  // (which replay() would refuse as mid-file corruption). If even the
  // rollback fails, poison the journal: refusing all further appends keeps
  // the broken frame a tail, which stays recoverable.
  const off_t pre_size = ::lseek(fd_, 0, SEEK_END);
  try {
    write_all(fd_, frame, path_);
  } catch (const Error&) {
    if (pre_size < 0 || ::ftruncate(fd_, pre_size) != 0) {
      poisoned_ = true;
      CSQ_OBS_COUNT(kDurableJournalPoisoned);
    }
    throw;
  }
  CSQ_OBS_COUNT(kDurableJournalAppends);
  if (++unsynced_ >= opts_.fsync_every) sync_locked();
}

void Journal::sync_locked() {
  CSQ_FAULT_POINT(kDurableJournalFsync);
  if (::fsync(fd_) != 0) throw InternalError(errno_text("fsync", path_));
  unsynced_ = 0;
  ++fsync_count_;
  CSQ_OBS_COUNT(kDurableJournalFsyncs);
}

void Journal::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0 && unsynced_ > 0) sync_locked();
}

void Journal::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  if (unsynced_ > 0) sync_locked();
  ::close(fd_);
  fd_ = -1;
}

long Journal::fsyncs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fsync_count_;
}

std::vector<Record> replay(const std::string& path, ReplayStats* stats) {
  CSQ_OBS_SPAN(kDurableJournalReplay);
  CSQ_FAULT_POINT(kDurableJournalReplay);
  ReplayStats local;
  std::vector<Record> records;
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string data = buf.str();
    std::size_t pos = 0;
    while (pos < data.size()) {
      Record r;
      if (parse_frame(data, pos, &r)) {
        ++local.frames;
        if (r.seq > local.max_seq) local.max_seq = r.seq;
        records.push_back(std::move(r));
        continue;
      }
      if (frame_follows(data, pos + 1))
        throw CorruptJournalError(
            "journal '" + path + "': corrupt frame at byte " + std::to_string(pos) +
                " with well-formed frames after it — refusing to trust this file",
            offset_diag(path, pos));
      // Broken tail with nothing after it: the expected crash artifact.
      local.torn_tail = true;
      local.torn_bytes = data.size() - pos;
      CSQ_OBS_COUNT(kDurableJournalTorn);
      break;
    }
  }
  // A missing file is an empty history, not an error: first boot with
  // --journal looks exactly like a recovery with nothing to recover.
  CSQ_OBS_COUNT_N(kDurableJournalReplayed, static_cast<long>(local.frames));
  if (stats != nullptr) *stats = local;
  return records;
}

Recovery recover(const std::string& path) {
  Recovery out;
  const std::vector<Record> records = replay(path, &out.stats);
  std::map<std::uint64_t, std::size_t> by_seq;  // seq -> index into out.requests
  for (const Record& r : records) {
    const auto it = by_seq.find(r.seq);
    if (r.kind == RecordKind::kRequest) {
      if (it != by_seq.end()) continue;  // duplicate request: first wins
      by_seq.emplace(r.seq, out.requests.size());
      RecoveredRequest rr;
      rr.seq = r.seq;
      rr.request = r.payload;
      out.requests.push_back(std::move(rr));
    } else {
      if (it == by_seq.end())
        throw CorruptJournalError(
            "journal '" + path + "': response record for seq " + std::to_string(r.seq) +
                " has no matching request — history is incomplete",
            offset_diag(path, 0));
      RecoveredRequest& rr = out.requests[it->second];
      if (rr.response.empty()) rr.response = r.payload;  // duplicate response: first wins
    }
  }
  return out;
}

}  // namespace csq::durable
