#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "core/deadline.h"
#include "core/status.h"
#include "perfbench.h"

namespace perfbench {

using csq::timebase::now_ns;

namespace {

// FNV-1a: a response fingerprint, so every answer to a line can be compared
// with the first one without keeping all response bytes.
std::uint64_t fingerprint(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

// True when `response` answers request `id` ({"id":"<id>",...).
bool answers(const std::string& response, const std::string& id) {
  static const std::string kHead = "{\"id\":\"";
  return response.size() > kHead.size() + id.size() &&
         response.compare(0, kHead.size(), kHead) == 0 &&
         response.compare(kHead.size(), id.size(), id) == 0 &&
         response[kHead.size() + id.size()] == '"';
}

bool is_ok(const std::string& response, const std::string& id) {
  static const std::string kOk = "\",\"ok\":true";
  return response.compare(7 + id.size(), kOk.size(), kOk) == 0;
}

}  // namespace

Pool load_pool(const std::string& path, std::size_t sample) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read request file " + path);
  Pool pool;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      pool.requests.push_back(csq::serve::parse_request(line));
    } catch (const csq::Error& e) {
      throw std::runtime_error(path + ": request rejected by parse_request: " +
                               e.status().message);
    }
    pool.lines.push_back(line);
  }
  if (pool.lines.empty()) throw std::runtime_error("no requests in " + path);
  pool.first_hash.assign(pool.lines.size(), 0);
  pool.sample_responses.assign(std::min(sample, pool.lines.size()), std::string());
  return pool;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

ClosedLoop::ClosedLoop(int inflight)
    : slots_(static_cast<std::size_t>(std::max(1, inflight))) {
  for (std::size_t i = slots_.size(); i-- > 0;) free_.push_back(i);
}

void ClosedLoop::on_response(const std::string& response) {
  // The mark span opens before the timestamp and closes after it, so the
  // timestamp lies inside the span recorded on this worker's trace lane.
  std::optional<csq::obs::Span> mark;
  if (mark_spans_.load(std::memory_order_relaxed)) mark.emplace("perfbench.sink.deliver");
  const std::int64_t t = now_ns();

  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.active || s.answered) continue;
    const std::string& id = pool_->requests[s.line].id;
    if (!answers(response, id)) continue;
    s.answered = true;
    s.t_sink = t;
    s.ok = is_ok(response, id);
    if (!s.ok) ++tally_.errors;
    std::uint64_t& seen = pool_->first_hash[s.line];
    const std::uint64_t h = fingerprint(response);
    if (seen == 0) {
      seen = h;
      if (s.line < pool_->sample_responses.size()) pool_->sample_responses[s.line] = response;
    } else if (seen != h) {
      ++tally_.nondeterministic;
      s.ok = false;
    }
    if (s.returned) complete_locked(i);
    return;
  }
  ++tally_.unmatched;
}

void ClosedLoop::complete_locked(std::size_t slot) {
  Slot& s = slots_[slot];
  if (on_complete_ != nullptr && *on_complete_)
    (*on_complete_)({s.line, s.t_submit, s.t_returned, s.t_sink, s.ok});
  s = Slot{};
  free_.push_back(slot);
  cv_.notify_one();
}

void ClosedLoop::run(csq::serve::Server& server, Pool& pool, std::int64_t deadline_ns,
                     std::size_t max_requests, const CompletionFn& on_complete,
                     const std::function<void()>& between) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pool_ = &pool;
    on_complete_ = &on_complete;
  }
  std::size_t submitted = 0;
  for (;;) {
    std::size_t slot = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !free_.empty(); });
      if (submitted >= max_requests || now_ns() >= deadline_ns) break;
      slot = free_.back();
      free_.pop_back();
      Slot& s = slots_[slot];
      s.active = true;
      s.line = static_cast<std::uint32_t>(pool.next);
      pool.next = (pool.next + 1) % pool.lines.size();
    }
    const std::string& line = pool.lines[slots_[slot].line];
    const std::int64_t t0 = now_ns();
    (void)server.submit(line);  // the sink reports the answer
    const std::int64_t t1 = now_ns();
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& s = slots_[slot];
      s.t_submit = t0;
      s.t_returned = t1;
      s.returned = true;
      if (s.answered) complete_locked(slot);
    }
    if (++submitted % 4096 == 0 && between) between();
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!cv_.wait_for(lock, std::chrono::seconds(60),
                    [this] { return free_.size() == slots_.size(); })) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i].active) continue;
      ++tally_.missing;
      slots_[i] = Slot{};
      free_.push_back(i);
    }
  }
  on_complete_ = nullptr;
}

ResponseTally ClosedLoop::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

MemJournal::MemJournal(int fsync_every) {
  fd_ = ::memfd_create("csq-perfbench-journal", MFD_CLOEXEC);
  if (fd_ < 0) throw std::runtime_error("memfd_create failed");
  csq::durable::JournalOptions opts;
  opts.fsync_every = fsync_every;
  journal_ = csq::durable::Journal::open("/proc/self/fd/" + std::to_string(fd_), opts);
}

MemJournal::~MemJournal() {
  journal_.close();
  if (fd_ >= 0) ::close(fd_);
}

void MemJournal::trim() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return;
  const off_t page = ::sysconf(_SC_PAGESIZE);
  const off_t len = st.st_size / page * page;
  if (len > 0) (void)::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE, 0, len);
}

}  // namespace perfbench
