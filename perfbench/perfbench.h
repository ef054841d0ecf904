// Shared types of csq_perfbench: the pre-generated request pool,
// the closed-loop generator that replays it into an in-process
// serve::Server, the traced-run accounting and the output checks.
//
// Times are csq::timebase::now_ns() nanoseconds throughout, the clock the
// program's own spans use, so bench-side timestamps and program spans can be
// compared directly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "durable/journal.h"
#include "obs/trace.h"
#include "serve/request.h"
#include "serve/server.h"

namespace perfbench {

// NDJSON request lines as the generator wrote them, each parsed once up
// front for its id and op. Responses seen while serving are fingerprinted per
// line, and the first `sample` lines keep their first response verbatim for
// the recompute check.
struct Pool {
  std::vector<std::string> lines;
  std::vector<csq::serve::Request> requests;
  std::vector<std::uint64_t> first_hash;       // 0 = line not answered yet
  std::vector<std::string> sample_responses;   // first response of line i < sample
  std::size_t next = 0;                        // replay cursor (cyclic)
};

// Throws std::runtime_error when the file is unreadable, empty, or holds a
// line the server's own parser rejects.
[[nodiscard]] Pool load_pool(const std::string& path, std::size_t sample);

// One answered request of a timed phase.
struct Completion {
  std::uint32_t line = 0;
  std::int64_t t_submit = 0;    // before Server::submit
  std::int64_t t_returned = 0;  // after Server::submit returned
  std::int64_t t_sink = 0;      // sink entry on the worker thread
  bool ok = false;              // "ok":true and byte-identical to earlier answers
};

// Per-response check outcomes, cumulative over the loop's life.
struct ResponseTally {
  std::int64_t errors = 0;            // "ok":false responses
  std::int64_t nondeterministic = 0;  // differs from an earlier answer to the same line
  std::int64_t unmatched = 0;         // response id matches no request in flight
  std::int64_t missing = 0;           // in flight when the wait timed out
};

// Closed-loop generator: one caller thread keeps `inflight` requests
// submitted; the server's sink reports each answer back. Install
// on_response() as ServerOptions::sink; the loop must outlive the server.
class ClosedLoop {
 public:
  explicit ClosedLoop(int inflight);
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  // The ServerOptions::sink callback (runs on worker threads).
  void on_response(const std::string& response);

  using CompletionFn = std::function<void(const Completion&)>;

  // Replay `pool` from its cursor until `deadline_ns` or `max_requests`
  // submissions, whichever comes first, then wait for the requests still in
  // flight. `on_complete` (may be empty) sees every completion, under the
  // loop's lock; `between` (may be empty) runs on the caller thread every
  // 4096 submissions.
  void run(csq::serve::Server& server, Pool& pool, std::int64_t deadline_ns,
           std::size_t max_requests, const CompletionFn& on_complete,
           const std::function<void()>& between = {});

  // While on, every sink call opens a "perfbench.sink.deliver" span on the
  // delivering worker thread, so the trace shows which thread answered.
  void set_mark_spans(bool on) { mark_spans_.store(on, std::memory_order_relaxed); }

  [[nodiscard]] ResponseTally tally() const;

 private:
  struct Slot {
    std::uint32_t line = 0;
    bool active = false;
    bool answered = false;
    bool returned = false;
    bool ok = false;
    std::int64_t t_submit = 0;
    std::int64_t t_returned = 0;
    std::int64_t t_sink = 0;
  };
  void complete_locked(std::size_t slot);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_;
  Pool* pool_ = nullptr;
  const CompletionFn* on_complete_ = nullptr;
  ResponseTally tally_;
  // Relaxed: flipped only while nothing is in flight; the request hand-off
  // through the server's queue orders it before any sink call that reads it.
  std::atomic<bool> mark_spans_{false};
};

// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);

// Outcome counts and latencies of one timed phase, kept per one-second
// bucket of sink time. Each bucket holds a fixed-capacity uniform sample of
// its ok latencies (reservoir sampling, fixed seed); all of it is allocated
// and touched up front, so the process's resident size does not grow with
// throughput.
class PhaseRecorder {
 public:
  PhaseRecorder(std::int64_t start_ns, double seconds, std::size_t per_bucket);
  void add(const Completion& c);
  [[nodiscard]] std::int64_t ok() const { return ok_; }
  [[nodiscard]] std::int64_t not_ok() const { return not_ok_; }

  struct Window {
    double seconds = 0.0;
    std::int64_t ok = 0;
    std::int64_t samples = 0;  // latencies retained, behind p50/p99
    double p50_ms = 0.0, p99_ms = 0.0;
  };
  // The phase (ending at end_ns) cut into consecutive windows of whole
  // buckets: as many as possible up to `max_windows`, each holding at least
  // `min_ok` ok completions (always at least one window).
  [[nodiscard]] std::vector<Window> windows(std::int64_t end_ns, std::int64_t min_ok,
                                            std::size_t max_windows) const;

 private:
  struct Bucket {
    std::int64_t ok = 0;
    std::size_t filled = 0;
    std::vector<double> sample;
  };
  std::int64_t start_ns_;
  std::vector<Bucket> buckets_;
  std::int64_t ok_ = 0, not_ok_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;  // splitmix64 state
};

// Median of a small sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> v);

// ---- traced-run accounting (layers.cc) -----------------------------------

// Span-derived per-layer figures, accumulated over the harvested chunks of
// one traced phase. Each chunk is harvested while nothing is in flight, so a
// chunk's spans belong only to that chunk's completions.
struct TraceAccounting {
  std::vector<double> submit_us, queue_wait_us;
  std::vector<double> cscq_us, csid_us, dedicated_us;
  std::vector<double> sweep_point_us, sim_run_us;
  double handle_self_ns = 0, handle_count = 0;
  double analysis_self_ns = 0, analysis_count = 0;
  double qbd_fi_ns = 0, qbd_spectral_ns = 0, qbd_boundary_ns = 0, qbd_fallback_ns = 0;
  double child_work_ns = 0;     // sweep points + simulation runs, any thread
  double offline_handle_ns = 0; // handle spans of sweep/simulate requests
  double sim_run_ns = 0;
  // Summed request latency, and the part of it from requests joined to their
  // handle span: only those split into submit, queue wait and handle stages.
  double latency_ns = 0, joined_latency_ns = 0;
  std::int64_t joined = 0, unjoined = 0;
  std::int64_t sweeps = 0, simulates = 0, requests = 0;

  void add_chunk(const std::vector<csq::obs::TraceEvent>& events,
                 const std::vector<Completion>& completions, const Pool& pool);
};

// Layer pass: public layer functions timed on the workload's own inputs.
struct LayerPass {
  double parse_us = 0, lookup_us = 0, insert_us = 0;
  double append_p50_us = 0, append_p99_us = 0;
  double fit_us = 0, busy_period_us = 0;
  std::size_t cache_keys = 0, fit_inputs = 0;
};
[[nodiscard]] LayerPass run_layer_pass(const Pool& pool);

// ---- output checks (checks.cc) -------------------------------------------

// The response the server must give to `req`, recomputed through the public
// analysis / sweep / simulation entry points on the calling thread.
[[nodiscard]] std::string expected_response(const csq::serve::Request& req);

// Anonymous in-memory file (memfd, shmem-backed like tmpfs) holding a
// write-ahead journal, so journal cost is measured without a disk. Old
// bytes can be released with trim() while the journal keeps appending.
class MemJournal {
 public:
  explicit MemJournal(int fsync_every);
  ~MemJournal();
  MemJournal(const MemJournal&) = delete;
  MemJournal& operator=(const MemJournal&) = delete;

  [[nodiscard]] csq::durable::Journal& journal() { return journal_; }
  // Punch out every full page written so far (the file keeps its size).
  void trim();

 private:
  int fd_ = -1;
  csq::durable::Journal journal_;
};

}  // namespace perfbench
