// The csq_serve core: a bounded-admission, degrading analysis server over
// the solver stack. The csq_serve binary
// (tools/csq_serve.cc) is a thin stdin/stdout shell around this class; every
// behaviour lives here so the deterministic test suite (tests/test_serve.cc)
// can drive it in-process.
//
// Request lifecycle:
//
//   submit(line)
//     ├─ parse            — malformed JSON/schema => immediate InvalidInput
//     │                     response (counted serve.requests.invalid)
//     ├─ admission        — draining, queue at depth, or in-flight cost at
//     │                     the cap => shed with an Overloaded response and
//     │                     a retry_after_ms hint (serve.requests.shed);
//     │                     otherwise enqueue (serve.requests.admitted)
//     ├─ dispatch         — a worker (or process_one() when workers == 0)
//     │                     runs the op under a per-request RunBudget slice
//     │                     derived from the server deadline policy and the
//     │                     request's own timeout_ms, cancellable at drain
//     ├─ degrade          — a CS-CQ analyze whose failure is transient()
//     │                     (NotConverged / IllConditioned) escalates once
//     │                     through analyze_resilient() starting at the
//     │                     truncated rung; the response is marked degraded
//     │                     with the attempt trail (serve.requests.degraded)
//     │                     and is NEVER cached. Nothing is retried: the
//     │                     solve is deterministic, so a second run of the
//     │                     same request would repeat the same failure
//     └─ respond          — every admitted request gets exactly one
//                           response (serve.requests.completed, or
//                           serve.requests.cancelled when drain cancelled
//                           it)
//
// Caching: exact, verified analyze results only, in an LRU keyed on the
// canonical config identity (serve/cache.h). Degraded, faulted and
// unverified answers never enter it.
//
// Drain: drain() stops admission, waits up to drain_timeout_ms for in-flight
// work, then cancels the stragglers (their budgets' cancel tokens fire) and
// answers every still-queued request with Cancelled. Idempotent; the
// destructor drains. Counter balance after drain, asserted by the soak
// suite: received == admitted + shed + invalid and
// admitted == completed + cancelled.
//
// Determinism: responses carry no timestamps or elapsed times, and deadline/
// cancel failures are normalized to fixed messages, so a response depends
// only on the request content — bit-identical across worker counts.
//
// Durability: with ServerOptions::journal set, admission write-aheads the
// request line and finish() journals the response before delivering it
// (docs/serving.md §9). submit_recovered() re-admits journal replays under
// their original sequence numbers. Because responses are deterministic,
// re-executing a request that crashed mid-flight reproduces the exact bytes
// a completed journal record would have replayed.
//
// Fault sites (core/faultpoint.h): serve.admission.shed
// (admission decision), serve.dispatch.run (at execution start),
// serve.cache.insert (in SolverCache).
//
// Thread-safety: submit()/call()/drain()/stats() are safe from any thread.
//
// Throws csq::InvalidInputError (malformed ServerOptions at construction)
// and csq::InternalError only on unreachable-state bugs. Errors raised while
// serving a request — including the internally thrown csq::OverloadedError
// at the admission gate — never escape: they become error responses.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "core/status.h"
#include "durable/journal.h"
#include "serve/cache.h"
#include "serve/request.h"

namespace csq::serve {

struct ServerOptions {
  // Worker threads executing requests. 0 = caller-driven: nothing executes
  // until process_one() is called (deterministic single-threaded tests).
  int workers = 2;
  // Admission bounds: pending (not yet running) requests beyond this depth
  // are shed, as is any request that would push the summed cost() of
  // pending + running work past max_inflight_cost.
  std::size_t queue_depth = 64;
  double max_inflight_cost = 1024.0;
  // Default per-request budget in ms; <= 0 = unlimited. A request's own
  // timeout_ms (>= 0) tightens but never extends this.
  double request_timeout_ms = 10000.0;
  // Grace for in-flight work during drain before cancellation, in ms.
  double drain_timeout_ms = 2000.0;
  // Base for the retry_after_ms hint on shed responses: hint = base *
  // (1 + pending depth at the shed decision).
  double shed_retry_after_ms = 10.0;
  std::size_t cache_capacity = 256;
  // Threads handed to sweep/replication execution inside one request
  // (sweeps and simulations parallelize internally; keep 1 unless the
  // server itself runs few workers).
  int op_threads = 1;
  // Escalate transient() CS-CQ analyze failures through the degradation
  // ladder instead of failing them.
  bool allow_degraded = true;
  // When set, invoked (serialized by an internal mutex) with every finished
  // response line — the binary's stdout writer. Tickets are completed
  // either way. Never invoked for the empty responses of a suppressed
  // invalid burst.
  std::function<void(const std::string&)> sink;
  // Write-ahead journal (durable/journal.h). When set, every admitted
  // request is appended under the admission lock *before* it becomes
  // runnable, and its response is appended before delivery — so a crash
  // never silently drops an admitted request and recovery can re-answer
  // completed ones bit-identically. An append failure at admission refuses
  // the request with an error response. Non-owning: the journal must
  // outlive the server (the binary owns it so it can flush after drain).
  durable::Journal* journal = nullptr;
  // Bounded malformed-line handling: this many consecutive invalid NDJSON
  // lines are answered individually; the limit-th answer announces the
  // suppression (one serve.codec.invalid_burst bump), and further invalid
  // lines resolve their tickets with an empty response that never reaches
  // the sink. Any well-formed line resets the run. 0 = answer every line.
  int invalid_burst_limit = 8;
};

// Completion handle for one submitted request.
class Ticket {
 public:
  // Blocks until the response is ready and returns it (one line, no '\n').
  [[nodiscard]] const std::string& wait();
  [[nodiscard]] bool done() const;

 private:
  friend class Server;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::string response_;
};

// True for the failures a CS-CQ analyze escalates through the degradation
// ladder: NotConverged and IllConditioned, where another method may still
// answer. InvalidInput, Unstable and VerificationFailed are properties of
// the request; Deadline/Cancelled mean the caller no longer wants an answer.
[[nodiscard]] bool transient(ErrorCode code);

class Server {
 public:
  explicit Server(ServerOptions opts = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Admit one NDJSON request line. Always returns a ticket that will
  // resolve to exactly one well-formed response (immediately for parse
  // failures and sheds).
  std::shared_ptr<Ticket> submit(const std::string& line);

  // Re-admit a request recovered from the write-ahead journal under its
  // original sequence number `seq` (durable::RecoveredRequest::seq). Unlike
  // submit() it bypasses the depth/cost shed decision — the request was
  // already admitted in a previous life — and appends no new request
  // record; the response is journaled against `seq`, so a second crash and
  // recovery sees it completed. Counted in Stats::recovered.
  std::shared_ptr<Ticket> submit_recovered(const std::string& line, std::uint64_t seq);

  // Synchronous convenience: submit and wait. With workers == 0 the request
  // is executed on the calling thread.
  [[nodiscard]] std::string call(const std::string& line);

  // workers == 0 mode: execute the oldest pending request on the calling
  // thread. Returns false when nothing was pending.
  bool process_one();

  // Stop admitting, give in-flight work drain_timeout_ms, cancel the rest.
  // Idempotent; safe from signal-adjacent contexts (not async-signal-safe —
  // call from the main loop after a flag, not from the handler).
  void drain();

  [[nodiscard]] bool draining() const;

  // Lifetime request tallies (local mirrors of the serve.requests.*
  // counters, available in -DCSQ_OBS=OFF builds).
  struct Stats {
    std::int64_t received = 0;
    std::int64_t admitted = 0;
    std::int64_t shed = 0;
    std::int64_t invalid = 0;
    std::int64_t completed = 0;
    std::int64_t cancelled = 0;
    std::int64_t degraded = 0;
    std::int64_t recovered = 0;           // journal replays re-admitted
    std::int64_t invalid_suppressed = 0;  // burst-suppressed invalid lines
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] SolverCache::Stats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] std::size_t pending() const;

 private:
  struct Pending {
    Request request;
    std::string raw_id;
    std::string raw_line;  // journaled verbatim on admission
    double cost = 0.0;
    std::uint64_t journal_seq = 0;
    bool journaled = false;  // response must be appended against journal_seq
    CancelToken cancel;
    std::shared_ptr<Ticket> ticket;
  };

  // Admission gate: throws csq::OverloadedError (caught in submit) when the
  // request must be shed; otherwise journals (write-ahead) and enqueues it.
  // `recovered` skips the depth/cost shed decision and the request append.
  void admit(const std::shared_ptr<Pending>& p, bool recovered = false);
  void note_invalid();
  // Complete a never-admitted request (parse failure, shed) inline.
  void respond_inline(const std::shared_ptr<Ticket>& ticket, const std::string& response);
  void execute(const std::shared_ptr<Pending>& p);
  // Drives the analysis under the request budget. Analysis failures escape
  // to execute(), which converts them to taxonomy responses:
  // csq::UnstableError, csq::NotConvergedError, csq::IllConditionedError,
  // csq::VerificationFailedError from the solver chain, and
  // csq::DeadlineExceededError / csq::CancelledError when the request
  // budget interrupts it.
  std::string run_request(const Pending& p, const RunBudget& budget);
  std::string execute_op(const Request& req, const RunBudget& budget, ResponseExtras* extras);
  std::string run_resilient(const Request& req, const RunBudget& budget,
                            ResponseExtras* extras, bool skip_exact);
  void finish(const std::shared_ptr<Pending>& p, const std::string& response, bool cancelled);
  void deliver(const std::shared_ptr<Ticket>& ticket, const std::string& response);
  void note_degraded();
  void update_depth_gauge();
  void worker_loop();
  [[nodiscard]] RunBudget request_budget(const Pending& p) const;

  ServerOptions opts_;
  SolverCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: pending_ non-empty or stopping
  std::condition_variable drain_cv_;  // drain(): pending empty and running == 0
  std::deque<std::shared_ptr<Pending>> pending_;
  std::vector<std::shared_ptr<Pending>> running_;
  bool draining_ = false;
  bool stop_ = false;
  double inflight_cost_ = 0.0;
  int invalid_run_ = 0;  // consecutive malformed lines (burst bounding)
  Stats stats_;

  std::mutex sink_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace csq::serve
