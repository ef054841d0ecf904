// Dependency-free work-stealing thread pool, channel-based.
//
// N workers, each owning a PRIVATE task stack — no concurrent deque, so the
// owner's push/pop are plain vector operations with no atomics or fences on
// the hot path. Work migrates only by message passing (parallel/channel.h):
// an idle worker posts a steal request into the victim's MPSC mailbox and
// waits on the (victim, requester) SPSC reply slot; the victim answers
// between tasks with either half of its stack (steal-half, oldest — i.e.
// largest — ranges first) or a decline. A requester whose whole sweep of
// victims declined backs off with an adaptive exponential pause before
// retrying, and falls through spin -> yield -> condition-variable suspend
// once nothing is pending anywhere, so an idle pool costs nothing.
//
// External callers submit index ranges through parallel_for(); a worker
// executing a range repeatedly splits off its upper half into its own stack
// until the range is at most `grain` wide, so steal-half hands thieves the
// large unsplit ranges.
//
// The pool never touches the caller's thread: parallel_for() blocks until
// every index has been attempted. Exceptions thrown by the body are caught
// per index; the first one is rethrown to the caller after the whole range
// has been attempted (per-index isolation — one bad index does not stop the
// others). Results written to out[i] by index are therefore bit-identical
// regardless of worker count or steal schedule.
//
// Nested parallel_for calls from inside a worker are not supported (the
// inner call would block a worker on work only workers can run); the
// library's parallel entry points (core/sweep, sim) are all top-level.
//
// Budgets: parallel_for accepts a RunBudget; workers observe it *between*
// range tasks (one check per task execution, so worst-case overshoot is one
// grain-sized range). Once the budget is interrupted, unclaimed ranges are
// skipped and the matching csq::CancelledError / csq::DeadlineExceededError
// is rethrown after the job drains — indices already attempted keep their
// results. Which indices were attempted under an expiring deadline is
// timing-dependent; pass an inert budget for bit-identical runs.
//
// Liveness: every waiting state answers its own mailbox. A busy victim
// replies between tasks, an idle requester declines while it waits for its
// own reply, and a sleeping worker is woken by the requester's notify (the
// suspend predicate includes "my mailbox is nonempty"), so request cycles
// always drain and no steal request is ever lost.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/deadline.h"
#include "parallel/channel.h"

namespace csq::par {

// Cumulative activity counters (monotone; read with stats()).
struct PoolStats {
  std::uint64_t tasks_executed = 0;  // range tasks run (leaves after splits)
  std::uint64_t steals = 0;          // granted steal batches received
  std::uint64_t suspensions = 0;     // times a worker fully backed off to the CV
  std::uint64_t steal_requests = 0;  // requests posted to a victim's mailbox
  std::uint64_t declines = 0;        // requests answered with no tasks
};

class TaskPool {
 public:
  // Spawns `threads` workers (>= 1). The caller's thread is never used.
  explicit TaskPool(int threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] int threads() const { return static_cast<int>(workers_.size()); }

  // Run fn(i) for every i in [0, n), splitting into subranges of at most
  // `grain` indices. Blocks until all indices have been attempted; the first
  // exception thrown by fn (if any) is rethrown here. Thread-safe: multiple
  // threads may submit jobs concurrently.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1, const RunBudget& budget = {});

  [[nodiscard]] PoolStats stats() const;

  // Process-wide pool of exactly `threads` workers, created on first use and
  // cached per thread count (idle pools are suspended, so keeping a few
  // sizes alive is free). threads must be >= 2 — single-threaded callers
  // should run inline instead (see par::parallel_for).
  static TaskPool& shared(int threads);

 private:
  struct Job {
    std::function<void(std::size_t)> fn;
    std::size_t grain = 1;
    RunBudget budget;  // observed by workers between range tasks
    std::atomic<std::size_t> remaining{0};  // indices not yet attempted
    std::mutex m;
    std::condition_variable done_cv;
    bool done = false;
    std::exception_ptr error;  // first failure, guarded by m
  };

  // Plain value: tasks live inside the owning worker's private stack (or a
  // reply batch in flight) — never on the heap individually.
  struct RangeTask {
    Job* job = nullptr;
    std::size_t begin = 0, end = 0;
  };

  // A steal request names the worker to reply to.
  struct StealRequest {
    std::uint32_t requester = 0;
  };

  // Reply to a steal request: a batch of tasks (grant) or empty (decline).
  struct Reply {
    std::vector<RangeTask> tasks;
  };

  struct Worker {
    explicit Worker(std::size_t mailbox_capacity) : mailbox(mailbox_capacity) {}

    std::vector<RangeTask> local;  // private LIFO stack; front = largest ranges
    MpscChannel<StealRequest> mailbox;
    std::thread thread;
    std::uint64_t victim_state = 0;  // xorshift state for victim selection
    // Activity counters: written by the owner only, but read live by
    // stats() from any thread — relaxed atomics keep that well-defined.
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> suspensions{0};
    std::atomic<std::uint64_t> steal_requests{0};
    std::atomic<std::uint64_t> declines{0};
  };

  void worker_loop(std::size_t self);
  // Answer every queued steal request: grant half the private stack (the
  // oldest entries) or decline. Called between tasks and from every wait
  // loop, so requests are never left hanging.
  void service_mailbox(std::size_t self);
  bool try_get_local_or_injected(std::size_t self, RangeTask& out);
  // Post one steal request and wait for the reply; true if tasks arrived.
  bool try_steal(std::size_t self);
  void execute(RangeTask task, std::size_t self);
  void enqueue_external(RangeTask task);
  void push_local(std::size_t self, RangeTask task);
  void notify_if_sleepers();

  [[nodiscard]] SpscSlot<Reply>& reply_slot(std::size_t victim, std::size_t requester) {
    return reply_slots_[victim * workers_.size() + requester];
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  // (victim, requester) reply matrix; see parallel/channel.h for why
  // capacity one per pair suffices.
  std::unique_ptr<SpscSlot<Reply>[]> reply_slots_;
  std::atomic<bool> stop_{false};

  // External (non-worker) submissions; workers drain it when their own stack
  // is empty. Mutex-protected: submissions are rare (one per parallel_for).
  std::mutex inject_m_;
  std::vector<RangeTask> injected_;

  // Suspend/wake machinery. pending_ counts tasks sitting in some queue (not
  // yet claimed); its seq_cst pairing with sleepers_ makes the "new task vs
  // worker going to sleep" race safe (Dekker-style: either the producer sees
  // the sleeper and notifies, or the sleeper sees pending_ > 0 and stays
  // up). Steal transfers leave pending_ untouched — the tasks stay "in some
  // queue" end to end, so a granted batch in flight still holds its
  // requester awake.
  std::atomic<std::int64_t> pending_{0};
  std::atomic<int> sleepers_{0};
  std::mutex wake_m_;
  std::condition_variable wake_cv_;
};

// Number of hardware threads (>= 1).
[[nodiscard]] int hardware_threads();

// Resolve a user-facing thread-count option: 0 means "all hardware threads",
// anything else is clamped to >= 1.
[[nodiscard]] int resolve_threads(int threads);

// Facade: run fn(i) for i in [0, n). threads <= 1 runs inline on the calling
// thread (no pool, no synchronization — the deterministic baseline);
// threads >= 2 uses TaskPool::shared(threads). Both paths attempt every
// index and rethrow the first exception afterwards, so error semantics and
// by-index results do not depend on the thread count.
void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1, const RunBudget& budget = {});

// Facade: out[i] = f(i) for i in [0, n); ordering of the result vector is by
// index regardless of execution order. R must be default-constructible.
template <typename F>
[[nodiscard]] auto parallel_map(std::size_t n, int threads, F&& f, std::size_t grain = 1,
                                const RunBudget& budget = {}) {
  using R = std::decay_t<decltype(f(std::size_t{0}))>;
  std::vector<R> out(n);
  parallel_for(n, threads, [&](std::size_t i) { out[i] = f(i); }, grain, budget);
  return out;
}

}  // namespace csq::par
