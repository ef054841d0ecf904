// Wall-clock run budgets and cooperative cancellation.
//
// A RunBudget bounds how long a solve may run (deadline) and lets a caller
// abort it mid-flight (CancelToken). Long-running loops poll
// `budget.interrupted()` (cheap: two loads, and a clock read only when a
// deadline is actually set) or call `budget.check(where)` which throws the
// matching taxonomy error. Budgets are small value types: copy them freely
// into worker threads; a copy shares the parent's deadline and token.
//
// Polling is cooperative, so deadlines overshoot by at most one poll
// interval: one log-reduction doubling step in qbd, one sweep point, or
// 4096 events of the simulation engine. See docs/robustness.md §7 for the
// full contract.
//
// Time source: timebase::now_ns() is std::chrono::steady_clock plus an
// atomic *virtual offset* that tests and the fault-injection layer can
// advance without sleeping — deadline behaviour is testable deterministically
// (no timing-dependent sleeps) by burning virtual time at a fault site.
//
// Throws csq::DeadlineExceededError / csq::CancelledError (from check()) and
// csq::InvalidInputError (from with_timeout_ms on NaN).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/status.h"

namespace csq {

namespace timebase {

// Monotonic nanoseconds since an arbitrary epoch: steady_clock + virtual offset.
[[nodiscard]] std::int64_t now_ns();

// Advance the virtual clock (negative deltas are ignored). Affects every
// RunBudget in the process; intended for tests and fault injection only.
void advance_virtual_ns(std::int64_t delta_ns);

// Reset the virtual offset to zero (test isolation).
void reset_virtual();

}  // namespace timebase

// Shared cooperative cancel flag. Construction allocates the shared state;
// copies observe and trigger the same flag. A default-constructed token is
// live (not cancelled) until cancel() is called on any copy.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  friend class RunBudget;
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Deadline + cancel flag bundle threaded through solver options. The default
// instance is inert (no deadline, no token): interrupted() is branch-only and
// never reads the clock, so budget support costs nothing when unused.
class RunBudget {
 public:
  RunBudget() = default;  // unlimited, uncancellable

  [[nodiscard]] static RunBudget unlimited() { return RunBudget{}; }

  // Budget expiring `ms` milliseconds from now. ms <= 0 yields an
  // already-expired budget (every check(), including the first, throws);
  // +infinity yields an unlimited budget; NaN throws InvalidInputError.
  [[nodiscard]] static RunBudget with_timeout_ms(double ms);

  // Copy of this budget that also observes `token`.
  [[nodiscard]] RunBudget with_token(const CancelToken& token) const;

  // Sub-budget capped at `ms` from now but never extending past this
  // budget's own deadline; shares the cancel token. Used by the degradation
  // ladder to stop an early rung starving later ones.
  [[nodiscard]] RunBudget slice_ms(double ms) const;

  // Copy of this budget with no deadline that still shares the cancel
  // token: the degradation ladder's simulation rung runs under it, so its
  // initial batch completes under any deadline but stops on cancellation.
  [[nodiscard]] RunBudget without_deadline() const {
    RunBudget b = *this;
    b.deadline_ns_ = kNoDeadline;
    return b;
  }

  [[nodiscard]] bool has_deadline() const { return deadline_ns_ != kNoDeadline; }
  [[nodiscard]] bool expired() const {
    return has_deadline() && timebase::now_ns() >= deadline_ns_;
  }
  [[nodiscard]] bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }
  // The poll predicate: true once the budget should stop being spent.
  [[nodiscard]] bool interrupted() const { return cancelled() || expired(); }

  // Milliseconds until the deadline, clamped at 0; +infinity when unlimited.
  [[nodiscard]] double remaining_ms() const;
  // Milliseconds since this budget was started (0 for an inert default).
  [[nodiscard]] double elapsed_ms() const;
  // The total budget in ms; +infinity when unlimited.
  [[nodiscard]] double budget_ms() const;

  // Throw CancelledError (checked first) or DeadlineExceededError if
  // interrupted; `where` names the poll site in the message and stage.
  void check(const std::string& where) const;

  // As above, but attach caller-provided diagnostics (partial solver
  // progress) to the thrown error. No-op when not interrupted.
  void check(const std::string& where, Diagnostics d) const;

  // Stamp budget_ms/elapsed_ms into a Diagnostics payload (no-op when inert).
  [[nodiscard]] Diagnostics annotate(Diagnostics d) const;

 private:
  static constexpr std::int64_t kNoDeadline = INT64_MAX;

  std::int64_t start_ns_ = 0;
  std::int64_t deadline_ns_ = kNoDeadline;
  std::shared_ptr<std::atomic<bool>> flag_;  // null when no token attached
};

}  // namespace csq
