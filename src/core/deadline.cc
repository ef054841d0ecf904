#include "core/deadline.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace csq {

namespace timebase {

namespace {
std::atomic<std::int64_t>& virtual_offset() {
  static std::atomic<std::int64_t> offset{0};
  return offset;
}
}  // namespace

std::int64_t now_ns() {
  const auto steady = std::chrono::steady_clock::now().time_since_epoch();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(steady).count();
  return ns + virtual_offset().load(std::memory_order_relaxed);
}

void advance_virtual_ns(std::int64_t delta_ns) {
  if (delta_ns <= 0) return;
  virtual_offset().fetch_add(delta_ns, std::memory_order_relaxed);
}

void reset_virtual() { virtual_offset().store(0, std::memory_order_relaxed); }

}  // namespace timebase

namespace {

constexpr double kNsPerMs = 1e6;

// ms -> ns offset with saturation (avoids int64 overflow for huge finite ms).
std::int64_t ms_to_ns_saturating(double ms) {
  const double ns = ms * kNsPerMs;
  if (ns >= static_cast<double>(INT64_MAX) / 2) return INT64_MAX / 2;
  return static_cast<std::int64_t>(ns);
}

}  // namespace

RunBudget RunBudget::with_timeout_ms(double ms) {
  if (std::isnan(ms)) throw InvalidInputError("RunBudget timeout must not be NaN");
  RunBudget b;
  b.start_ns_ = timebase::now_ns();
  if (std::isinf(ms)) return b;  // unlimited, but elapsed_ms() is measured
  if (ms <= 0.0) {
    b.deadline_ns_ = b.start_ns_;  // already expired: now >= deadline holds
    return b;
  }
  b.deadline_ns_ = b.start_ns_ + ms_to_ns_saturating(ms);
  return b;
}

RunBudget RunBudget::with_token(const CancelToken& token) const {
  RunBudget b = *this;
  b.flag_ = token.flag_;
  if (b.start_ns_ == 0) b.start_ns_ = timebase::now_ns();
  return b;
}

RunBudget RunBudget::slice_ms(double ms) const {
  if (std::isnan(ms)) throw InvalidInputError("RunBudget slice must not be NaN");
  RunBudget b = *this;
  b.start_ns_ = timebase::now_ns();
  if (std::isinf(ms)) return b;  // keep the parent deadline
  const std::int64_t cap =
      ms <= 0.0 ? b.start_ns_ : b.start_ns_ + ms_to_ns_saturating(ms);
  if (cap < b.deadline_ns_) b.deadline_ns_ = cap;
  return b;
}

double RunBudget::remaining_ms() const {
  if (!has_deadline()) return std::numeric_limits<double>::infinity();
  const std::int64_t left = deadline_ns_ - timebase::now_ns();
  return left <= 0 ? 0.0 : static_cast<double>(left) / kNsPerMs;
}

double RunBudget::elapsed_ms() const {
  if (start_ns_ == 0) return 0.0;
  return static_cast<double>(timebase::now_ns() - start_ns_) / kNsPerMs;
}

double RunBudget::budget_ms() const {
  if (!has_deadline()) return std::numeric_limits<double>::infinity();
  return static_cast<double>(deadline_ns_ - start_ns_) / kNsPerMs;
}

void RunBudget::check(const std::string& where) const { check(where, Diagnostics{}); }

void RunBudget::check(const std::string& where, Diagnostics d) const {
  if (cancelled()) {
    d = annotate(std::move(d));
    if (d.stage.empty()) d.stage = where;
    throw CancelledError("cancelled in " + where, std::move(d));
  }
  if (expired()) {
    d = annotate(std::move(d));
    if (d.stage.empty()) d.stage = where;
    throw DeadlineExceededError("deadline exceeded in " + where + " (budget " +
                                    std::to_string(budget_ms()) + " ms)",
                                std::move(d));
  }
}

Diagnostics RunBudget::annotate(Diagnostics d) const {
  if (has_deadline()) {
    d.budget_ms = budget_ms();
    d.elapsed_ms = elapsed_ms();
  }
  return d;
}

}  // namespace csq
