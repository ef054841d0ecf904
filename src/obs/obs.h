// Observability metrics: a process-wide Registry of named counters, gauges
// and histograms, dependency-free and zero-cost when compiled out.
//
// Metric names are literal "module.sub.metric" strings (three lowercase
// dot-separated segments, same grammar as fault sites) and each name is
// registered at exactly one call site repo-wide — enforced by lint rule R10
// `metric-naming`, so the metric catalogue in docs/observability.md is
// statically enumerable with grep.
//
// Instrumentation goes through the CSQ_OBS_* macros, never Registry calls
// in solver code: each macro caches the metric handle in a function-local
// static, so the steady-state cost of a counter bump is one relaxed atomic
// add. Configuring with -DCSQ_OBS=OFF defines CSQ_OBS_DISABLED and every
// macro expands to `((void)0)` — no registration, no atomics, no strings in
// the binary (the Registry type still exists so tooling links either way).
//
//   CSQ_OBS_COUNT("qbd.solve.calls");              // += 1
//   CSQ_OBS_COUNT_N("qbd.fi.iterations", n);       // += n
//   CSQ_OBS_GAUGE_SET("solver.fallback.stage", v); // last-write-wins level
//   CSQ_OBS_HIST("sweep.point.microseconds", us);  // count/sum/min/max
//
// Counters are monotone per process run; per-call attribution uses
// DeltaScope, which snapshots every counter at construction and returns the
// increments since (`MetricsDelta`). Analysis entry points capture one and
// attach the delta to their *Result next to SolveStats. Deltas are computed
// from process-global counters, so under concurrent solves (a threaded
// sweep) a delta attributes the *process's* activity during the call, not
// the call's alone — exact attribution needs a single-threaded run.
//
// Thread-safety: registration takes a mutex (once per site); updates are
// lock-free relaxed atomics, safe from any pool worker.
//
// Throws csq::InternalError (metric re-registered under a different kind).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"

namespace csq::obs {

// False when the build was configured with -DCSQ_OBS=OFF: the CSQ_OBS_*
// macros expand to no-ops and the Registry stays empty. Tests branch on this
// so one suite covers both builds.
[[nodiscard]] constexpr bool compiled_in() {
#ifdef CSQ_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind kind);

// Monotone event count. add() is a relaxed fetch_add: safe from any thread,
// no ordering implied with respect to the events being counted.
class Counter {
 public:
  // Relaxed: the count is monotonic and carries no ordering with the
  // events it counts; a racy, eventually-consistent total is all readers need.
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  // Relaxed store: reset only runs from quiesced scopes (tests, snapshots).
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Last-write-wins level (e.g. which fallback stage produced the answer).
class Gauge {
 public:
  // Relaxed: last-write-wins level — a torn read order across gauges is
  // acceptable, nothing synchronizes-with the store.
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const { return value_.load(std::memory_order_relaxed); }
  // Relaxed store: reset only runs from quiesced scopes (tests, snapshots).
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Streaming count/sum/min/max over observed values. min/max use CAS loops;
// count and sum are relaxed atomics (sum is exact for integer-valued
// observations within 2^53).
class Histogram {
 public:
  void observe(double v);
  // Relaxed loads: statistics reads, snapshots tolerate torn field views.
  [[nodiscard]] std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }
  // min()/max() are 0 when count() == 0.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  void reset();

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Rest at +/-infinity so the first observe() CAS always seeds them.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// One metric's state at snapshot time. `value` is the counter count, gauge
// level, or histogram count; sum/min/max are histogram-only.
struct MetricRow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

// Counter increments attributed to a code region by DeltaScope. Only
// counters that moved are recorded, so an empty `values` means "nothing
// instrumented ran" (or the build has obs compiled out).
struct MetricsDelta {
  std::vector<std::pair<std::string, std::int64_t>> values;  // sorted by name

  // Increment of `name` within the scope; 0 if it did not move.
  [[nodiscard]] std::int64_t value(const std::string& name) const;
  [[nodiscard]] bool empty() const { return values.empty(); }
  // Folds the solver-loop counters into the Diagnostics shape used by
  // SolveStats::to_diagnostics (iterations <- qbd.fi.iterations + relaxed +
  // logred doublings; notes list every moved counter).
  [[nodiscard]] Diagnostics to_diagnostics() const;
};

// Process-wide metric registry. `counter("a.b.c")` returns a reference that
// stays valid for the life of the process (node-based storage), so macro
// sites cache it in a function-local static.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // All registered metrics, sorted by name.
  [[nodiscard]] std::vector<MetricRow> snapshot() const;

  // Current value of the named counter, or 0 when it was never registered
  // (including every -DCSQ_OBS=OFF build). Read-only: never registers the
  // name — safe for assertions and load-shedding heuristics that must not
  // pollute the catalog.
  [[nodiscard]] std::int64_t counter_value(const std::string& name) const;

  // Flat JSON object, one member per metric (histograms nest
  // {count,sum,min,max}). Shape documented in docs/observability.md.
  [[nodiscard]] std::string metrics_json() const;

  // Zero every metric (registrations persist). Test isolation only.
  void reset();

 private:
  Registry() = default;

  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  // A counter in registration order; both pointers stay valid for the life
  // of the process (entries_ is node-based), so a counter's index is stable.
  struct CounterSlot {
    const std::string* name;
    const Counter* counter;
  };

  Entry& entry(const std::string& name, MetricKind kind);

  friend class DeltaScope;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::vector<CounterSlot> counters_;
};

// Copies every counter's value at construction (one int64 each, indexed by
// registration order); delta() reports the increments since, materialising
// names only for the counters that moved. A counter registered inside the
// scope counts from 0. About a quarter of a microsecond with ~50 counters:
// cheap next to a solve, not next to an inner loop, so use it at analysis
// granularity.
class DeltaScope {
 public:
  DeltaScope();
  [[nodiscard]] MetricsDelta delta() const;

 private:
  std::vector<std::int64_t> base_;
};

}  // namespace csq::obs

#ifndef CSQ_OBS_DISABLED

// Statement macros (do-while) so they compose with if/else without braces.
// The function-local static resolves the name -> handle lookup once per
// site; thereafter each hit is a single relaxed atomic op.
#define CSQ_OBS_COUNT(name)                                     \
  do {                                                          \
    static ::csq::obs::Counter& csq_obs_handle_ =               \
        ::csq::obs::Registry::instance().counter(name);         \
    csq_obs_handle_.add(1);                                     \
  } while (0)

#define CSQ_OBS_COUNT_N(name, n)                                \
  do {                                                          \
    static ::csq::obs::Counter& csq_obs_handle_ =               \
        ::csq::obs::Registry::instance().counter(name);         \
    csq_obs_handle_.add(static_cast<std::int64_t>(n));          \
  } while (0)

#define CSQ_OBS_GAUGE_SET(name, v)                              \
  do {                                                          \
    static ::csq::obs::Gauge& csq_obs_handle_ =                 \
        ::csq::obs::Registry::instance().gauge(name);           \
    csq_obs_handle_.set(static_cast<double>(v));                \
  } while (0)

#define CSQ_OBS_HIST(name, v)                                   \
  do {                                                          \
    static ::csq::obs::Histogram& csq_obs_handle_ =             \
        ::csq::obs::Registry::instance().histogram(name);       \
    csq_obs_handle_.observe(static_cast<double>(v));            \
  } while (0)

#else  // CSQ_OBS_DISABLED: no registration, no atomics. The value argument
       // sits under an unevaluated sizeof so a variable counted only for
       // obs does not become "set but unused" in the disabled build.

#define CSQ_OBS_COUNT(name) ((void)0)
#define CSQ_OBS_COUNT_N(name, n) ((void)sizeof(n))
#define CSQ_OBS_GAUGE_SET(name, v) ((void)sizeof(v))
#define CSQ_OBS_HIST(name, v) ((void)sizeof(v))

#endif  // CSQ_OBS_DISABLED
