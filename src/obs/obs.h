// Observability metrics: a process-wide Registry of counters and gauges,
// dependency-free and zero-cost when compiled out.
//
// Every metric is a row of the name catalog (obs/catalog.h), and the
// CSQ_OBS_* macros take the row's enumerator, never a string: a literal, an
// unknown name or a kind mismatch (a gauge's name with CSQ_OBS_COUNT) fails
// to compile. The Registry is one array indexed by enumerator, so a counter
// bump is one relaxed atomic add at a fixed address: no lookup, no
// registration. Configuring with -DCSQ_OBS=OFF defines CSQ_OBS_DISABLED:
// every macro still checks its name at compile time but emits no code, and
// the Registry reads as empty, so no metric-name string reaches the binary
// (the Registry type still exists so tooling links either way).
//
//   CSQ_OBS_COUNT(kQbdSolveCalls);                // += 1
//   CSQ_OBS_COUNT_N(kQbdLogredDoublings, n);      // += n
//   CSQ_OBS_GAUGE_SET(kServeQueueDepth, v);       // last-write-wins level
//
// Counters are monotone per process run; per-call attribution uses
// DeltaScope, which snapshots every counter at construction and returns the
// increments since (`MetricsDelta`); open one around a call to see what it
// moved. Deltas are computed from process-global counters, so under
// concurrent solves (a threaded sweep) a delta attributes the *process's*
// activity during the call, not the call's alone — exact attribution needs a
// single-threaded run.
//
// Thread-safety: updates and reads are lock-free relaxed atomics, safe from
// any pool worker.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/catalog.h"

namespace csq::obs {

// False when the build was configured with -DCSQ_OBS=OFF: the CSQ_OBS_*
// macros expand to no-ops and the Registry reads as empty. Tests branch on
// this so one suite covers both builds.
[[nodiscard]] constexpr bool compiled_in() {
#ifdef CSQ_OBS_DISABLED
  return false;
#else
  return true;
#endif
}

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
// observations within 2^53). Not a registry kind yet: no catalog row
// observes a distribution.
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

// One metric's state at snapshot time: the counter count or gauge level.
struct MetricRow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
};

// Counter increments attributed to a code region by DeltaScope. Only
// counters that moved are recorded, so an empty `values` means "nothing
// instrumented ran" (or the build has obs compiled out).
struct MetricsDelta {
  std::vector<std::pair<std::string, std::int64_t>> values;  // sorted by name

  // Increment of `name` within the scope; 0 if it did not move.
  [[nodiscard]] std::int64_t value(const std::string& name) const;
  [[nodiscard]] bool empty() const { return values.empty(); }
};

// Process-wide metric registry: one cell per catalog row, indexed by
// enumerator. The accessors take the enumerator as a template argument and
// reject a row of another kind at compile time.
class Registry {
 public:
  // Constant-initialized and trivially destructible, so it needs no guard
  // on first use and static teardown runs no code: the shared worker pools
  // live until teardown and may still bump counters from their idle loops.
  static Registry& instance() {
    static constinit Registry r;
    return r;
  }

  template <Name N>
  Counter& counter() {
    return cells_[index(of_kind<N, MetricKind::kCounter>())].counter;
  }
  template <Name N>
  Gauge& gauge() {
    return cells_[index(of_kind<N, MetricKind::kGauge>())].gauge;
  }

  // Every catalog metric (spans excluded), sorted by name, zeros included;
  // empty in a -DCSQ_OBS=OFF build.
  [[nodiscard]] std::vector<MetricRow> snapshot() const;

  // Current value of the named counter, or 0 when no counter row has that
  // name (a retired name, a gauge, or any name in a -DCSQ_OBS=OFF build).
  [[nodiscard]] std::int64_t counter_value(const std::string& name) const;

  // Flat JSON object, one member per metric. Shape documented in
  // docs/observability.md.
  [[nodiscard]] std::string metrics_json() const;

  // Zero every metric. Test isolation only.
  void reset();

 private:
  constexpr Registry() = default;

  static constexpr std::size_t index(Name n) { return static_cast<std::size_t>(n); }

  // One cache line per row, so counters bumped from different threads do
  // not share a line. A row uses only the member of its kind.
  struct alignas(64) Cell {
    Counter counter;
    Gauge gauge;
  };

  friend class DeltaScope;

  std::array<Cell, kNameCount> cells_{};
};

// Copies every counter's value at construction (one int64 per catalog row,
// no lock); delta() reports the increments since, materialising names only
// for the counters that moved. Cheap next to a solve, not next to an inner
// loop, so use it at analysis granularity.
class DeltaScope {
 public:
  DeltaScope();
  [[nodiscard]] MetricsDelta delta() const;

 private:
  std::array<std::int64_t, kNameCount> base_{};
};

}  // namespace csq::obs

// Statement macros that compose with if/else without braces.
#ifndef CSQ_OBS_DISABLED

#define CSQ_OBS_COUNT(name) \
  ::csq::obs::Registry::instance().counter<CSQ_OBS_NAME_(name, kCounter)>().add(1)

#define CSQ_OBS_COUNT_N(name, n)                                          \
  ::csq::obs::Registry::instance().counter<CSQ_OBS_NAME_(name, kCounter)>().add( \
      static_cast<std::int64_t>(n))

#define CSQ_OBS_GAUGE_SET(name, v)                                      \
  ::csq::obs::Registry::instance().gauge<CSQ_OBS_NAME_(name, kGauge)>().set( \
      static_cast<double>(v))

#else  // CSQ_OBS_DISABLED: the name is still checked, nothing is counted.
       // The value argument sits under an unevaluated sizeof so a variable
       // counted only for obs does not become "set but unused".

#define CSQ_OBS_COUNT(name) ((void)CSQ_OBS_NAME_(name, kCounter))
#define CSQ_OBS_COUNT_N(name, n) ((void)CSQ_OBS_NAME_(name, kCounter), (void)sizeof(n))
#define CSQ_OBS_GAUGE_SET(name, v) ((void)CSQ_OBS_NAME_(name, kGauge), (void)sizeof(v))

#endif  // CSQ_OBS_DISABLED
