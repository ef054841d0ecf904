// Observability subsystem: counter atomicity under the worker pool,
// span nesting and thread attribution, the Chrome-trace JSON schema, and
// the disabled-build contract (-DCSQ_OBS=OFF). Builds as its own binary so
// the ThreadSanitizer stage can gate just it: `ctest -L obs`. Every test
// branches on obs::compiled_in(), so one suite covers both build flavours.
//
// Metric names here use scratch "test.obs.*" names — lint rule R10 exempts
// tests/ from the one-call-site-per-name rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/resilient.h"
#include "core/config.h"
#include "core/deadline.h"
#include "core/status.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/task_pool.h"
#include "qbd/qbd.h"

namespace {

using namespace csq;

// --- Counters / gauges / histograms ---------------------------------------

TEST(ObsCounters, ParallelIncrementsAreExact) {
  obs::Counter& c = obs::Registry::instance().counter("test.obs.parallel");
  const std::int64_t before = c.value();
  constexpr std::size_t kIters = 20000;
  par::parallel_for(kIters, /*threads=*/4,
                    [](std::size_t) { CSQ_OBS_COUNT("test.obs.parallel"); });
  const std::int64_t moved = c.value() - before;
  EXPECT_EQ(moved, obs::compiled_in() ? static_cast<std::int64_t>(kIters) : 0);
}

TEST(ObsCounters, CountNAddsTheGivenAmount) {
  obs::Counter& c = obs::Registry::instance().counter("test.obs.countn");
  const std::int64_t before = c.value();
  CSQ_OBS_COUNT_N("test.obs.countn", 7);
  CSQ_OBS_COUNT_N("test.obs.countn", 5);
  EXPECT_EQ(c.value() - before, obs::compiled_in() ? 12 : 0);
}

TEST(ObsCounters, GaugeIsLastWriteWins) {
  obs::Gauge& g = obs::Registry::instance().gauge("test.obs.gauge");
  CSQ_OBS_GAUGE_SET("test.obs.gauge", 3);
  CSQ_OBS_GAUGE_SET("test.obs.gauge", 1);
  EXPECT_DOUBLE_EQ(g.value(), obs::compiled_in() ? 1.0 : 0.0);
}

TEST(ObsCounters, HistogramTracksCountSumMinMax) {
  obs::Histogram& h = obs::Registry::instance().histogram("test.obs.hist");
  h.reset();
  // Empty histogram: min/max clamp their infinity sentinels to 0.
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  CSQ_OBS_HIST("test.obs.hist", 4.0);
  CSQ_OBS_HIST("test.obs.hist", -2.0);
  CSQ_OBS_HIST("test.obs.hist", 9.0);
  if (obs::compiled_in()) {
    EXPECT_EQ(h.count(), 3);
    EXPECT_DOUBLE_EQ(h.sum(), 11.0);
    EXPECT_DOUBLE_EQ(h.min(), -2.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.0);
  } else {
    EXPECT_EQ(h.count(), 0);
  }
}

TEST(ObsCounters, KindMismatchThrowsInternalError) {
  // Direct Registry calls work in both build flavours (only the macros
  // compile out), so the kind check is always enforceable.
  (void)obs::Registry::instance().counter("test.obs.kindclash");
  EXPECT_THROW((void)obs::Registry::instance().gauge("test.obs.kindclash"), InternalError);
  EXPECT_THROW((void)obs::Registry::instance().histogram("test.obs.kindclash"), InternalError);
  // Same kind again is fine and returns the same handle.
  obs::Counter& a = obs::Registry::instance().counter("test.obs.kindclash");
  obs::Counter& b = obs::Registry::instance().counter("test.obs.kindclash");
  EXPECT_EQ(&a, &b);
}

TEST(ObsCounters, MetricsJsonListsRegisteredMetrics) {
  (void)obs::Registry::instance().counter("test.obs.jsonname");
  (void)obs::Registry::instance().histogram("test.obs.jsonhist");
  const std::string json = obs::Registry::instance().metrics_json();
  EXPECT_NE(json.find("\"test.obs.jsonname\":"), std::string::npos);
  // Histograms nest their four statistics.
  const std::size_t at = json.find("\"test.obs.jsonhist\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"count\":", at), std::string::npos);
  EXPECT_NE(json.find("\"sum\":", at), std::string::npos);
  // Same number of opening and closing braces — cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// --- DeltaScope ------------------------------------------------------------

TEST(ObsDelta, ReportsOnlyCountersThatMoved) {
  (void)obs::Registry::instance().counter("test.obs.still");
  const obs::DeltaScope scope;
  CSQ_OBS_COUNT_N("test.obs.moved", 7);
  const obs::MetricsDelta d = scope.delta();
  if (obs::compiled_in()) {
    EXPECT_EQ(d.value("test.obs.moved"), 7);
    EXPECT_EQ(d.value("test.obs.still"), 0);
    for (const auto& [name, v] : d.values) EXPECT_NE(v, 0) << name;
  } else {
    EXPECT_TRUE(d.empty());
  }
}

TEST(ObsDelta, AnalysisDeltaIsConsistentWithSolveStats) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 10.0, 1.0);
  const analysis::CscqResult r = analysis::analyze_cscq(c);
  if (!obs::compiled_in()) {
    EXPECT_TRUE(r.obs_metrics.empty());
    return;
  }
  // Exactly one QBD solve backs a CS-CQ analysis; its winning-stage
  // iteration count must agree with the obs counter for that stage.
  EXPECT_EQ(r.obs_metrics.value("qbd.solve.calls"), 1);
  if (r.solve_stats.method == qbd::RMethod::kFunctionalIteration) {
    EXPECT_EQ(r.obs_metrics.value("qbd.fi.iterations"), r.solve_stats.iterations);
  }
  // to_diagnostics folds the solver-loop counters into `iterations`.
  const Diagnostics d = r.obs_metrics.to_diagnostics();
  EXPECT_GE(d.iterations, r.solve_stats.iterations);
  EXPECT_FALSE(d.notes.empty());
}

// Tests that bump counters through Registry calls (not the macros) need no
// compiled_in() branch: those register in every build flavour.
TEST(ObsDelta, CounterRegisteredInsideTheScopeCountsFromZero) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("test.obs.early").add(3);
  const obs::DeltaScope scope;
  reg.counter("test.obs.early").add(2);
  reg.counter("test.obs.late").add(5);
  const obs::MetricsDelta d = scope.delta();
  EXPECT_EQ(d.value("test.obs.early"), 2);
  EXPECT_EQ(d.value("test.obs.late"), 5);
}

TEST(ObsDelta, ValuesAreSortedByName) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::DeltaScope scope;
  // Registered (and moved) in reverse name order.
  for (const char* name : {"test.obs.zz", "test.obs.mm", "test.obs.aa"}) reg.counter(name).add(1);
  const obs::MetricsDelta d = scope.delta();
  ASSERT_EQ(d.values.size(), 3U);
  EXPECT_EQ(d.values[0].first, "test.obs.aa");
  EXPECT_EQ(d.values[1].first, "test.obs.mm");
  EXPECT_EQ(d.values[2].first, "test.obs.zz");
}

TEST(ObsDelta, NestedScopesBothSeeTheInnerIncrements) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 10.0, 1.0);
  const std::int64_t one_cscq = analysis::analyze_cscq(c).obs_metrics.value("qbd.fi.iterations");
  // Three scopes deep: this one, analyze_resilient's, and the exact rung's
  // analyze_cscq inside it.
  const obs::DeltaScope outer;
  const analysis::ResilientResult r = analysis::analyze_resilient(c);
  const obs::MetricsDelta d = outer.delta();
  ASSERT_EQ(r.rung_used, analysis::Rung::kExact);
  if (!obs::compiled_in()) {
    EXPECT_TRUE(r.obs_metrics.empty());
    return;
  }
  ASSERT_GT(one_cscq, 0);
  EXPECT_EQ(r.obs_metrics.value("qbd.fi.iterations"), one_cscq);
  EXPECT_EQ(d.value("qbd.fi.iterations"), one_cscq);
  EXPECT_TRUE(std::is_sorted(r.obs_metrics.values.begin(), r.obs_metrics.values.end()));
  // Nothing else ran, so the outer scope saw exactly the ladder's counters.
  EXPECT_EQ(d.values, r.obs_metrics.values);
}

TEST(ObsDelta, ScopesRaceRegistrationsAndBumps) {
  // Writers register fresh counters and bump them while readers open and
  // close scopes; under the TSan build (`ctest -L obs`) this is the race
  // gate for the registry's counter list.
  constexpr int kWriters = 2, kReaders = 2, kCountersPerWriter = 64, kScopes = 200;
  obs::Registry& reg = obs::Registry::instance();
  const obs::DeltaScope before_all;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&reg, w] {
      for (int i = 0; i < kCountersPerWriter; ++i)
        reg.counter("test.obs.race" + std::to_string(w) + "_" + std::to_string(i)).add(i + 1);
    });
  std::atomic<int> bad{0};
  for (int r = 0; r < kReaders; ++r)
    threads.emplace_back([&bad] {
      for (int s = 0; s < kScopes; ++s) {
        const obs::DeltaScope scope;
        const obs::MetricsDelta d = scope.delta();
        // Counters only grow here, so every reported increment is positive.
        for (const auto& [name, v] : d.values)
          if (v <= 0) bad.fetch_add(1, std::memory_order_relaxed);
        if (!std::is_sorted(d.values.begin(), d.values.end()))
          bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  const obs::MetricsDelta d = before_all.delta();
  for (int w = 0; w < kWriters; ++w)
    for (int i = 0; i < kCountersPerWriter; ++i)
      EXPECT_EQ(d.value("test.obs.race" + std::to_string(w) + "_" + std::to_string(i)), i + 1);
}

// --- Span tracing ----------------------------------------------------------

// Restores a clean trace state around each test (tracing off, buffer empty,
// virtual clock zeroed) so span tests cannot leak into each other or into
// deadline-sensitive suites.
class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::clear_trace();
    timebase::reset_virtual();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::clear_trace();
    timebase::reset_virtual();
  }
};

TEST_F(ObsTrace, NestedSpansRecordDepthAndEnclosedDurations) {
  obs::set_tracing(true);
  {
    CSQ_OBS_SPAN("test.span.outer");
    timebase::advance_virtual_ns(2'000'000);
    {
      CSQ_OBS_SPAN("test.span.inner");
      timebase::advance_virtual_ns(1'000'000);
    }
  }
  const std::vector<obs::TraceEvent> evs = obs::trace_events();
  if (!obs::compiled_in()) {
    EXPECT_TRUE(evs.empty());
    return;
  }
  ASSERT_EQ(evs.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_EQ(evs[0].name, "test.span.outer");
  EXPECT_EQ(evs[1].name, "test.span.inner");
  EXPECT_EQ(evs[0].depth, 0);
  EXPECT_EQ(evs[1].depth, 1);
  EXPECT_EQ(evs[0].tid, evs[1].tid);
  // The virtual clock makes the durations exact lower bounds.
  EXPECT_GE(evs[0].dur_ns, 3'000'000);
  EXPECT_GE(evs[1].dur_ns, 1'000'000);
  // Parent encloses child.
  EXPECT_LE(evs[0].start_ns, evs[1].start_ns);
  EXPECT_GE(evs[0].start_ns + evs[0].dur_ns, evs[1].start_ns + evs[1].dur_ns);
}

TEST_F(ObsTrace, SpansRecordNothingWhileTracingIsOff) {
  {
    CSQ_OBS_SPAN("test.span.silent");
  }
  EXPECT_TRUE(obs::trace_events().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST_F(ObsTrace, PoolWorkersGetStableThreadAttribution) {
  obs::set_tracing(true);
  constexpr std::size_t kSpans = 16;
  par::parallel_for(kSpans, /*threads=*/4, [](std::size_t) {
    CSQ_OBS_SPAN("test.span.worker");
    timebase::advance_virtual_ns(1000);
  });
  const std::vector<obs::TraceEvent> evs = obs::trace_events();
  if (!obs::compiled_in()) {
    EXPECT_TRUE(evs.empty());
    return;
  }
  ASSERT_EQ(evs.size(), kSpans);
  for (const obs::TraceEvent& e : evs) {
    EXPECT_EQ(e.name, "test.span.worker");
    EXPECT_EQ(e.depth, 0);  // top-level on its worker
    EXPECT_GE(e.tid, 0);
  }
}

TEST_F(ObsTrace, ChromeJsonSchemaIsLoadable) {
  obs::set_tracing(true);
  {
    CSQ_OBS_SPAN("test.span.schema");
    timebase::advance_virtual_ns(500'000);
  }
  const std::string json = obs::chrome_trace_json();
  // The envelope is present in both build flavours (empty event list when
  // obs is compiled out).
  EXPECT_NE(json.find("{\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  if (!obs::compiled_in()) return;
  // One complete event with the fields chrome://tracing requires.
  EXPECT_NE(json.find("\"name\": \"test.span.schema\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"csq\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
}

TEST_F(ObsTrace, ClearTraceEmptiesTheBuffer) {
  obs::set_tracing(true);
  {
    CSQ_OBS_SPAN("test.span.cleared");
  }
  obs::clear_trace();
  EXPECT_TRUE(obs::trace_events().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

}  // namespace
