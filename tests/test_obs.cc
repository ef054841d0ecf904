// Observability subsystem: counter atomicity under the worker pool,
// span nesting and thread attribution, the Chrome-trace JSON schema, the
// name catalogs against their docs tables, and the disabled-build contract
// (-DCSQ_OBS=OFF). Builds as its own binary so the ThreadSanitizer stage can
// gate just it: `ctest -L obs`. Every test branches on obs::compiled_in(),
// so one suite covers both build flavours.
//
// Sites here bump real catalog rows (the macros accept nothing else); each
// test reads differences, so the rows' production traffic does not matter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/resilient.h"
#include "core/config.h"
#include "core/deadline.h"
#include "core/faultpoint.h"
#include "core/name_table.h"
#include "core/status.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/task_pool.h"
#include "qbd/qbd.h"

namespace {

using namespace csq;

// --- Counters / gauges / histograms ---------------------------------------

TEST(ObsCounters, ParallelIncrementsAreExact) {
  obs::Counter& c = obs::Registry::instance().counter<obs::Name::kSweepPanelCells>();
  const std::int64_t before = c.value();
  constexpr std::size_t kIters = 20000;
  par::parallel_for(kIters, /*threads=*/4,
                    [](std::size_t) { CSQ_OBS_COUNT(kSweepPanelCells); });
  const std::int64_t moved = c.value() - before;
  EXPECT_EQ(moved, obs::compiled_in() ? static_cast<std::int64_t>(kIters) : 0);
}

TEST(ObsCounters, CountNAddsTheGivenAmount) {
  obs::Counter& c = obs::Registry::instance().counter<obs::Name::kMg1ErlangTerms>();
  const std::int64_t before = c.value();
  CSQ_OBS_COUNT_N(kMg1ErlangTerms, 7);
  CSQ_OBS_COUNT_N(kMg1ErlangTerms, 5);
  EXPECT_EQ(c.value() - before, obs::compiled_in() ? 12 : 0);
}

TEST(ObsCounters, GaugeIsLastWriteWins) {
  obs::Gauge& g = obs::Registry::instance().gauge<obs::Name::kServeQueueDepth>();
  g.reset();
  CSQ_OBS_GAUGE_SET(kServeQueueDepth, 3);
  CSQ_OBS_GAUGE_SET(kServeQueueDepth, 1);
  EXPECT_DOUBLE_EQ(g.value(), obs::compiled_in() ? 1.0 : 0.0);
}

// No catalog row observes a distribution yet, so the type is exercised
// directly.
TEST(ObsCounters, HistogramTracksCountSumMinMax) {
  obs::Histogram h;
  // Empty histogram: min/max clamp their infinity sentinels to 0.
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(4.0);
  h.observe(-2.0);
  h.observe(9.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 11.0);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
}

TEST(ObsCounters, MetricsJsonListsRegisteredMetrics) {
  const std::string json = obs::Registry::instance().metrics_json();
  // Same number of opening and closing braces — cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  const std::vector<obs::MetricRow> rows = obs::Registry::instance().snapshot();
  if (!obs::compiled_in()) {
    EXPECT_TRUE(rows.empty());
    return;
  }
  // Every counter and gauge row is listed, zero or not; spans are trace-only.
  for (const obs::CatalogRow& row : obs::kCatalog) {
    const bool listed = json.find("\"" + std::string(row.name) + "\":") != std::string::npos;
    EXPECT_EQ(listed, row.kind != obs::MetricKind::kSpan) << row.name;
  }
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.name < b.name;
  }));
}

// The by-name read that tooling outside src/ relies on: a counter row reads
// its value; a retired name, a gauge or a span reads 0.
TEST(ObsCounters, CounterValueReadsCounterRowsByName) {
  obs::Registry& reg = obs::Registry::instance();
  const std::int64_t before = reg.counter_value("sim.reps.rounds");
  reg.counter<obs::Name::kSimRepsRounds>().add(2);
  EXPECT_EQ(reg.counter_value("sim.reps.rounds") - before, obs::compiled_in() ? 2 : 0);
  reg.gauge<obs::Name::kResilientRungUsed>().set(2.0);
  for (const char* zero : {"dist.fit.cache_hits", "resilient.rung.used", "sim.engine.run", ""})
    EXPECT_EQ(reg.counter_value(zero), 0) << zero;
}

// --- DeltaScope ------------------------------------------------------------

TEST(ObsDelta, ReportsOnlyCountersThatMoved) {
  const obs::DeltaScope scope;
  CSQ_OBS_COUNT_N(kSimPolicySteals, 7);
  const obs::MetricsDelta d = scope.delta();
  if (obs::compiled_in()) {
    EXPECT_EQ(d.value("sim.policy.steals"), 7);
    EXPECT_EQ(d.value("sim.policy.shares"), 0);
    for (const auto& [name, v] : d.values) EXPECT_NE(v, 0) << name;
  } else {
    EXPECT_TRUE(d.empty());
  }
}

TEST(ObsDelta, AnalysisDeltaIsConsistentWithSolveStats) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 10.0, 1.0);
  const obs::DeltaScope scope;
  const analysis::CscqResult r = analysis::analyze_cscq(c);
  const obs::MetricsDelta delta = scope.delta();
  if (!obs::compiled_in()) {
    EXPECT_TRUE(delta.empty());
    return;
  }
  // Exactly one QBD solve backs a CS-CQ analysis; its doubling-step count
  // must agree with the obs counter.
  EXPECT_EQ(delta.value("qbd.solve.calls"), 1);
  EXPECT_EQ(delta.value("qbd.logred.doublings"), r.chain.stats.iterations);
}

TEST(ObsDelta, ValuesAreSortedByName) {
  obs::Registry& reg = obs::Registry::instance();
  const obs::DeltaScope scope;
  // Moved in reverse name order.
  reg.counter<obs::Name::kSweepPointsFailed>().add(1);
  reg.counter<obs::Name::kSimEngineEvents>().add(1);
  reg.counter<obs::Name::kDurableJournalTorn>().add(1);
  const obs::MetricsDelta d = scope.delta();
  if (!obs::compiled_in()) {
    EXPECT_TRUE(d.empty());
    return;
  }
  ASSERT_EQ(d.values.size(), 3U);
  EXPECT_EQ(d.values[0].first, "durable.journal.torn");
  EXPECT_EQ(d.values[1].first, "sim.engine.events");
  EXPECT_EQ(d.values[2].first, "sweep.points.failed");
}

TEST(ObsDelta, NestedScopesBothSeeTheInnerIncrements) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 10.0, 1.0);
  std::int64_t one_cscq = 0;
  {
    const obs::DeltaScope single;
    (void)analysis::analyze_cscq(c);
    one_cscq = single.delta().value("qbd.logred.doublings");
  }
  // Two scopes deep: the outer one, and an inner one around the ladder
  // (whose exact rung runs analyze_cscq).
  const obs::DeltaScope outer;
  const obs::DeltaScope inner;
  const analysis::ResilientResult r = analysis::analyze_resilient(c);
  const obs::MetricsDelta ladder = inner.delta();
  const obs::MetricsDelta d = outer.delta();
  ASSERT_EQ(r.rung_used, analysis::Rung::kExact);
  if (!obs::compiled_in()) {
    EXPECT_TRUE(ladder.empty());
    return;
  }
  ASSERT_GT(one_cscq, 0);
  EXPECT_EQ(ladder.value("qbd.logred.doublings"), one_cscq);
  EXPECT_EQ(d.value("qbd.logred.doublings"), one_cscq);
  EXPECT_TRUE(std::is_sorted(ladder.values.begin(), ladder.values.end()));
  // Nothing else ran, so the outer scope saw exactly the ladder's counters.
  EXPECT_EQ(d.values, ladder.values);
}

TEST(ObsDelta, ScopesRaceBumps) {
  // Writers bump counters while readers open and close scopes; under the
  // TSan build (`ctest -L obs`) this is the race gate for the registry's
  // counter array.
  constexpr int kReaders = 2, kBumps = 64, kScopes = 200;
  obs::Registry& reg = obs::Registry::instance();
  const obs::DeltaScope before_all;
  std::vector<std::thread> threads;
  threads.emplace_back([&reg] {
    for (int i = 0; i < kBumps; ++i) reg.counter<obs::Name::kSimRepsTotal>().add(i + 1);
  });
  threads.emplace_back([&reg] {
    for (int i = 0; i < kBumps; ++i) reg.counter<obs::Name::kSimEngineArrivals>().add(i + 1);
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
  const std::int64_t total = obs::compiled_in() ? kBumps * (kBumps + 1) / 2 : 0;
  EXPECT_EQ(d.value("sim.reps.total"), total);
  EXPECT_EQ(d.value("sim.engine.arrivals"), total);
}

// --- The name catalogs ------------------------------------------------------

struct TestRow {
  const char* name;
};

TEST(ObsCatalog, NameGrammarAndOrderAreCheckedAtCompileTime) {
  static_assert(names::well_formed("qbd.solve.calls"));
  static_assert(names::well_formed("serve.codec.invalid_burst"));
  static_assert(names::well_formed("mg1.pk.wait"));
  static_assert(!names::well_formed("qbd.solve"));           // two segments
  static_assert(!names::well_formed("qbd.solve.calls.x"));   // four segments
  static_assert(!names::well_formed("Qbd.solve.calls"));     // uppercase
  static_assert(!names::well_formed("qbd..calls"));          // empty segment
  static_assert(!names::well_formed("qbd.solve.1calls"));    // digit first
  static_assert(!names::well_formed("qbd.solve.calls."));    // trailing dot
  static_assert(!names::well_formed(""));
  static constexpr TestRow kSorted[] = {{"a.b.c"}, {"a.b.d"}, {"b.a.a"}};
  static constexpr TestRow kDuplicate[] = {{"a.b.c"}, {"a.b.c"}};
  static constexpr TestRow kUnsorted[] = {{"b.a.a"}, {"a.b.c"}};
  static_assert(names::strictly_ascending(kSorted));
  static_assert(!names::strictly_ascending(kDuplicate));
  static_assert(!names::strictly_ascending(kUnsorted));
  static_assert(names::find(kSorted, "a.b.d") == 1);
  static_assert(names::find(kSorted, "a.b") == 3);
  EXPECT_EQ(names::find(obs::kCatalog, "qbd.solve.calls"),
            static_cast<std::size_t>(obs::Name::kQbdSolveCalls));
  EXPECT_EQ(names::find(fault::kSites, "qbd.solve.boundary"),
            static_cast<std::size_t>(fault::Site::kQbdSolveBoundary));
}

std::string slurp(const std::string& rel) {
  std::ifstream in(std::string(CSQ_SOURCE_DIR) + "/" + rel);
  EXPECT_TRUE(in.good()) << rel << " not found under " << CSQ_SOURCE_DIR;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(' ');
  const std::size_t e = s.find_last_not_of(' ');
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

// The catalog table of one docs section: the markdown table under the first
// heading that starts with `heading`, whose header's first cell is `key`.
// Maps each row's backticked name to its second cell.
std::map<std::string, std::string> docs_table(const std::string& rel, const std::string& heading,
                                              const std::string& key) {
  std::map<std::string, std::string> rows;
  std::istringstream in(slurp(rel));
  std::string line;
  bool in_section = false, in_table = false;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      if (in_section) break;
      in_section = line.rfind(heading, 0) == 0;
      continue;
    }
    if (!in_section) continue;
    if (line.rfind("|", 0) != 0) {
      if (in_table) break;
      continue;
    }
    std::vector<std::string> cells;
    std::istringstream cs(line.substr(1));
    for (std::string cell; std::getline(cs, cell, '|');) cells.push_back(trim(cell));
    if (!in_table) {
      in_table = !cells.empty() && cells[0] == key;
      continue;
    }
    if (cells.size() < 2 || cells[0].find_first_not_of("-:") == std::string::npos) continue;
    const std::string& name = cells[0];
    const bool one_name = name.size() > 2 && name.front() == '`' && name.back() == '`' &&
                          std::count(name.begin(), name.end(), '`') == 2;
    EXPECT_TRUE(one_name) << rel << ": a catalog row names one `name`: " << line;
    if (one_name) rows[name.substr(1, name.size() - 2)] = cells[1];
  }
  EXPECT_FALSE(rows.empty()) << rel << ": no `" << key << "` table under " << heading;
  return rows;
}

const char* kind_name(obs::MetricKind kind) {
  switch (kind) {
    case obs::MetricKind::kCounter: return "counter";
    case obs::MetricKind::kGauge: return "gauge";
    case obs::MetricKind::kSpan: return "span";
  }
  return "?";
}

// The docs catalogs are the user-facing copies of the two tables: every row
// appears in its docs table (obs rows with their kind), and every name a
// docs table lists is a row. serve.* rows live in docs/serving.md §6.
TEST(ObsCatalog, DocsTablesMatchEveryRow) {
  const std::map<std::string, std::string> general =
      docs_table("docs/observability.md", "## Metric catalog", "name");
  const std::map<std::string, std::string> serve =
      docs_table("docs/serving.md", "## 6. Observability catalog", "name");
  const std::map<std::string, std::string> sites =
      docs_table("docs/robustness.md", "## 8. Deterministic fault injection", "site");
  for (const obs::CatalogRow& row : obs::kCatalog) {
    const std::string name = row.name;
    const auto& docs = name.rfind("serve.", 0) == 0 ? serve : general;
    const auto it = docs.find(name);
    if (it == docs.end()) {
      ADD_FAILURE() << "obs row missing from its docs table: " << name;
      continue;
    }
    EXPECT_EQ(it->second, kind_name(row.kind)) << name;
  }
  for (const auto& docs : {general, serve})
    for (const auto& [name, kind] : docs)
      EXPECT_NE(names::find(obs::kCatalog, name), obs::kNameCount)
          << "docs list an obs name the catalog lacks: " << name;
  for (const auto& [name, kind] : serve) EXPECT_EQ(name.rfind("serve.", 0), 0u) << name;
  for (const auto& [name, kind] : general) EXPECT_NE(name.rfind("serve.", 0), 0u) << name;

  for (const fault::SiteRow& row : fault::kSites)
    EXPECT_EQ(sites.count(row.name), 1u) << "fault site missing from docs: " << row.name;
  for (const auto& [name, where] : sites)
    EXPECT_NE(names::find(fault::kSites, name), fault::kSiteCount)
        << "docs list a fault site the table lacks: " << name;
}

// The tables give every name one meaning; this gives every row one call
// site in src/: no row is dead, and none is counted or armed from two places.
TEST(ObsCatalog, EveryRowHasExactlyOneSite) {
  struct Enumerator {
    const char* token;
    const char* name;
  };
#define CSQ_TEST_ENUMERATOR_(e, name, kind) {#e, name},
  static constexpr Enumerator kObs[] = {CSQ_OBS_CATALOG(CSQ_TEST_ENUMERATOR_)};
  static constexpr Enumerator kFault[] = {CSQ_FAULT_SITES(CSQ_TEST_ENUMERATOR_)};
#undef CSQ_TEST_ENUMERATOR_
  // Counts each `MACRO(kName` in `line` under kName. A plain scan, not
  // std::regex: GCC 12's <regex> trips -Werror=maybe-uninitialized in the
  // ASan+UBSan build.
  const auto count_sites = [](const std::string& line, std::initializer_list<const char*> macros,
                              std::map<std::string, int>& sites) {
    for (const char* macro : macros) {
      const std::string call = std::string(macro) + "(";
      for (std::size_t at = line.find(call); at != std::string::npos;
           at = line.find(call, at + 1)) {
        std::size_t b = at + call.size();
        while (b < line.size() && std::isspace(static_cast<unsigned char>(line[b]))) ++b;
        std::size_t e = b;
        while (e < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[e])) || line[e] == '_'))
          ++e;
        if (e > b + 1 && line[b] == 'k') ++sites[line.substr(b, e - b)];
      }
    }
  };
  std::map<std::string, int> obs_sites, fault_sites;
  namespace fs = std::filesystem;
  for (const fs::directory_entry& e :
       fs::recursive_directory_iterator(fs::path(CSQ_SOURCE_DIR) / "src")) {
    const std::string ext = e.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    std::ifstream in(e.path());
    for (std::string line; std::getline(in, line);) {
      line = line.substr(0, line.find("//"));  // header comments show examples
      count_sites(line,
                  {"CSQ_OBS_COUNT_N", "CSQ_OBS_COUNT", "CSQ_OBS_GAUGE_SET", "CSQ_OBS_HIST",
                   "CSQ_OBS_SPAN"},
                  obs_sites);
      count_sites(line, {"CSQ_FAULT_POINT", "CSQ_FAULT_POINT_MATRIX"}, fault_sites);
    }
  }
  for (const Enumerator& row : kObs) EXPECT_EQ(obs_sites[row.token], 1) << row.name;
  for (const Enumerator& row : kFault) EXPECT_EQ(fault_sites[row.token], 1) << row.name;
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
    CSQ_OBS_SPAN(kAnalysisResilientLadder);
    timebase::advance_virtual_ns(2'000'000);
    {
      CSQ_OBS_SPAN(kAnalysisCscqAnalyze);
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
  EXPECT_EQ(evs[0].name, "analysis.resilient.ladder");
  EXPECT_EQ(evs[1].name, "analysis.cscq.analyze");
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
    CSQ_OBS_SPAN(kSweepPanelRun);
  }
  EXPECT_TRUE(obs::trace_events().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST_F(ObsTrace, PoolWorkersGetStableThreadAttribution) {
  obs::set_tracing(true);
  constexpr std::size_t kSpans = 16;
  par::parallel_for(kSpans, /*threads=*/4, [](std::size_t) {
    CSQ_OBS_SPAN(kSweepPointEvaluate);
    timebase::advance_virtual_ns(1000);
  });
  const std::vector<obs::TraceEvent> evs = obs::trace_events();
  if (!obs::compiled_in()) {
    EXPECT_TRUE(evs.empty());
    return;
  }
  ASSERT_EQ(evs.size(), kSpans);
  for (const obs::TraceEvent& e : evs) {
    EXPECT_EQ(e.name, "sweep.point.evaluate");
    EXPECT_EQ(e.depth, 0);  // top-level on its worker
    EXPECT_GE(e.tid, 0);
  }
}

TEST_F(ObsTrace, ChromeJsonSchemaIsLoadable) {
  obs::set_tracing(true);
  {
    CSQ_OBS_SPAN(kSimEngineRun);
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
  EXPECT_NE(json.find("\"name\": \"sim.engine.run\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"csq\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
}

TEST_F(ObsTrace, ClearTraceEmptiesTheBuffer) {
  obs::set_tracing(true);
  {
    CSQ_OBS_SPAN(kQbdSolveBoundary);
  }
  obs::clear_trace();
  EXPECT_TRUE(obs::trace_events().empty());
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

}  // namespace
