// Metamorphic / property tests for the exact analysis, cross-checked
// against the simulator and the obs counters.
//
// Unlike the golden pins (tests/test_golden_figures.cc), nothing here is a
// committed number: each test asserts a *relation* the paper proves or the
// architecture guarantees — cycle stealing cannot hurt the short class,
// response times are monotone in offered load, analysis and simulation
// agree within simulation noise, and the obs counters attached to every
// result actually reflect the work performed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/dedicated.h"
#include "core/config.h"
#include "core/solver.h"
#include "core/sweep.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace {

using namespace csq;

// --- Dominance: shorts can only gain from cycle stealing --------------------

// Paper, Section 1: "the short jobs benefit immensely ... while the long
// jobs are only slightly penalized." The benefit direction is a theorem:
// under CS-CQ the shorts get a second (partial) server, so their mean
// response can never exceed Dedicated's at the same loads.
TEST(Properties, CscqShortsNeverWorseThanDedicated) {
  for (const double rho_l : {0.3, 0.5}) {
    for (const double rho_s : {0.3, 0.6, 0.9}) {
      SCOPED_TRACE("rho_s=" + std::to_string(rho_s) + " rho_l=" + std::to_string(rho_l));
      const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 10.0, 1.0);
      const double cscq = analysis::analyze_cscq(c).metrics.shorts.mean_response;
      const double ded = analysis::analyze_dedicated(c).shorts.mean_response;
      EXPECT_LE(cscq, ded * (1.0 + 1e-9));
    }
  }
}

// CS-CQ also dominates CS-ID for shorts (the central queue lets a short
// grab the long host even when a long is merely queued, not in service).
TEST(Properties, CscqShortsNeverWorseThanCsid) {
  for (const double rho_s : {0.5, 0.9, 1.2}) {
    SCOPED_TRACE("rho_s=" + std::to_string(rho_s));
    const SystemConfig c = SystemConfig::paper_setup(rho_s, 0.5, 1.0, 10.0, 1.0);
    const double cscq = analysis::analyze_cscq(c).metrics.shorts.mean_response;
    const double csid = analysis::analyze_csid(c).metrics.shorts.mean_response;
    EXPECT_LE(cscq, csid * (1.0 + 1e-9));
  }
}

// --- Monotonicity in offered load -------------------------------------------

TEST(Properties, CscqResponsesMonotoneInRhoS) {
  double prev_short = 0.0;
  double prev_long = 0.0;
  for (const double rho_s : {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4}) {
    SCOPED_TRACE("rho_s=" + std::to_string(rho_s));
    const SystemConfig c = SystemConfig::paper_setup(rho_s, 0.5, 1.0, 10.0, 1.0);
    const PolicyMetrics m = analysis::analyze_cscq(c).metrics;
    // Short response strictly grows with short load; the long penalty grows
    // too (more stolen cycles to hand back), though far more slowly.
    EXPECT_GT(m.shorts.mean_response, prev_short);
    EXPECT_GE(m.longs.mean_response, prev_long);
    prev_short = m.shorts.mean_response;
    prev_long = m.longs.mean_response;
  }
}

TEST(Properties, CscqShortResponseMonotoneInRhoL) {
  // More long-job load means fewer stealable cycles: shorts slow down.
  double prev = 0.0;
  for (const double rho_l : {0.1, 0.3, 0.5, 0.7}) {
    SCOPED_TRACE("rho_l=" + std::to_string(rho_l));
    const SystemConfig c = SystemConfig::paper_setup(0.9, rho_l, 1.0, 10.0, 1.0);
    const double t = analysis::analyze_cscq(c).metrics.shorts.mean_response;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// --- Analysis vs simulation --------------------------------------------------

// The tolerance is 0.05 m + 2 ci95, with a Student-t ci95 over the
// replications: t(n-1)/sqrt(n) replication SDs, 1.59 at n = 4 but 0.834 at
// n = 8. Eight keep it under the 0.98 of a 4-replication normal CI, so a
// wrong analysis is no likelier to pass than with that CI.
constexpr int kAgreementReplications = 8;

struct AgreementConfig {
  double rho_s, rho_l, mean_l, scv_l;
};

class AnalysisSimAgreement : public ::testing::TestWithParam<AgreementConfig> {};

TEST_P(AnalysisSimAgreement, MeansAgreeWithinSimNoise) {
  const AgreementConfig& g = GetParam();
  const SystemConfig c = SystemConfig::paper_setup(g.rho_s, g.rho_l, 1.0, g.mean_l, g.scv_l);
  const PolicyMetrics m = analysis::analyze_cscq(c).metrics;

  const obs::DeltaScope obs_scope;
  sim::SimOptions sopts;
  sopts.total_completions = 200000;
  sim::ReplicationOptions ropts;
  ropts.replications = kAgreementReplications;
  const sim::ReplicatedResult s = sim::simulate_replications(sim::PolicyKind::kCsCq, c, sopts, ropts);

  EXPECT_NEAR(m.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(m.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);

  // The replication loop is instrumented: one round of exactly
  // `replications` runs, each contributing at least total_completions
  // arrival+completion events.
  const obs::MetricsDelta d = obs_scope.delta();
  if (obs::compiled_in()) {
    EXPECT_EQ(d.value("sim.reps.rounds"), 1);
    EXPECT_EQ(d.value("sim.reps.total"), ropts.replications);
    EXPECT_GT(d.value("sim.engine.events"),
              static_cast<std::int64_t>(ropts.replications * sopts.total_completions));
  } else {
    EXPECT_TRUE(d.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(ThreeConfigs, AnalysisSimAgreement,
                         ::testing::Values(AgreementConfig{0.9, 0.5, 1.0, 1.0},
                                           AgreementConfig{0.9, 0.5, 10.0, 1.0},
                                           AgreementConfig{1.1, 0.5, 10.0, 8.0}),
                         [](const ::testing::TestParamInfo<AgreementConfig>& info) {
                           return "Config" + std::to_string(info.index);
                         });

// --- Policy-zoo dominance properties (`ctest -L properties`) -----------------
//
// Relations among the zoo policies (docs/policies.md), judged on paired
// differences. Replication r of every policy runs on substream
// split_seed(seed, r), whose stream 0 draws all arrivals and sizes, so the
// two policies of a pair serve the same workload (common random numbers).
// The per-replication differences cancel that shared noise, and the
// Student-t 95% CI of their mean is far narrower than either policy's own.
// A strict claim "a beats b" passes only when the upper end of that CI is
// below zero: a one-sided test at level 2.5%.

constexpr int kZooReplications = 8;

// Symmetric unit-mean workload at load `rho` per host, long sizes drawn
// from `family` (the zoo policies are class-blind, so "short"/"long" are
// just two identical Poisson streams here except under kBPareto).
sim::ReplicatedResult run_zoo(sim::PolicyKind kind, double rho,
                              JobSizeDist family = JobSizeDist::kExp) {
  const SystemConfig cfg = family == JobSizeDist::kExp
                               ? SystemConfig::paper_setup(rho, rho, 1.0, 1.0, 1.0)
                               : panel_workload(family, rho, rho, 1.0, 1.0, 1.0);
  sim::SimOptions o;
  o.total_completions = 120000;
  sim::ReplicationOptions r;
  r.replications = kZooReplications;
  return sim::simulate_replications(kind, cfg, o, r);
}

// Overall mean response over both classes (the zoo policies are
// class-blind, so the natural comparison metric is the pooled mean).
double pooled_mean(const sim::SimResult& r) {
  return 0.5 * (r.shorts.mean_response + r.longs.mean_response);
}

// Mean and Student-t 95% half-width of pooled(a_r) - pooled(b_r) over the
// replications r.
sim::ClassStats paired_difference(const sim::ReplicatedResult& a,
                                  const sim::ReplicatedResult& b) {
  EXPECT_EQ(a.replications.size(), b.replications.size());
  std::vector<sim::ClassStats> d;
  for (std::size_t r = 0; r < a.replications.size(); ++r)
    d.push_back({0, pooled_mean(a.replications[r]) - pooled_mean(b.replications[r]), 0.0});
  return sim::aggregate_replications(d);
}

// "a beats b": the whole 95% CI of the paired difference lies below zero.
void expect_beats(const sim::ReplicatedResult& a, const sim::ReplicatedResult& b) {
  const sim::ClassStats d = paired_difference(a, b);
  EXPECT_LT(d.mean_response + d.ci95, 0.0)
      << "paired difference " << d.mean_response << " +- " << d.ci95;
}

// JIQ dispatches to a server it *knows* is idle; random dispatch can queue
// behind a busy server while the other sits empty. Mitzenmacher/Lu's JIQ
// dominance, at symmetric moderate load.
TEST(PolicyProperties, JiqNeverWorseThanRandom) {
  expect_beats(run_zoo(sim::PolicyKind::kJiq, 0.7), run_zoo(sim::PolicyKind::kRandom, 0.7));
}

// With two hosts an idle thief can always steal again, so batch size only
// changes migration timing: steal-half is never worse than steal-one under
// symmetric load. They are near-equal, so this is a no-worse claim: the
// paired difference may exceed zero only by its own CI half-width.
TEST(PolicyProperties, StealHalfNoWorseThanStealOneSymmetric) {
  const sim::ClassStats d = paired_difference(run_zoo(sim::PolicyKind::kStealHalf, 0.7),
                                              run_zoo(sim::PolicyKind::kStealOne, 0.7));
  EXPECT_LE(d.mean_response, d.ci95);
}

// Both stealing flavours beat plain random dispatch outright: moving work
// to an idle server only helps.
TEST(PolicyProperties, StealingBeatsRandomDispatch) {
  const sim::ReplicatedResult random = run_zoo(sim::PolicyKind::kRandom, 0.7);
  for (const sim::PolicyKind k : {sim::PolicyKind::kStealOne, sim::PolicyKind::kStealHalf}) {
    SCOPED_TRACE(sim::policy_name(k));
    expect_beats(run_zoo(k, 0.7), random);
  }
}

// The sharing-vs-stealing crossover, in the frame of Van Houdt's comparison
// (arXiv:1810.13186): under exponential sizes, push-based sharing wins at
// low load (a pushed job rarely lands behind much work) and pull-based
// stealing wins at high load (migration timed to an actually-idle server).
// Under BoundedPareto the picture changes: a pushed job can land behind a
// heavy-tailed monster, so sharing loses its low-load advantage and
// stealing dominates at *every* tested load — the crossover point moves
// off the load axis entirely.
TEST(PolicyProperties, SharingVsStealingCrossoverUnderHeavyTails) {
  {
    SCOPED_TRACE("exponential, low load: sharing beats stealing");
    expect_beats(run_zoo(sim::PolicyKind::kWorkSharing, 0.3),
                 run_zoo(sim::PolicyKind::kStealOne, 0.3));
  }
  {
    SCOPED_TRACE("exponential, high load: stealing beats sharing");
    expect_beats(run_zoo(sim::PolicyKind::kStealOne, 0.9),
                 run_zoo(sim::PolicyKind::kWorkSharing, 0.9));
  }
  {
    SCOPED_TRACE("bounded Pareto, low load: stealing beats sharing");
    expect_beats(run_zoo(sim::PolicyKind::kStealOne, 0.3, JobSizeDist::kBPareto),
                 run_zoo(sim::PolicyKind::kWorkSharing, 0.3, JobSizeDist::kBPareto));
  }
}

// --- Analysis-vs-simulation cross-checks for every analytic policy -----------
//
// CS-CQ is covered by AnalysisSimAgreement above; these close the registry:
// every policy_registry() row with analytic == true has its exact analysis
// checked against replicated simulation at >= 3 operating points, with the
// same 5% + 2 CI tolerance.

struct CrossCheckPoint {
  double rho_s, rho_l, mean_l, scv_l;
};

class AnalyticPolicyCrossCheck : public ::testing::TestWithParam<CrossCheckPoint> {
 protected:
  static sim::ReplicatedResult simulate_policy(sim::PolicyKind kind,
                                               const SystemConfig& c) {
    sim::SimOptions sopts;
    sopts.total_completions = 200000;
    sim::ReplicationOptions ropts;
    ropts.replications = kAgreementReplications;
    return sim::simulate_replications(kind, c, sopts, ropts);
  }
};

TEST_P(AnalyticPolicyCrossCheck, CsidMatchesSimulation) {
  const CrossCheckPoint& g = GetParam();
  const SystemConfig c = SystemConfig::paper_setup(g.rho_s, g.rho_l, 1.0, g.mean_l, g.scv_l);
  const PolicyMetrics m = analysis::analyze_csid(c).metrics;
  const sim::ReplicatedResult s = simulate_policy(sim::PolicyKind::kCsId, c);
  EXPECT_NEAR(m.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(m.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);
}

TEST_P(AnalyticPolicyCrossCheck, DedicatedMatchesSimulation) {
  const CrossCheckPoint& g = GetParam();
  const SystemConfig c = SystemConfig::paper_setup(g.rho_s, g.rho_l, 1.0, g.mean_l, g.scv_l);
  const PolicyMetrics m = analysis::analyze_dedicated(c);
  const sim::ReplicatedResult s = simulate_policy(sim::PolicyKind::kDedicated, c);
  EXPECT_NEAR(m.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(m.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);
}

INSTANTIATE_TEST_SUITE_P(ThreePoints, AnalyticPolicyCrossCheck,
                         ::testing::Values(CrossCheckPoint{0.5, 0.3, 1.0, 1.0},
                                           CrossCheckPoint{0.8, 0.5, 10.0, 1.0},
                                           CrossCheckPoint{0.9, 0.7, 10.0, 4.0}),
                         [](const ::testing::TestParamInfo<CrossCheckPoint>& info) {
                           return "Point" + std::to_string(info.index);
                         });

// --- Time rescaling ----------------------------------------------------------

// Measuring time in other units changes no probability: scaling both mean
// job sizes by c (so every rate scales by 1/c at fixed loads) must scale
// every mean response by exactly c, up to rounding. Both exact analyses are
// checked over a grid that reaches near the CS-CQ frontier, where an R
// solve that stops early leaves errors far above this tolerance.
TEST(Properties, TimeRescalingScalesMeanResponses) {
  constexpr double kRelTol = 1e-11;
  for (const double rho_s : {0.5, 0.9, 1.1, 1.25})
    for (const double rho_l : {0.2, 0.5, 0.7})
      for (const double scv_l : {1.0, 8.0})
        for (const double mean_l : {1.0, 10.0}) {
          const SystemConfig base = SystemConfig::paper_setup(rho_s, rho_l, 1.0, mean_l, scv_l);
          const auto scaled = [&](double c) {
            return SystemConfig::paper_setup(rho_s, rho_l, c, c * mean_l, scv_l);
          };
          const analysis::CscqResult cq = analysis::analyze_cscq(base);
          const AnalyzeOutcome id = try_analyze(Policy::kCsId, base);
          for (const double c : {0.1, 0.5, 3.0, 4.0}) {
            SCOPED_TRACE(std::to_string(rho_s) + "/" + std::to_string(rho_l) + " C2=" +
                         std::to_string(scv_l) + " mean_L=" + std::to_string(mean_l) +
                         " c=" + std::to_string(c));
            const analysis::CscqResult cq_c = analysis::analyze_cscq(scaled(c));
            EXPECT_NEAR(cq_c.metrics.shorts.mean_response, c * cq.metrics.shorts.mean_response,
                        kRelTol * c * cq.metrics.shorts.mean_response);
            EXPECT_NEAR(cq_c.metrics.longs.mean_response, c * cq.metrics.longs.mean_response,
                        kRelTol * c * cq.metrics.longs.mean_response);
            const AnalyzeOutcome id_c = try_analyze(Policy::kCsId, scaled(c));
            ASSERT_EQ(id_c.status.code, id.status.code);
            if (!id.ok()) continue;  // outside CS-ID's region at both scales
            EXPECT_NEAR(id_c.metrics.shorts.mean_response, c * id.metrics.shorts.mean_response,
                        kRelTol * c * id.metrics.shorts.mean_response);
            EXPECT_NEAR(id_c.metrics.longs.mean_response, c * id.metrics.longs.mean_response,
                        kRelTol * c * id.metrics.longs.mean_response);
          }
        }
}

// --- Per-analysis obs attribution -------------------------------------------

TEST(Properties, AnalysisResultsCarryObsMetrics) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 10.0, 1.0);
  const obs::DeltaScope cq_scope;
  const analysis::CscqResult cq = analysis::analyze_cscq(c);
  const obs::MetricsDelta cq_delta = cq_scope.delta();
  const obs::DeltaScope id_scope;
  (void)analysis::analyze_csid(c);
  const obs::MetricsDelta id_delta = id_scope.delta();
  if (!obs::compiled_in()) {
    EXPECT_TRUE(cq_delta.empty());
    EXPECT_TRUE(id_delta.empty());
    return;
  }
  // Each exact analysis runs exactly one QBD solve, and a scope around it
  // sees that solve.
  EXPECT_EQ(cq_delta.value("qbd.solve.calls"), 1);
  EXPECT_EQ(id_delta.value("qbd.solve.calls"), 1);
  EXPECT_GT(cq_delta.value("qbd.logred.doublings"), 0);
  EXPECT_EQ(cq_delta.value("qbd.logred.doublings"), cq.chain.stats.iterations);
}

}  // namespace
