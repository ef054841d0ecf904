// The degradation ladder (analysis/resilient.h) and the deterministic fault
// injection layer (core/faultpoint.h) that exercises it.
//
// The ResilientChaos suite carries the `chaos` ctest label (and `tier1`):
// armed fault sites drive every rung of the ladder plus the deadline/cancel
// paths deterministically — burn faults advance the virtual clock
// (core/deadline.h timebase), so no test ever sleeps.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/cscq.h"
#include "analysis/resilient.h"
#include "analysis/truncated_cscq.h"
#include "core/config.h"
#include "core/deadline.h"
#include "core/faultpoint.h"
#include "core/sweep.h"
#include "sim/simulator.h"

namespace csq {
namespace {

using analysis::Rung;
using analysis::analyze_resilient;
using analysis::ResilientOptions;
using analysis::ResilientResult;

SystemConfig clean_config() {
  // Exponential shorts and longs so every rung (the truncated oracle
  // requires exponential sizes) can answer.
  return SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0);
}

// Cheap simulation rung for tests: small runs, fixed replication count.
ResilientOptions fast_sim_opts() {
  ResilientOptions opts;
  opts.sim.total_completions = 20000;
  opts.sim_reps.replications = 4;
  opts.sim_target_rel_ci = 0.0;  // fixed count: deterministic and fast
  return opts;
}

// --- Ladder semantics that need no fault injection -------------------------

TEST(ResilientLadder, CleanConfigUsesTheExactRung) {
  const ResilientResult r = analyze_resilient(clean_config());
  EXPECT_EQ(r.rung_used, Rung::kExact);
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_TRUE(r.attempts[0].succeeded);
  EXPECT_EQ(r.attempts[0].rung, Rung::kExact);
  // The exact rung's answer is the exact analysis's answer.
  const analysis::CscqResult exact = analysis::analyze_cscq(clean_config());
  EXPECT_DOUBLE_EQ(r.metrics.shorts.mean_response, exact.metrics.shorts.mean_response);
  EXPECT_DOUBLE_EQ(r.metrics.longs.mean_response, exact.metrics.longs.mean_response);
  // Analytic rungs report no CI.
  EXPECT_EQ(r.ci_half_width_short, 0.0);
  EXPECT_EQ(r.replications_used, 0);
}

TEST(ResilientLadder, ExpiredBudgetAtEntryThrowsDeadlineExceeded) {
  ResilientOptions opts;
  opts.budget = RunBudget::with_timeout_ms(0);
  EXPECT_THROW((void)analyze_resilient(clean_config(), opts), DeadlineExceededError);
}

TEST(ResilientLadder, CancelledBudgetThrowsCancelledNotDeadline) {
  CancelToken token;
  token.cancel();
  ResilientOptions opts;
  // Cancelled *and* expired: cancellation must win (the user asked to stop;
  // a deadline answer would misreport why).
  opts.budget = RunBudget::with_timeout_ms(0).with_token(token);
  EXPECT_THROW((void)analyze_resilient(clean_config(), opts), CancelledError);
}

TEST(ResilientLadder, UnstableConfigThrowsBeforeAnyRung) {
  // rho_S = 1.8 at rho_L = 0.5 is outside the CS-CQ region (frontier 1.5):
  // no rung can produce a steady state, so the ladder must not try.
  const SystemConfig c = SystemConfig::paper_setup(1.8, 0.5, 1.0, 1.0);
  EXPECT_THROW((void)analyze_resilient(c), UnstableError);
}

TEST(ResilientLadder, TruncatedRungSolvesOnceAtTheCapTheLongDecayGives) {
  // eta = rho_L = 0.9 here, so the cap is ceil(ln 1e-6 / ln 0.9) = 132: one
  // solve, where cap 100 would strand 3e-6 of the mass and fail the rung.
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.9, 1.0, 1.0);
  ResilientOptions opts;
  opts.start_rung = Rung::kTruncated;
  const ResilientResult r = analyze_resilient(c, opts);
  EXPECT_EQ(r.rung_used, Rung::kTruncated);
  ASSERT_EQ(r.attempts.size(), 1u);
  EXPECT_EQ(r.attempts[0].rung, Rung::kTruncated);
  EXPECT_TRUE(r.attempts[0].succeeded);
  EXPECT_EQ(r.truncation_cap, 132);
  EXPECT_LE(r.truncation_mass, 1e-6);
}

TEST(ResilientLadder, TruncatedRungKeepsTheFloorCapAtModerateLongLoad) {
  // At rho_L = 0.5 the decay asks for 20 levels; the floor keeps cap 100,
  // and with it the oracle's answer bit for bit.
  const SystemConfig c = clean_config();
  ResilientOptions opts;
  opts.start_rung = Rung::kTruncated;
  const ResilientResult r = analyze_resilient(c, opts);
  ASSERT_EQ(r.rung_used, Rung::kTruncated);
  EXPECT_EQ(r.truncation_cap, 100);
  analysis::TruncatedCscqOptions o;
  o.max_longs = 100;
  const analysis::TruncatedCscqResult t = analysis::analyze_cscq_truncated(c, o);
  EXPECT_EQ(r.truncation_mass, t.mass_at_long_cap);
  EXPECT_EQ(r.metrics.shorts.mean_response, t.metrics.shorts.mean_response);
  EXPECT_EQ(r.metrics.shorts.mean_wait, t.metrics.shorts.mean_wait);
  EXPECT_EQ(r.metrics.shorts.mean_number, t.metrics.shorts.mean_number);
  EXPECT_EQ(r.metrics.longs.mean_response, t.metrics.longs.mean_response);
  EXPECT_EQ(r.metrics.longs.mean_wait, t.metrics.longs.mean_wait);
  EXPECT_EQ(r.metrics.longs.mean_number, t.metrics.longs.mean_number);
}

TEST(ResilientLadder, RungNamesAreStable) {
  EXPECT_STREQ(analysis::rung_name(Rung::kExact), "exact");
  EXPECT_STREQ(analysis::rung_name(Rung::kTruncated), "truncated");
  EXPECT_STREQ(analysis::rung_name(Rung::kSimulation), "simulation");
}

// --- Fault-spec parsing (available in every build) -------------------------

TEST(FaultSpec, ParsesTheThreeKinds) {
  const fault::ArmSpec t = fault::parse_arm_spec("qbd.logred.iterate:2:throw:NotConverged");
  EXPECT_EQ(t.site, "qbd.logred.iterate");
  EXPECT_EQ(t.trigger_count, 2);
  EXPECT_EQ(t.kind, fault::Kind::kThrow);
  EXPECT_EQ(t.code, ErrorCode::kNotConverged);

  const fault::ArmSpec n = fault::parse_arm_spec("a.b.c:1:nan");
  EXPECT_EQ(n.kind, fault::Kind::kNan);

  const fault::ArmSpec b = fault::parse_arm_spec("a.b.c:1:burn:5.5");
  EXPECT_EQ(b.kind, fault::Kind::kBurn);
  EXPECT_DOUBLE_EQ(b.burn_ms, 5.5);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* spec : {"nosep", "a.b.c:1", "a.b.c:x:nan", "a.b.c:0:nan",
                           ":1:nan", "a.b.c:1:burn:-2", "a.b.c:1:burn:x",
                           "a.b.c:1:throw:Bogus", "a.b.c:1:weird"})
    EXPECT_THROW((void)fault::parse_arm_spec(spec), InvalidInputError) << spec;
}

TEST(FaultSpec, ArmListSkipsEmptyItems) {
  fault::disarm_all();
  fault::arm_list(",analysis.cscq.solve:1:throw:NotConverged,,qbd.logred.iterate:2:nan,");
  EXPECT_EQ(fault::armed_sites(),
            (std::vector<std::string>{"analysis.cscq.solve", "qbd.logred.iterate"}));
  fault::disarm_all();
  fault::arm_list("");
  fault::arm_list(",,");
  EXPECT_TRUE(fault::armed_sites().empty());
  // A bad item throws; the items before it stay armed until disarm_all().
  EXPECT_THROW(fault::arm_list("mg1.pk.wait:1:burn:1,,bogus"), InvalidInputError);
  EXPECT_EQ(fault::armed_sites(), std::vector<std::string>{"mg1.pk.wait"});
  fault::disarm_all();
}

// --- Chaos: fault-injected ladder walks (`ctest -L chaos`) -----------------

class ResilientChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    timebase::reset_virtual();
  }
  void TearDown() override {
    fault::disarm_all();
    timebase::reset_virtual();
  }
};

// A misspelled site would arm nothing and let the run pass silently, so
// arming checks the name against the site table and names the bad site.
TEST_F(ResilientChaos, ArmRejectsAnUnknownSite) {
  try {
    fault::arm(fault::parse_arm_spec("qbd.logred.iterat:1:nan"));
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find("'qbd.logred.iterat'"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(fault::armed_sites().empty());
  fault::arm(fault::parse_arm_spec("qbd.logred.iterate:1:nan"));
  EXPECT_EQ(fault::armed_sites(), std::vector<std::string>{"qbd.logred.iterate"});
}

// `nan` needs matrix data to poison: arming it at a plain site is refused
// up front (InvalidInput, exit 2 from the tools), never an Internal error
// when the site is first hit.
TEST_F(ResilientChaos, ArmRejectsNanAtAPlainSite) {
  try {
    fault::arm(fault::parse_arm_spec("analysis.cscq.solve:1:nan"));
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& e) {
    EXPECT_NE(std::string(e.what()).find("'analysis.cscq.solve' with 'nan'"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fault::armed_sites().empty());
  const analysis::CscqResult r = analysis::analyze_cscq(clean_config());
  EXPECT_TRUE(std::isfinite(r.metrics.shorts.mean_response));
  // The other kinds still arm there.
  fault::arm(fault::parse_arm_spec("analysis.cscq.solve:1:burn:1"));
  EXPECT_EQ(fault::armed_sites(), std::vector<std::string>{"analysis.cscq.solve"});
}

TEST_F(ResilientChaos, ExactRungFaultFallsBackToTruncated) {
  fault::arm(fault::parse_arm_spec("analysis.cscq.solve:1:throw:NotConverged"));
  const ResilientResult r = analyze_resilient(clean_config(), fast_sim_opts());
  EXPECT_EQ(r.rung_used, Rung::kTruncated);
  ASSERT_EQ(r.attempts.size(), 2u);
  EXPECT_FALSE(r.attempts[0].succeeded);
  EXPECT_EQ(r.attempts[0].status.code, ErrorCode::kNotConverged);
  EXPECT_TRUE(r.attempts[1].succeeded);
  EXPECT_EQ(r.truncation_cap, 100);  // the cap rule's floor at rho_L = 0.5
  EXPECT_LE(r.truncation_mass, 1e-6);
  EXPECT_GT(r.metrics.shorts.mean_response, 1.0);
  // Single-shot: the site fired once and is healthy again.
  EXPECT_EQ(fault::hits("analysis.cscq.solve"), 1);
  EXPECT_TRUE(fault::armed_sites().empty());
}

TEST_F(ResilientChaos, BothAnalyticRungsFaultedFallToSimulation) {
  fault::arm(fault::parse_arm_spec("analysis.cscq.solve:1:throw:NotConverged"));
  fault::arm(fault::parse_arm_spec("analysis.truncated.solve:1:throw:NotConverged"));
  // The truncated rung solves once, so the single-shot fault kills it.
  const ResilientResult r = analyze_resilient(clean_config(), fast_sim_opts());
  EXPECT_EQ(r.rung_used, Rung::kSimulation);
  ASSERT_EQ(r.attempts.size(), 3u);
  EXPECT_EQ(r.attempts[0].rung, Rung::kExact);
  EXPECT_EQ(r.attempts[1].rung, Rung::kTruncated);
  EXPECT_EQ(r.attempts[1].status.code, ErrorCode::kNotConverged);
  EXPECT_TRUE(r.attempts[2].succeeded);
  EXPECT_EQ(r.replications_used, 4);
  EXPECT_GT(r.ci_half_width_short, 0.0);
  // The simulated estimate is in the right ballpark of the exact answer.
  const analysis::CscqResult exact = analysis::analyze_cscq(clean_config());
  EXPECT_NEAR(r.metrics.shorts.mean_response, exact.metrics.shorts.mean_response,
              0.5 * exact.metrics.shorts.mean_response);
}

TEST_F(ResilientChaos, NanInjectionFallsToTheTruncatedRung) {
  // Poison logarithmic reduction's H once: the solver must detect the
  // non-finite iterate and fail the exact rung with NotConverged (never
  // Unstable, never a NaN answer), and the ladder answers from the
  // truncated chain.
  fault::arm(fault::parse_arm_spec("qbd.logred.iterate:1:nan"));
  const ResilientResult r = analyze_resilient(clean_config(), fast_sim_opts());
  EXPECT_EQ(r.rung_used, Rung::kTruncated);
  ASSERT_GE(r.attempts.size(), 2u);
  EXPECT_EQ(r.attempts[0].rung, Rung::kExact);
  EXPECT_EQ(r.attempts[0].status.code, ErrorCode::kNotConverged);
  EXPECT_EQ(r.attempts.back().rung, Rung::kTruncated);
  EXPECT_TRUE(r.attempts.back().succeeded);
  EXPECT_TRUE(std::isfinite(r.metrics.shorts.mean_response));
  EXPECT_TRUE(std::isfinite(r.metrics.longs.mean_response));
  EXPECT_GE(fault::hits("qbd.logred.iterate"), 1);
}

TEST_F(ResilientChaos, BurnFaultTripsTheDeadlineMidLadder) {
  // 1000ms of *virtual* time burned inside the exact rung blows the 50ms
  // budget without sleeping: the exact rung dies on DeadlineExceeded, the
  // truncated rung is skipped, and the simulation rung still answers (once
  // reached it always runs its initial batch).
  fault::arm(fault::parse_arm_spec("analysis.cscq.solve:1:burn:1000"));
  ResilientOptions opts = fast_sim_opts();
  opts.budget = RunBudget::with_timeout_ms(50);
  const ResilientResult r = analyze_resilient(clean_config(), opts);
  EXPECT_EQ(r.rung_used, Rung::kSimulation);
  ASSERT_GE(r.attempts.size(), 3u);
  EXPECT_EQ(r.attempts[0].rung, Rung::kExact);
  EXPECT_EQ(r.attempts[0].status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(r.attempts[1].rung, Rung::kTruncated);
  EXPECT_EQ(r.attempts[1].status.code, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(r.attempts.back().succeeded);
  EXPECT_TRUE(std::isfinite(r.metrics.shorts.mean_response));
}

TEST_F(ResilientChaos, CancellationAbortsTheLadderNoConsolationPrize) {
  // A throw:Cancelled fault models the cancel token firing inside the exact
  // rung: unlike a deadline, cancellation must abort the whole ladder.
  fault::arm(fault::parse_arm_spec("analysis.cscq.solve:1:throw:Cancelled"));
  EXPECT_THROW((void)analyze_resilient(clean_config(), fast_sim_opts()), CancelledError);
}

TEST_F(ResilientChaos, SweepMarksAFaultedPolicyFailedNotUnstable) {
  // mg1.pk.wait is hit first by the Dedicated analysis: the injected
  // failure must show up as kFailed on that policy's status byte only.
  fault::arm(fault::parse_arm_spec("mg1.pk.wait:1:throw:NotConverged"));
  const auto rows = sweep_rho_short(0.5, 1.0, 1.0, 1.0, {0.5});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].dedicated_status, PointStatus::kFailed);
  EXPECT_TRUE(std::isnan(rows[0].dedicated_short));
  EXPECT_EQ(rows[0].cscq_status, PointStatus::kOk);
  // The saturated-long fallback fill still runs (the site is healthy again).
  EXPECT_FALSE(std::isnan(rows[0].dedicated_long));
}

// --- Adaptive CI stopping in the simulation rung's engine ------------------

TEST(SimAdaptive, DisabledRuleRunsExactlyTheRequestedReplications) {
  sim::SimOptions sopts;
  sopts.total_completions = 5000;
  sim::ReplicationOptions ropts;
  ropts.replications = 3;
  ropts.target_rel_ci = 0.0;
  const sim::ReplicatedResult r =
      sim::simulate_replications(sim::PolicyKind::kCsCq, clean_config(), sopts, ropts);
  EXPECT_EQ(r.replications.size(), 3u);
}

TEST(SimAdaptive, UnreachableTargetExtendsToTheCap) {
  sim::SimOptions sopts;
  sopts.total_completions = 5000;
  sim::ReplicationOptions ropts;
  ropts.replications = 2;
  ropts.target_rel_ci = 1e-9;  // unreachable: must stop at max_replications
  ropts.max_replications = 6;
  const sim::ReplicatedResult r =
      sim::simulate_replications(sim::PolicyKind::kCsCq, clean_config(), sopts, ropts);
  EXPECT_EQ(r.replications.size(), 6u);
  EXPECT_GT(r.shorts.ci95, 0.0);
}

TEST(SimAdaptive, ExpiredBudgetThrowsAndReturnsNoPartialReplications) {
  sim::SimOptions sopts;
  sopts.total_completions = 5000;
  sopts.budget = RunBudget::with_timeout_ms(0);  // expired before the first run
  sim::ReplicationOptions ropts;
  ropts.replications = 2;
  ropts.target_rel_ci = 1e-9;
  ropts.max_replications = 64;
  // Every replication polls the budget at its first event, so the call
  // throws instead of returning a batch the budget never paid for.
  EXPECT_THROW((void)sim::simulate_replications(sim::PolicyKind::kCsCq, clean_config(),
                                                sopts, ropts),
               DeadlineExceededError);
}

TEST(SimAdaptive, MalformedOptionsThrowInvalidInput) {
  sim::ReplicationOptions ropts;
  ropts.replications = 0;
  EXPECT_THROW((void)sim::simulate_replications(sim::PolicyKind::kCsCq, clean_config(),
                                                sim::SimOptions{}, ropts),
               InvalidInputError);
  ropts = sim::ReplicationOptions{};
  ropts.target_rel_ci = 0.5;
  ropts.max_replications = ropts.replications - 1;  // cap below the batch
  EXPECT_THROW((void)sim::simulate_replications(sim::PolicyKind::kCsCq, clean_config(),
                                                sim::SimOptions{}, ropts),
               InvalidInputError);
}

}  // namespace
}  // namespace csq
