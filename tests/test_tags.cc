// TAGS (Task Assignment by Guessing Size) — the related-work policy for
// unknown job sizes, built on the engine's kill-and-restart hook.
#include <gtest/gtest.h>

#include <memory>

#include "mg1/mg1.h"
#include "mg1/mmc.h"
#include "sim/simulator.h"

namespace csq::sim {
namespace {

SimOptions tags_opts(double cutoff, std::size_t n = 500000) {
  SimOptions o;
  o.total_completions = n;
  o.tags_cutoff = cutoff;
  return o;
}

TEST(Tags, HugeCutoffIsSingleMG1) {
  // Nothing ever overflows: host 0 is an M/G/1 over the merged job stream.
  const SystemConfig c = SystemConfig::paper_setup(0.3, 0.3, 1.0, 10.0);
  const SimResult r = simulate(PolicyKind::kTags, c, tags_opts(1e9));
  const double lambda = c.lambda_short + c.lambda_long;
  const double ps = c.lambda_short / lambda;
  const dist::Moments xs = c.short_size->moments();
  const dist::Moments xl = c.long_size->moments();
  const dist::Moments mix{ps * xs.m1 + (1 - ps) * xl.m1, ps * xs.m2 + (1 - ps) * xl.m2,
                          ps * xs.m3 + (1 - ps) * xl.m3};
  const double expected = mg1::pk_response(lambda, mix);
  const double sim_mixed = ps * r.shorts.mean_response + (1 - ps) * r.longs.mean_response;
  EXPECT_NEAR(sim_mixed, expected, 0.04 * expected);
  EXPECT_NEAR(r.utilization[1], 0.0, 1e-12);  // overflow host never used
}

TEST(Tags, DeterministicSizesShowKillAndRestartCost) {
  // Shorts of size ~1, longs of size ~10 (bounded Pareto on supports 0.1%
  // wide, so deterministic to the test's tolerance), cutoff 2: at light
  // load a long's response is ~ cutoff (wasted at host 0) + full restart at
  // host 1.
  SystemConfig c;
  c.short_size = std::make_shared<dist::BoundedPareto>(1.0, 1.001, 1.5);
  c.long_size = std::make_shared<dist::BoundedPareto>(10.0, 10.01, 1.5);
  c.lambda_short = 0.02;
  c.lambda_long = 0.002;
  const SimResult r = simulate(PolicyKind::kTags, c, tags_opts(2.0, 200000));
  EXPECT_NEAR(r.longs.mean_response, 12.0, 0.3);
  EXPECT_NEAR(r.shorts.mean_response, 1.0, 0.1);
}

TEST(Tags, SegregatesBetterThanRoundRobin) {
  // High-variability merged workload: a sensible cutoff protects shorts far
  // better than blind Round-Robin dispatch (the literature's comparison —
  // with only two hosts a central M/G/2 queue remains hard to beat).
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.4, 1.0, 10.0, 8.0);
  const SimResult tags = simulate(PolicyKind::kTags, c, tags_opts(5.0));
  const SimResult rr = simulate(PolicyKind::kRoundRobin, c, tags_opts(5.0));
  EXPECT_LT(tags.shorts.mean_response, rr.shorts.mean_response);
}

TEST(RoundRobin, BalancedExponentialMatchesPerHostQueue) {
  // Only shorts: Round-Robin makes each host an E2/M/1 queue (Erlang
  // interarrivals) — better than M/M/1 at the same per-host load, worse
  // than M/M/2. Envelope check.
  const SystemConfig c = SystemConfig::paper_setup(1.0, 1e-12, 1.0, 1.0);
  const SimResult r = simulate(PolicyKind::kRoundRobin, c, tags_opts(1.0));
  const double mm1 = mg1::mm1_response(c.lambda_short / 2.0, 1.0);
  EXPECT_LT(r.shorts.mean_response, mm1);
  EXPECT_GT(r.shorts.mean_response, mg1::mmc_response(2, c.lambda_short, 1.0));
}

TEST(Tags, ShortsKilledTooAreStillCounted) {
  // Cutoff below the SHORT mean: even shorts overflow; the system must stay
  // consistent (completions conserved, responses include the wasted pass).
  const SystemConfig c = SystemConfig::paper_setup(0.3, 0.2, 1.0, 10.0);
  const SimResult r = simulate(PolicyKind::kTags, c, tags_opts(0.1, 300000));
  EXPECT_GT(r.shorts.completions, 100000u);
  EXPECT_GT(r.shorts.mean_response, 1.0);  // every nontrivial short pays the detour
  EXPECT_GT(r.utilization[1], r.utilization[0]);
}

TEST(Tags, InvalidCutoffThrows) {
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0);
  EXPECT_THROW((void)simulate(PolicyKind::kTags, c, tags_opts(0.0)), std::invalid_argument);
}

}  // namespace
}  // namespace csq::sim
