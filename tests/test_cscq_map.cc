#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/dedicated.h"
#include "analysis/truncated_cscq.h"
#include "core/solver.h"
#include "dist/map_process.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace csq::analysis {
namespace {

SystemConfig with_map(double rho_s, double rho_l, dist::MapProcess map, double long_scv = 1.0) {
  SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0, long_scv);
  c.short_arrivals = std::make_shared<dist::MapProcess>(std::move(map));
  return c;
}

TEST(MapProcess, PoissonBasics) {
  const dist::MapProcess m = dist::MapProcess::poisson(2.5);
  EXPECT_EQ(m.num_phases(), 1u);
  EXPECT_NEAR(m.mean_rate(), 2.5, 1e-12);
}

TEST(MapProcess, Mmpp2StationaryAndRate) {
  // Phase 0 fraction = s10/(s01+s10) = 0.75 with s01 = 1, s10 = 3.
  const dist::MapProcess m = dist::MapProcess::mmpp2(1.0, 5.0, 1.0, 3.0);
  EXPECT_NEAR(m.stationary_phases()[0], 0.75, 1e-12);
  EXPECT_NEAR(m.mean_rate(), 0.75 * 1.0 + 0.25 * 5.0, 1e-12);
}

TEST(MapProcess, BurstyHitsTargets) {
  const dist::MapProcess m = dist::MapProcess::bursty(0.9, 3.0, 0.2, 5.0);
  EXPECT_NEAR(m.mean_rate(), 0.9, 1e-12);
  EXPECT_NEAR(m.stationary_phases()[1], 0.2, 1e-12);
  EXPECT_THROW(dist::MapProcess::bursty(1.0, 10.0, 0.5, 1.0), std::invalid_argument);
}

TEST(MapProcess, SamplingMatchesMeanRate) {
  const dist::MapProcess m = dist::MapProcess::bursty(2.0, 4.0, 0.1, 3.0);
  dist::Rng rng = sim::make_rng(5);
  dist::MapProcess::State st = m.stationary_state(rng);
  const int n = 400000;
  double total = 0.0;
  for (int i = 0; i < n; ++i) total += m.next_interarrival(st, rng);
  EXPECT_NEAR(n / total, 2.0, 0.03);
}

TEST(MapProcess, InvalidInputsThrow) {
  EXPECT_THROW(dist::MapProcess(linalg::Matrix{{-1.0}}, linalg::Matrix{{2.0}}),
               std::invalid_argument);
  EXPECT_THROW(dist::MapProcess::poisson(0.0), std::invalid_argument);
  EXPECT_THROW(dist::MapProcess::mmpp2(0.0, 0.0, 1.0, 1.0), std::invalid_argument);
}

TEST(CscqMap, PoissonMapReducesToBaseAnalysis) {
  for (const double rho_s : {0.5, 1.0, 1.3}) {
    const SystemConfig base = SystemConfig::paper_setup(rho_s, 0.5, 1.0, 1.0, 8.0);
    const SystemConfig mapped =
        with_map(rho_s, 0.5, dist::MapProcess::poisson(base.lambda_short), 8.0);
    const CscqResult expo = analyze_cscq(base);
    const CscqResult m = analyze_cscq(mapped);
    EXPECT_NEAR(m.metrics.shorts.mean_response, expo.metrics.shorts.mean_response,
                1e-8 * expo.metrics.shorts.mean_response);
    EXPECT_NEAR(m.metrics.longs.mean_response, expo.metrics.longs.mean_response,
                1e-8 * expo.metrics.longs.mean_response);
  }
}

TEST(CscqMap, BurstinessHurtsShorts) {
  const SystemConfig base = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0);
  const SystemConfig bursty =
      with_map(0.9, 0.5, dist::MapProcess::bursty(base.lambda_short, 3.0, 0.2, 10.0));
  const double poisson_resp = analyze_cscq(base).metrics.shorts.mean_response;
  const double bursty_resp = analyze_cscq(bursty).metrics.shorts.mean_response;
  EXPECT_GT(bursty_resp, 1.3 * poisson_resp);
}

TEST(CscqMap, MatchesSimulationUnderBurstyArrivals) {
  const SystemConfig c =
      with_map(0.9, 0.5, dist::MapProcess::bursty(0.9, 3.0, 0.2, 10.0), 8.0);
  const CscqResult r = analyze_cscq(c);
  sim::SimOptions opts;
  opts.total_completions = 1500000;
  const sim::SimResult s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
  EXPECT_NEAR(r.metrics.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(r.metrics.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);
}

TEST(CscqMap, StabilityUsesMeanRate) {
  // Mean rho_S = 1.6 > 2 - rho_L even though the low phase is idle.
  const SystemConfig c = with_map(1.6, 0.5, dist::MapProcess::bursty(1.6, 1.2, 0.5, 1.0));
  EXPECT_THROW((void)analyze_cscq(c), std::domain_error);
}

TEST(CscqMap, MapReplacesLambdaShort) {
  // The MAP alone drives the short stream: lambda_short is ignored, and the
  // answer is the pinned bursty-MMPP value of the golden chain table.
  SystemConfig c = with_map(1.0, 0.5, dist::MapProcess::bursty(1.0, 4.0, 0.1, 3.0), 8.0);
  const double pinned = 0x1.08960b65838e5p+3;
  EXPECT_NEAR(analyze_cscq(c).metrics.shorts.mean_response, pinned, 1e-12 * pinned);
  c.lambda_short = 0.3;
  EXPECT_NEAR(analyze_cscq(c).metrics.shorts.mean_response, pinned, 1e-12 * pinned);
}

TEST(CscqMap, PoissonOnlyModelsRejectMapArrivals) {
  // CS-ID, Dedicated and the truncated CS-CQ oracle model Poisson shorts
  // only; a set MAP is an input error, never a silent Poisson answer.
  const SystemConfig c = with_map(0.9, 0.5, dist::MapProcess::bursty(0.9, 3.0, 0.2, 10.0));
  const auto expect_rejected = [](auto&& call) {
    try {
      call();
      ADD_FAILURE() << "MAP arrivals accepted";
    } catch (const InvalidInputError& e) {
      EXPECT_NE(std::string(e.what()).find("short_arrivals"), std::string::npos) << e.what();
    }
  };
  expect_rejected([&] { (void)analyze_csid(c); });
  expect_rejected([&] { (void)analyze_dedicated(c); });
  expect_rejected([&] { (void)analyze_cscq_truncated(c); });
  for (const Policy policy : {Policy::kDedicated, Policy::kCsId})
    EXPECT_EQ(try_analyze(policy, c).status.code, ErrorCode::kInvalidInput)
        << policy_label(policy);
  EXPECT_TRUE(try_analyze(Policy::kCsCq, c).ok());
}

TEST(CscqMap, PhShortsUnderBurstyArrivalsMatchSimulation) {
  // Erlang-2 shorts x MMPP arrivals: both generalizations at once.
  SystemConfig c = with_map(0.9, 0.5, dist::MapProcess::bursty(0.9, 3.0, 0.2, 10.0), 8.0);
  c.short_size = std::make_shared<dist::PhaseType>(dist::PhaseType::erlang(2, 2.0));
  const CscqResult r = analyze_cscq(c);
  EXPECT_EQ(r.num_phases, (2u * 3u + 2u * 2u * 2u) * 2u);  // (k=2 chain) x 2 MAP phases
  sim::SimOptions opts;
  opts.total_completions = 1500000;
  const sim::SimResult s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
  EXPECT_NEAR(r.metrics.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(r.metrics.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);
}

}  // namespace
}  // namespace csq::analysis
