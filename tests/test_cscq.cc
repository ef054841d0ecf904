#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/dedicated.h"
#include "analysis/stability.h"
#include "analysis/truncated_cscq.h"
#include "core/solver.h"
#include "dist/map_process.h"
#include "mg1/mg1.h"
#include "mg1/mmc.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace csq::analysis {
namespace {

TEST(Cscq, LimitNoLongsIsExactMM2) {
  // lambda_L -> 0: shorts own both hosts, an M/M/2 queue (paper Section 4,
  // "validation against known limiting cases ... was perfect").
  for (const double rho_s : {0.2, 0.7, 1.3, 1.8}) {
    const SystemConfig c = SystemConfig::paper_setup(rho_s, 1e-10, 1.0, 1.0);
    const CscqResult r = analyze_cscq(c);
    EXPECT_NEAR(r.metrics.shorts.mean_response, mg1::mmc_response(2, c.lambda_short, 1.0),
                1e-6)
        << "rho_s=" << rho_s;
  }
}

TEST(Cscq, LimitNoShortsIsExactMG1ForLongs) {
  for (const double scv : {1.0, 8.0}) {
    const SystemConfig c = SystemConfig::paper_setup(1e-10, 0.7, 1.0, 1.0, scv);
    const CscqResult r = analyze_cscq(c);
    EXPECT_NEAR(r.metrics.longs.mean_response,
                mg1::pk_response(c.lambda_long, c.long_size->moments()), 1e-6)
        << "scv=" << scv;
  }
}

TEST(Cscq, MatchesExactTruncatedChain) {
  // Exponential/exponential: the long-capped chain is exact up to the cap;
  // the busy-period-transition QBD should track it closely (the paper
  // reports <2% typical vs simulation).
  for (const double rho_l : {0.3, 0.6}) {
    for (const double rho_s : {0.5, 1.0}) {
      const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0);
      const CscqResult qbd = analyze_cscq(c);
      const TruncatedCscqResult exact = analyze_cscq_truncated(c);
      EXPECT_NEAR(qbd.metrics.shorts.mean_response, exact.metrics.shorts.mean_response,
                  0.02 * exact.metrics.shorts.mean_response)
          << "rho_s=" << rho_s << " rho_l=" << rho_l;
      // Region probabilities feed the long-job setup model; check them too.
      EXPECT_NEAR(qbd.p_region1, exact.p_region1, 0.02);
      EXPECT_NEAR(qbd.p_region2, exact.p_region2, 0.02);
    }
  }
}

TEST(Cscq, StationaryMassSumsToOne) {
  const SystemConfig c = SystemConfig::paper_setup(1.2, 0.5, 1.0, 10.0, 8.0);
  const CscqResult r = analyze_cscq(c);
  EXPECT_LT(std::abs(r.chain.total_mass() - 1.0), 1e-8);
  EXPECT_GT(r.p_region1, 0.0);
  EXPECT_GT(r.p_region2, 0.0);
}

TEST(Cscq, BusyPeriodFitsMatchThreeMoments) {
  const SystemConfig c = SystemConfig::paper_setup(1.0, 0.5, 1.0, 1.0, 8.0);
  const CscqResult r = analyze_cscq(c);
  EXPECT_EQ(r.fit_single.moments_matched, 3);
  EXPECT_EQ(r.fit_batch.moments_matched, 3);
  EXPECT_FALSE(r.fit_single.used_fallback);
}

TEST(Cscq, ShortResponseIncreasesInLoad) {
  double prev = 0.0;
  for (double rho_s = 0.1; rho_s < 1.45; rho_s += 0.1) {
    const SystemConfig c = SystemConfig::paper_setup(rho_s, 0.5, 1.0, 1.0);
    const double v = analyze_cscq(c).metrics.shorts.mean_response;
    EXPECT_GT(v, prev) << "rho_s=" << rho_s;
    prev = v;
  }
}

TEST(Cscq, LongResponseIncreasesInShortLoad) {
  // More shorts -> more chances the first long of a cycle must wait.
  double prev = 0.0;
  for (double rho_s = 0.1; rho_s < 1.45; rho_s += 0.2) {
    const SystemConfig c = SystemConfig::paper_setup(rho_s, 0.5, 1.0, 1.0);
    const double v = analyze_cscq(c).metrics.longs.mean_response;
    EXPECT_GT(v, prev) << "rho_s=" << rho_s;
    prev = v;
  }
}

TEST(Cscq, SaturatedLongResponseIsContinuousAtTheFrontier) {
  // Just inside the stability frontier the full analysis should approach the
  // saturated-shorts closed form (setup probability -> 1).
  const double rho_l = 0.5;
  const SystemConfig inside =
      SystemConfig::paper_setup(2.0 - rho_l - 0.002, rho_l, 1.0, 1.0);
  const double full = analyze_cscq(inside).metrics.longs.mean_response;
  const double saturated = cscq_long_response_saturated(inside);
  EXPECT_NEAR(full, saturated, 0.01 * saturated);
}

// Heavy traffic at rho_L = 0.5: rho_S = 1.5 - gap, gap = 2 - rho_L - rho_S.
// The frontier is where sp(R) -> 1, so it is where an R solve that stops
// early loses the most digits.
double heavy_traffic_short_response(double gap, double scv_l, double tolerance = 1e-13,
                                    double* residual = nullptr) {
  CscqOptions o;
  o.qbd.tolerance = tolerance;
  const CscqResult r =
      analyze_cscq(SystemConfig::paper_setup(1.5 - gap, 0.5, 1.0, 1.0, scv_l), o);
  if (residual) *residual = r.chain.stats.residual;
  return r.metrics.shorts.mean_response;
}

TEST(Cscq, NearFrontierAnswerIsInsensitiveToTheRTolerance) {
  for (const double scv_l : {1.0, 8.0})
    for (const double gap : {1e-2, 1e-3}) {
      SCOPED_TRACE("C2_L = " + std::to_string(scv_l) + ", gap = " + std::to_string(gap));
      double residual = -1.0;
      const double loose = heavy_traffic_short_response(gap, scv_l, 1e-13, &residual);
      const double tight = heavy_traffic_short_response(gap, scv_l, 1e-16);
      EXPECT_NEAR(loose, tight, 1e-11 * tight);
      EXPECT_LE(residual, 5e-14);
    }
}

TEST(Cscq, HeavyTrafficScaledShortResponseConverges) {
  // gap * E[T_S] tends to a finite heavy-traffic limit as gap -> 0: it must
  // increase towards it, with successive differences shrinking at least 5x
  // per decade of gap. (Below gap ~1e-5 the solve loses digits: at 1e-6
  // gap * E[T_S] already falls instead of rising, so a check there would
  // test rounding, not the limit. The test stops at 1e-4.)
  for (const double scv_l : {1.0, 8.0}) {
    SCOPED_TRACE("C2_L = " + std::to_string(scv_l));
    std::vector<double> scaled;
    for (const double gap : {1e-1, 1e-2, 1e-3, 1e-4})
      scaled.push_back(gap * heavy_traffic_short_response(gap, scv_l));
    for (std::size_t i = 1; i < scaled.size(); ++i) EXPECT_GT(scaled[i], scaled[i - 1]);
    for (std::size_t i = 2; i < scaled.size(); ++i)
      EXPECT_LE(5.0 * (scaled[i] - scaled[i - 1]), scaled[i - 1] - scaled[i - 2]);
  }
}

TEST(Cscq, OutsideStabilityRegionThrows) {
  EXPECT_THROW((void)analyze_cscq(SystemConfig::paper_setup(1.5, 0.5, 1.0, 1.0)),
               std::domain_error);
  EXPECT_THROW((void)analyze_cscq(SystemConfig::paper_setup(0.5, 1.0, 1.0, 1.0)),
               std::domain_error);
  EXPECT_THROW((void)cscq_long_response_saturated(SystemConfig::paper_setup(1.5, 1.0, 1, 1)),
               std::domain_error);
}

TEST(Cscq, NonPhaseTypeShortsRejected) {
  SystemConfig c = SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0);
  c.short_size = std::make_shared<dist::BoundedPareto>(1.0, 100.0, 1.5);
  EXPECT_THROW((void)analyze_cscq(c), std::invalid_argument);
}

TEST(Cscq, FewerMomentsStillSolveButLoseAccuracy) {
  const SystemConfig c = SystemConfig::paper_setup(1.0, 0.6, 1.0, 1.0);
  const double exact = analyze_cscq_truncated(c).metrics.shorts.mean_response;
  double err[4] = {};
  for (int k = 1; k <= 3; ++k) {
    CscqOptions o;
    o.busy_period_moments = k;
    const double v = analyze_cscq(c, o).metrics.shorts.mean_response;
    err[k] = std::abs(v - exact) / exact;
  }
  // Three moments must beat one moment; two must be sane.
  EXPECT_LT(err[3], err[1]);
  EXPECT_LT(err[3], 0.02);
  EXPECT_LT(err[2], 0.10);
}

// Paper headline claims, as properties over a parameter grid.
class CscqDominance : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(CscqDominance, ShortsGainLongsBarelyPay) {
  const auto [rho_s, rho_l, scv_l] = GetParam();
  if (!csid_stable(rho_s, rho_l)) GTEST_SKIP() << "outside CS-ID stability region";
  const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0, scv_l);
  const CscqResult cq = analyze_cscq(c);
  const CsidResult id = analyze_csid(c);
  // CS-CQ >= CS-ID >= Dedicated for shorts (smaller is better).
  EXPECT_LE(cq.metrics.shorts.mean_response, id.metrics.shorts.mean_response * 1.0001);
  if (dedicated_stable(rho_s, rho_l)) {
    const PolicyMetrics ded = analyze_dedicated(c);
    EXPECT_LE(id.metrics.shorts.mean_response, ded.shorts.mean_response * 1.0001);
    // Longs: both cycle stealers pay something, CS-CQ pays less than CS-ID
    // (renamable servers), and never more than the first-of-two-shorts
    // residual per busy cycle.
    EXPECT_GE(cq.metrics.longs.mean_response, ded.longs.mean_response * 0.9999);
    EXPECT_LE(cq.metrics.longs.mean_response, id.metrics.longs.mean_response * 1.0001);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, CscqDominance,
                         ::testing::Combine(::testing::Values(0.3, 0.7, 0.95, 1.2),
                                            ::testing::Values(0.2, 0.5, 0.7),
                                            ::testing::Values(1.0, 8.0)));

// --- Phase-type short jobs -----------------------------------------------------

SystemConfig with_shorts(const SystemConfig& base, dist::PhaseType shorts, double rho_s) {
  SystemConfig c = base;
  const double mean = shorts.mean();
  c.short_size = std::make_shared<dist::PhaseType>(std::move(shorts));
  c.lambda_short = rho_s / mean;
  return c;
}

TEST(CscqPh, WindowIsFirstOfTwoServices) {
  // Exponential shorts: Theta = Exp(2 mu), exact in one pass. Erlang-2 and
  // C^2 = 4 Coxian shorts: Theta comes from the pair chain, refined by the
  // fixed point over the pair state an arriving long observes.
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0);
  const CscqResult r = analyze_cscq(c);
  EXPECT_NEAR(r.window.m1, 0.5, 1e-10);
  EXPECT_NEAR(r.window.m2, 2.0 * 0.25, 1e-10);
  EXPECT_EQ(r.window_iterations, 1);

  const SystemConfig erl = with_shorts(c, dist::PhaseType::erlang(2, 2.0), 0.5);
  const CscqResult re = analyze_cscq(erl);
  // First completion among the two in-service Erlang-2 shorts: shorter than
  // a full service; the fixed point used more than one pass.
  EXPECT_LT(re.window.m1, 1.0);
  EXPECT_GT(re.window.m1, 0.0);
  EXPECT_GT(re.window_iterations, 1);

  const SystemConfig cox = with_shorts(c, dist::PhaseType::coxian_mean_scv(1.0, 4.0), 0.5);
  const CscqResult rc = analyze_cscq(cox);
  EXPECT_GT(rc.window.m1, 0.0);
  EXPECT_GT(rc.window_iterations, 1);
}

TEST(CscqPh, MassConservedAndRegionsPositive) {
  const SystemConfig base = SystemConfig::paper_setup(1.0, 0.5, 1.0, 1.0, 8.0);
  const SystemConfig c = with_shorts(base, dist::PhaseType::coxian_mean_scv(1.0, 4.0), 1.0);
  const CscqResult r = analyze_cscq(c);
  EXPECT_LT(std::abs(r.chain.total_mass() - 1.0), 1e-8);
  EXPECT_GT(r.p_region1, 0.0);
  EXPECT_GT(r.p_region2, 0.0);
  EXPECT_EQ(r.chain.r.rows(), 2u * 3u + 2u * 2u * 2u);  // pairs + busy blocks (k=2)
}

TEST(CscqPh, NoLongsIsMPh2AgainstSimulation) {
  // lambda_L -> 0 turns the chain into an exact M/PH/2 queue.
  const SystemConfig base = SystemConfig::paper_setup(1.2, 1e-12, 1.0, 1.0);
  const SystemConfig c = with_shorts(base, dist::PhaseType::erlang(2, 2.0), 1.2);
  const CscqResult r = analyze_cscq(c);
  sim::SimOptions opts;
  opts.total_completions = 1000000;
  const sim::SimResult s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
  EXPECT_NEAR(r.metrics.shorts.mean_response, s.shorts.mean_response,
              0.02 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
}

struct PhCase {
  const char* name;
  double rho_s, rho_l, scv_l;
  bool erlang;  // Erlang-2 (scv 0.5) vs Coxian (scv 4) shorts
};

// Print the case by name: the default raw-byte dump includes the name
// pointer and padding, which would make the discovered ctest names differ
// between builds.
void PrintTo(const PhCase& g, std::ostream* os) { *os << g.name; }

class CscqPhVsSim : public ::testing::TestWithParam<PhCase> {};

TEST_P(CscqPhVsSim, WithinFivePercent) {
  const PhCase g = GetParam();
  const SystemConfig base = SystemConfig::paper_setup(g.rho_s, g.rho_l, 1.0, 1.0, g.scv_l);
  const dist::PhaseType shorts = g.erlang ? dist::PhaseType::erlang(2, 2.0)
                                          : dist::PhaseType::coxian_mean_scv(1.0, 4.0);
  const SystemConfig c = with_shorts(base, shorts, g.rho_s);
  const CscqResult r = analyze_cscq(c);
  sim::SimOptions opts;
  opts.total_completions = 1000000;
  const sim::SimResult s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
  EXPECT_NEAR(r.metrics.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(r.metrics.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CscqPhVsSim,
    ::testing::Values(PhCase{"erlang_mid", 0.9, 0.5, 1.0, true},
                      PhCase{"erlang_highvar_longs", 0.8, 0.5, 8.0, true},
                      PhCase{"coxian_mid", 0.9, 0.5, 1.0, false},
                      PhCase{"coxian_heavy", 1.2, 0.3, 1.0, false}),
    [](const ::testing::TestParamInfo<PhCase>& info) { return info.param.name; });

TEST(CscqPh, InvalidInputs) {
  // Stability uses the PH mean: rho_S = 1.6 > 2 - rho_L with Erlang-2 shorts.
  const SystemConfig base = SystemConfig::paper_setup(1.6, 0.5, 1.0, 1.0);
  EXPECT_THROW((void)analyze_cscq(with_shorts(base, dist::PhaseType::erlang(2, 2.0), 1.6)),
               std::domain_error);
}

TEST(CscqPh, ThetaFixedPointSolvesUpToTheFrontier) {
  // Fresh Erlang-2 pairs outlast the observed pair, so near the frontier the
  // first window's chain drifts upward inside Theorem 1's region; the fixed
  // point must restart rather than report the point unstable. Every point
  // solves, converges before the pass cap, and its chain drifts downward.
  for (const bool erlang : {true, false})
    for (const double rho_l : {0.2, 0.5, 0.8})
      for (const double gap : {0.1, 0.01, 0.001})
        for (const double mean_l : {1.0, 10.0})
          for (const double scv_l : {1.0, 8.0}) {
            const double rho_s = 2.0 - rho_l - gap;
            const SystemConfig base =
                SystemConfig::paper_setup(rho_s, rho_l, 1.0, mean_l, scv_l);
            const SystemConfig c =
                with_shorts(base,
                            erlang ? dist::PhaseType::erlang(2, 2.0)
                                   : dist::PhaseType::coxian_mean_scv(1.0, 4.0),
                            rho_s);
            SCOPED_TRACE(testing::Message() << (erlang ? "erlang" : "coxian") << " rho_L "
                                            << rho_l << " gap " << gap << " E[X_L] "
                                            << mean_l << " C2_L " << scv_l);
            CscqResult r;
            ASSERT_NO_THROW(r = analyze_cscq(c));
            EXPECT_LT(r.window_iterations, 8);
            EXPECT_LT(r.chain.stats.drift, 0.0);
          }
}

// --- MAP (bursty) short arrivals -----------------------------------------------

SystemConfig with_map(double rho_s, double rho_l, dist::MapProcess map, double long_scv = 1.0) {
  SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0, long_scv);
  c.short_arrivals = std::make_shared<dist::MapProcess>(std::move(map));
  return c;
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
  const double pinned = 0x1.08960b6581d78p+3;
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
  EXPECT_EQ(r.chain.r.rows(), (2u * 3u + 2u * 2u * 2u) * 2u);  // (k=2 chain) x 2 MAP phases
  sim::SimOptions opts;
  opts.total_completions = 1500000;
  const sim::SimResult s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
  EXPECT_NEAR(r.metrics.shorts.mean_response, s.shorts.mean_response,
              0.05 * s.shorts.mean_response + 2.0 * s.shorts.ci95);
  EXPECT_NEAR(r.metrics.longs.mean_response, s.longs.mean_response,
              0.05 * s.longs.mean_response + 2.0 * s.longs.ci95);
}

}  // namespace
}  // namespace csq::analysis {
