#include <gtest/gtest.h>

#include <cmath>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/dedicated.h"
#include "analysis/stability.h"
#include "analysis/truncated_cscq.h"
#include "mg1/mg1.h"
#include "mg1/mmc.h"

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
  // Exponential/exponential: the truncated 2-D chain is exact up to
  // truncation; the busy-period-transition QBD should track it closely
  // (the paper reports <2% typical vs simulation).
  for (const double rho_l : {0.3, 0.6}) {
    for (const double rho_s : {0.5, 1.0}) {
      const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0);
      const CscqResult qbd = analyze_cscq(c);
      TruncatedCscqOptions topts;
      topts.max_shorts = 150;
      topts.max_longs = 150;
      const TruncatedCscqResult exact = analyze_cscq_truncated(c, topts);
      ASSERT_TRUE(exact.converged);
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
  EXPECT_LT(r.qbd_mass_error, 1e-8);
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
  c.short_size = std::make_shared<dist::Deterministic>(1.0);
  EXPECT_THROW((void)analyze_cscq(c), std::invalid_argument);
}

TEST(Cscq, FewerMomentsStillSolveButLoseAccuracy) {
  const SystemConfig c = SystemConfig::paper_setup(1.0, 0.6, 1.0, 1.0);
  TruncatedCscqOptions topts;
  topts.max_shorts = 140;
  topts.max_longs = 140;
  const double exact = analyze_cscq_truncated(c, topts).metrics.shorts.mean_response;
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

}  // namespace
}  // namespace csq::analysis
