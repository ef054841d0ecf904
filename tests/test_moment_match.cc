#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/status.h"
#include "dist/moment_match.h"
#include "transforms/busy_period.h"

namespace csq::dist {
namespace {

void expect_moments(const PhaseType& ph, const Moments& target, double rel = 1e-8,
                    int upto = 3) {
  EXPECT_NEAR(ph.moment(1), target.m1, rel * target.m1);
  if (upto >= 2) {
    EXPECT_NEAR(ph.moment(2), target.m2, rel * target.m2);
  }
  if (upto >= 3) {
    EXPECT_NEAR(ph.moment(3), target.m3, rel * target.m3);
  }
}

TEST(MomentMatch, ExponentialTargetsReturnExponential) {
  const Moments m = Moments::exponential(2.5);
  FitReport rep;
  const PhaseType ph = fit_ph(m, 3, &rep);
  expect_moments(ph, m);
  EXPECT_EQ(rep.moments_matched, 3);
}

TEST(MomentMatch, OneMomentFit) {
  const Moments m{4.0, 100.0, 5000.0};
  FitReport rep;
  const PhaseType ph = fit_ph(m, 1, &rep);
  EXPECT_TRUE(ph.is_exponential());
  EXPECT_NEAR(ph.mean(), 4.0, 1e-12);
  EXPECT_EQ(rep.moments_matched, 1);
}

TEST(MomentMatch, TwoMomentFitHighVariability) {
  const Moments m{1.0, 9.0, 1000.0};  // scv = 8
  FitReport rep;
  const PhaseType ph = fit_ph(m, 2, &rep);
  expect_moments(ph, m, 1e-8, 2);
  EXPECT_EQ(rep.moments_matched, 2);
}

TEST(MomentMatch, ThreeMomentCoxianOnBusyPeriods) {
  // Busy-period moments are the actual production inputs; check the fit
  // reproduces all three moments across a load sweep.
  for (const double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const Moments job = Moments::exponential(1.0);
    const Moments busy = transforms::mg1_busy_period(job, rho);
    FitReport rep;
    const PhaseType ph = fit_ph(busy, 3, &rep);
    EXPECT_EQ(rep.moments_matched, 3) << "rho=" << rho;
    expect_moments(ph, busy, 1e-6);
  }
}

TEST(MomentMatch, ThreeMomentCoxianOnHighVariabilityBusyPeriods) {
  const Moments job{1.0, 9.0, 250.0};  // scv = 8 Coxian-like long jobs
  for (const double lambda : {0.05, 0.5, 0.8}) {
    const Moments busy = transforms::mg1_busy_period(job, lambda);
    FitReport rep;
    const PhaseType ph = fit_ph(busy, 3, &rep);
    EXPECT_EQ(rep.moments_matched, 3) << "lambda=" << lambda;
    expect_moments(ph, busy, 1e-6);
  }
}

TEST(MomentMatch, InfeasibleThirdMomentFallsBack) {
  // n3 below the Coxian-2 feasibility bound: m3 < 1.5 m2^2 / m1.
  const Moments m{1.0, 3.0, 10.0};  // bound is 13.5
  FitReport rep;
  const PhaseType ph = fit_ph(m, 3, &rep);
  EXPECT_TRUE(rep.used_fallback);
  expect_moments(ph, m, 1e-8, 2);  // still matches two moments
}

TEST(MomentMatch, MixedErlangLowVariability) {
  const PhaseType ph = fit_mixed_erlang(2.0, 0.4);
  EXPECT_NEAR(ph.mean(), 2.0, 1e-9);
  EXPECT_NEAR(ph.scv(), 0.4, 1e-9);
  const PhaseType nearly_det = fit_mixed_erlang(1.0, 0.05);
  EXPECT_NEAR(nearly_det.scv(), 0.05, 1e-9);
}

TEST(MomentMatch, LowVariabilityThroughFitPh) {
  const Moments m{1.0, 1.25, 2.0};  // scv = 0.25
  const PhaseType ph = fit_ph(m, 2);
  EXPECT_NEAR(ph.mean(), 1.0, 1e-9);
  EXPECT_NEAR(ph.scv(), 0.25, 1e-9);
}

TEST(MomentMatch, InvalidInputsThrow) {
  EXPECT_THROW(fit_ph({-1.0, 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(fit_ph({1.0, 2.0, 6.0}, 4), std::invalid_argument);
  EXPECT_THROW(fit_ph({1.0, 0.5, 1.0}), std::invalid_argument);  // m2 < m1^2
  EXPECT_THROW(fit_mixed_erlang(1.0, 2.0), std::invalid_argument);
}

TEST(MomentMatch, RejectsNonFiniteMoments) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(fit_ph({bad, 2.0, 6.0}, 3), InvalidInputError);
    EXPECT_THROW(fit_ph({1.0, bad, 6.0}, 3), InvalidInputError);
    EXPECT_THROW(fit_ph({1.0, 2.0, bad}, 3), InvalidInputError);
    EXPECT_THROW(fit_ph({bad, 2.0, 6.0}, 1), InvalidInputError);
    EXPECT_THROW(fit_ph({1.0, bad, 6.0}, 2), InvalidInputError);
    // A moment the fit does not read may be anything.
    EXPECT_TRUE(fit_ph({1.0, bad, bad}, 1).is_exponential());
    FitReport rep;
    EXPECT_NEAR(fit_ph({1.0, 2.0, bad}, 2, &rep).mean(), 1.0, 1e-12);
    EXPECT_EQ(rep.moments_matched, 3);  // scv 1: the exponential matches all
  }
  // The rejection comes before the memo: a retry throws again rather than
  // returning a memoised NaN fit.
  EXPECT_THROW(fit_ph({nan, 2.0, 6.0}, 3), InvalidInputError);
}

class CoxianFitSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CoxianFitSweep, ReproducesMomentsAcrossScvAndSkew) {
  const auto [scv, n3_factor] = GetParam();
  // Build a target with mean 1, the given scv, and third moment set to
  // n3_factor times the Coxian-2 feasibility lower bound 1.5 m2^2 / m1.
  const double m2 = scv + 1.0;
  const double m3 = n3_factor * 1.5 * m2 * m2;
  const Moments target{1.0, m2, m3};
  FitReport rep;
  const PhaseType ph = fit_ph(target, 3, &rep);
  ASSERT_EQ(rep.moments_matched, 3);
  expect_moments(ph, target, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoxianFitSweep,
    ::testing::Combine(::testing::Values(1.5, 2.0, 4.0, 8.0, 16.0, 64.0),
                       ::testing::Values(1.05, 1.5, 3.0, 10.0)));

}  // namespace
}  // namespace csq::dist
