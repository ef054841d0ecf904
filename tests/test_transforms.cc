#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dist/distribution.h"
#include "sim/rng.h"
#include "transforms/busy_period.h"

namespace csq::transforms {
namespace {

TEST(BusyPeriod, MM1ClosedForm) {
  // M/M/1 busy period: E[B] = 1/(mu(1-rho)), E[B^2] = 2/(mu^2 (1-rho)^3).
  const double mu = 2.0, lambda = 1.0;
  const dist::Moments job = dist::Moments::exponential(1.0 / mu);
  const dist::Moments b = mg1_busy_period(job, lambda);
  const double rho = lambda / mu;
  EXPECT_NEAR(b.m1, 1.0 / (mu * (1 - rho)), 1e-12);
  EXPECT_NEAR(b.m2, 2.0 / (mu * mu * std::pow(1 - rho, 3)), 1e-12);
  // Third moment of M/M/1 busy period: 6(1+rho)/(mu^3 (1-rho)^5).
  EXPECT_NEAR(b.m3, 6.0 * (1 + rho) / (std::pow(mu, 3) * std::pow(1 - rho, 5)), 1e-12);
}

TEST(BusyPeriod, ZeroLoadIsJustTheJob) {
  const dist::Moments job{2.0, 10.0, 80.0};
  const dist::Moments b = mg1_busy_period(job, 0.0);
  EXPECT_DOUBLE_EQ(b.m1, job.m1);
  EXPECT_DOUBLE_EQ(b.m2, job.m2);
  EXPECT_DOUBLE_EQ(b.m3, job.m3);
}

TEST(BusyPeriod, UnstableThrows) {
  EXPECT_THROW((void)mg1_busy_period(dist::Moments::exponential(1.0), 1.0), std::domain_error);
  EXPECT_THROW((void)mg1_busy_period(dist::Moments::exponential(1.0), -0.1), std::invalid_argument);
}

TEST(DelayCycle, SingleJobInitialWorkEqualsBusyPeriod) {
  // A window too short for any of its moments to register leaves the
  // initial work at one job, W = X to the last bit, and a delay cycle
  // started by one job's work is B_L.
  const dist::Moments job{1.0, 9.0, 250.0};
  const double lambda = 0.6;
  const dist::Moments via_delay =
      batch_busy_period_window(job, lambda, dist::Moments{1e-300, 0.0, 0.0});
  const dist::Moments direct = mg1_busy_period(job, lambda);
  EXPECT_NEAR(via_delay.m1, direct.m1, 1e-10 * direct.m1);
  EXPECT_NEAR(via_delay.m2, direct.m2, 1e-10 * direct.m2);
  EXPECT_NEAR(via_delay.m3, direct.m3, 1e-10 * direct.m3);
}

TEST(BatchBusyPeriod, LargeDeltaReducesToSingleBusyPeriod) {
  // delta -> infinity: no arrivals fit in the window, so B_{N+1} -> B_L.
  const dist::Moments job = dist::Moments::exponential(1.0);
  const double lambda = 0.5;
  const dist::Moments batch = batch_busy_period(job, lambda, 1e9);
  const dist::Moments single = mg1_busy_period(job, lambda);
  EXPECT_NEAR(batch.m1, single.m1, 1e-6);
  EXPECT_NEAR(batch.m2, single.m2, 1e-5);
  EXPECT_NEAR(batch.m3, single.m3, 1e-4);
}

TEST(BatchBusyPeriod, InitialWorkMeanClosedForm) {
  // E[W] = (1 + E[N]) E[X] with E[N] = lambda E[Theta], here for a fixed
  // window Theta = 1.7, and every unit of W starts a B_L-scaled drain:
  // E[B_{N+1}] = E[W] / (1 - rho).
  const dist::Moments job{2.0, 12.0, 120.0};
  const double lambda = 0.3, theta = 1.7;
  const dist::Moments b =
      batch_busy_period_window(job, lambda, {theta, theta * theta, theta * theta * theta});
  const double mean_work = (1.0 + lambda * theta) * job.m1;
  EXPECT_NEAR(b.m1, mean_work / (1.0 - lambda * job.m1), 1e-12 * b.m1);
}

TEST(BatchBusyPeriod, MeanMatchesWorkConservation) {
  // E[B_{N+1}] = E[W]/(1 - rho), E[W] = (1 + lambda/delta) E[X].
  const dist::Moments job{1.0, 9.0, 250.0};
  const double lambda = 0.5, delta = 2.0;
  const double mean_work = (1.0 + lambda / delta) * job.m1;
  const dist::Moments b = batch_busy_period(job, lambda, delta);
  EXPECT_NEAR(b.m1, mean_work / (1.0 - lambda * job.m1), 1e-10);
}

// Monte-Carlo oracle: simulate the batch busy period directly and compare
// the first two moments. This is the strongest check that the closed forms
// describe the right random variable.
TEST(BatchBusyPeriod, MonteCarloAgreement) {
  const double mu_l = 1.0;       // exponential long jobs, mean 1
  const double lambda = 0.5;     // long arrival rate
  const double delta = 2.0;      // Exp(delta) accumulation window
  dist::Rng rng = sim::make_rng(7);
  std::exponential_distribution<double> window(delta);
  std::exponential_distribution<double> size(mu_l);
  std::exponential_distribution<double> interarrival(lambda);

  const int kReps = 300000;
  double s1 = 0.0, s2 = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    // Initial work: N+1 jobs, N = Poisson arrivals during the window.
    const double theta = window(rng);
    double work = size(rng);
    for (double t = interarrival(rng); t < theta; t += interarrival(rng)) work += size(rng);
    // Busy period: drain `work` while arrivals keep joining.
    double busy = 0.0;
    double backlog = work;
    while (backlog > 0.0) {
      const double gap = interarrival(rng);
      if (gap < backlog) {
        busy += gap;
        backlog -= gap;
        backlog += size(rng);
      } else {
        busy += backlog;
        backlog = 0.0;
      }
    }
    s1 += busy;
    s2 += busy * busy;
  }
  s1 /= kReps;
  s2 /= kReps;

  const dist::Moments b =
      batch_busy_period(dist::Moments::exponential(1.0 / mu_l), lambda, delta);
  EXPECT_NEAR(s1, b.m1, 0.02 * b.m1);
  EXPECT_NEAR(s2, b.m2, 0.08 * b.m2);
}

}  // namespace
}  // namespace csq::transforms
