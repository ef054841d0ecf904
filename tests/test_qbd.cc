#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "mg1/mmc.h"
#include "qbd/qbd.h"

namespace csq::qbd {
namespace {

// M/M/1 as a one-phase QBD with a single boundary level.
Model mm1_model(double lambda, double mu) {
  Model m;
  m.a0 = Matrix{{lambda}};
  m.a1 = Matrix{{0.0}};
  m.a2 = Matrix{{mu}};
  m.first_down = Matrix{{mu}};
  m.boundary.resize(1);
  m.boundary[0].local = Matrix{{0.0}};
  m.boundary[0].up = Matrix{{lambda}};
  return m;
}

TEST(Qbd, MM1GeometricSolution) {
  const double lambda = 0.7, mu = 1.0;
  const Solution sol = solve(mm1_model(lambda, mu));
  const double rho = lambda / mu;
  EXPECT_NEAR(sol.r(0, 0), rho, 1e-10);
  EXPECT_NEAR(sol.total_mass(), 1.0, 1e-10);
  EXPECT_NEAR(sol.mean_level(), rho / (1 - rho), 1e-8);
  EXPECT_NEAR(sol.level_probability(0), 1 - rho, 1e-10);
  EXPECT_NEAR(sol.level_probability(3), (1 - rho) * std::pow(rho, 3), 1e-10);
}

TEST(Qbd, MM1WithExtraBoundaryLevels) {
  // Same chain, but declaring levels 0..2 as boundary must not change the
  // answer — exercises the heterogeneous-boundary assembly.
  const double lambda = 0.5, mu = 1.0;
  Model m;
  m.a0 = Matrix{{lambda}};
  m.a1 = Matrix{{0.0}};
  m.a2 = Matrix{{mu}};
  m.first_down = Matrix{{mu}};
  m.boundary.resize(3);
  for (int i = 0; i < 3; ++i) {
    m.boundary[static_cast<std::size_t>(i)].local = Matrix{{0.0}};
    m.boundary[static_cast<std::size_t>(i)].up = Matrix{{lambda}};
    if (i > 0) m.boundary[static_cast<std::size_t>(i)].down = Matrix{{mu}};
  }
  const Solution sol = solve(m);
  EXPECT_NEAR(sol.mean_level(), 1.0, 1e-8);
  EXPECT_NEAR(sol.level_probability(1), 0.25, 1e-10);
}

TEST(Qbd, MM2MatchesErlangC) {
  // M/M/2: boundary levels 0 (no service) and 1 (rate mu), repeating 2mu.
  const double lambda = 1.2, mu = 1.0;
  Model m;
  m.a0 = Matrix{{lambda}};
  m.a1 = Matrix{{0.0}};
  m.a2 = Matrix{{2.0 * mu}};
  m.first_down = Matrix{{2.0 * mu}};
  m.boundary.resize(2);
  m.boundary[0].local = Matrix{{0.0}};
  m.boundary[0].up = Matrix{{lambda}};
  m.boundary[1].local = Matrix{{0.0}};
  m.boundary[1].up = Matrix{{lambda}};
  m.boundary[1].down = Matrix{{mu}};
  const Solution sol = solve(m);
  const double expected_mean_number = lambda * mg1::mmc_response(2, lambda, mu);
  EXPECT_NEAR(sol.mean_level(), expected_mean_number, 1e-8);
}

TEST(Qbd, UnstableThrows) {
  EXPECT_THROW(solve(mm1_model(1.0, 1.0)), std::domain_error);
  EXPECT_THROW(solve(mm1_model(1.5, 1.0)), std::domain_error);
}

TEST(Qbd, MalformedModelThrows) {
  Model m = mm1_model(0.5, 1.0);
  m.first_down = Matrix{{0.7}};  // row sums no longer match a2
  EXPECT_THROW(solve(m), std::invalid_argument);
  Model m2 = mm1_model(0.5, 1.0);
  m2.boundary.clear();
  EXPECT_THROW(solve(m2), std::invalid_argument);
}

// A 2-phase MMPP/M/1: arrivals only in phase 1 at rate lambda; modulator
// flips between phases at rates (a, b). Cross-check functional iteration
// against logarithmic reduction.
TEST(Qbd, LogarithmicReductionAgreesWithFunctionalIteration) {
  const double lambda = 1.4, mu = 1.0, a = 0.3, b = 0.9;
  Matrix a0{{0.0, 0.0}, {0.0, lambda}};
  Matrix a1{{0.0, a}, {b, 0.0}};
  Matrix a2{{mu, 0.0}, {0.0, mu}};
  // Fill a1 diagonal for the repeating generator row sums.
  a1(0, 0) = -(a + mu);
  a1(1, 1) = -(b + lambda + mu);
  const Matrix r_iter = solve_r(a0, a1, a2);
  const Matrix g = solve_g_logred(a0, a1, a2);
  const Matrix r_lr = r_from_g(a0, a1, g);
  EXPECT_LT((r_iter - r_lr).max_abs(), 1e-9);
  // G must be stochastic for a recurrent chain.
  const auto rs = g.row_sums();
  EXPECT_NEAR(rs[0], 1.0, 1e-9);
  EXPECT_NEAR(rs[1], 1.0, 1e-9);
}

TEST(Qbd, MmppMeanLevelMatchesPollaczekKhinchineStyleCheck) {
  // Sanity: an MMPP/M/1 with a phase that never generates arrivals still
  // solves and conserves mass; mean level is between the M/M/1 values at
  // the low and high arrival-rate phases... (coarse envelope check).
  const double lambda = 0.9, mu = 1.0, a = 2.0, b = 2.0;
  Model m;
  m.a0 = Matrix{{0.0, 0.0}, {0.0, lambda}};
  m.a1 = Matrix{{0.0, a}, {b, 0.0}};
  m.a2 = Matrix{{mu, 0.0}, {0.0, mu}};
  m.first_down = m.a2;
  m.boundary.resize(1);
  m.boundary[0].local = m.a1;
  m.boundary[0].up = m.a0;
  const Solution sol = solve(m);
  EXPECT_NEAR(sol.total_mass(), 1.0, 1e-9);
  // Effective load is lambda/2; must exceed the M/M/1 mean at lambda/2
  // (burstiness penalty) and stay finite.
  const double rho_eff = 0.5 * lambda / mu;
  EXPECT_GT(sol.mean_level(), rho_eff / (1 - rho_eff));
  EXPECT_LT(sol.mean_level(), 50.0);
}

// Every solve on a thread shares that thread's scratch, so a solve that
// throws with the buffers mid-iteration must leave nothing behind that the
// next solve can see, even when the next chain has a different shape.
TEST(Qbd, FailedSolveDoesNotPoisonTheThreadScratch) {
  // Four phases at lambda = 1.8 need over a hundred iterations; three with
  // no fallback throw NotConvergedError with the R² / A0 + R²A2 / next-R
  // buffers written.
  const std::size_t m4 = 4;
  Matrix a0(m4, m4), a1(m4, m4), a2(m4, m4);
  for (std::size_t i = 0; i < m4; ++i) {
    a0(i, i) = 1.8;
    a2(i, i) = 2.0;
    a1(i, (i + 1) % m4) = 0.3;
    a1(i, i) = -(1.8 + 2.0 + 0.3);
  }
  Options starved;
  starved.max_iterations = 3;
  starved.allow_fallback = false;

  // The follow-up solve: the two-phase MMPP/M/1 above.
  Model next;
  next.a0 = Matrix{{0.0, 0.0}, {0.0, 0.9}};
  next.a1 = Matrix{{0.0, 2.0}, {2.0, 0.0}};
  next.a2 = Matrix{{1.0, 0.0}, {0.0, 1.0}};
  next.first_down = next.a2;
  next.boundary.resize(1);
  next.boundary[0].local = next.a1;
  next.boundary[0].up = next.a0;

  Solution after_failure;
  std::thread([&] {
    EXPECT_THROW((void)solve_r(a0, a1, a2, starved), NotConvergedError);
    after_failure = solve(next);
  }).join();
  Solution fresh;
  std::thread([&] { fresh = solve(next); }).join();

  EXPECT_EQ(after_failure.r.data(), fresh.r.data());
  EXPECT_EQ(after_failure.boundary_pi, fresh.boundary_pi);
  EXPECT_EQ(after_failure.pi_k, fresh.pi_k);
  EXPECT_EQ(after_failure.stats.iterations, fresh.stats.iterations);
  EXPECT_EQ(after_failure.stats.residual, fresh.stats.residual);
}

}  // namespace
}  // namespace csq::qbd

namespace csq::qbd {
namespace {

TEST(QbdTails, MM1GeometricTail) {
  const double rho = 0.6;
  Model m;
  m.a0 = Matrix{{rho}};
  m.a1 = Matrix{{0.0}};
  m.a2 = Matrix{{1.0}};
  m.first_down = Matrix{{1.0}};
  m.boundary.resize(1);
  m.boundary[0].local = Matrix{{0.0}};
  m.boundary[0].up = Matrix{{rho}};
  const Solution sol = solve(m);
  EXPECT_NEAR(sol.tail_decay_rate(), rho, 1e-9);
  // P(N > n) = rho^{n+1} for M/M/1.
  EXPECT_NEAR(sol.level_tail(0), rho, 1e-10);
  EXPECT_NEAR(sol.level_tail(4), std::pow(rho, 5), 1e-10);
  // Quantile: smallest n with 1 - rho^{n+1} >= q.
  const std::size_t p99 = sol.level_quantile(0.99);
  EXPECT_GE(1.0 - std::pow(rho, p99 + 1), 0.99);
  EXPECT_LT(1.0 - std::pow(rho, static_cast<double>(p99)), 0.99);
  EXPECT_THROW((void)sol.level_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)sol.level_quantile(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(QbdTails, TailAndProbabilityConsistent) {
  const double lambda = 1.2, mu = 1.0;
  Model m;
  m.a0 = Matrix{{lambda}};
  m.a1 = Matrix{{0.0}};
  m.a2 = Matrix{{2.0 * mu}};
  m.first_down = Matrix{{2.0 * mu}};
  m.boundary.resize(2);
  m.boundary[0].local = Matrix{{0.0}};
  m.boundary[0].up = Matrix{{lambda}};
  m.boundary[1].local = Matrix{{0.0}};
  m.boundary[1].up = Matrix{{lambda}};
  m.boundary[1].down = Matrix{{mu}};
  const Solution sol = solve(m);
  for (const std::size_t n : {0u, 1u, 3u, 7u}) {
    EXPECT_NEAR(sol.level_tail(n) - sol.level_tail(n + 1), sol.level_probability(n + 1),
                1e-12);
  }
  EXPECT_NEAR(sol.level_tail(0), 1.0 - sol.level_probability(0), 1e-12);
}

}  // namespace
}  // namespace csq::qbd
