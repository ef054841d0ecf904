#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/stability.h"
#include "core/config.h"
#include "core/numeric.h"
#include "csid_chain.h"
#include "dist/map_process.h"
#include "dist/phase_type.h"
#include "linalg/lu.h"
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
  // P(level == n) = P(level > n - 1) - P(level > n), P(level == 0) = 1 - P(level > 0).
  EXPECT_NEAR(1.0 - sol.level_tail(0), 1 - rho, 1e-10);
  EXPECT_NEAR(sol.level_tail(2) - sol.level_tail(3), (1 - rho) * std::pow(rho, 3), 1e-10);
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
  EXPECT_NEAR(sol.level_tail(0) - sol.level_tail(1), 0.25, 1e-10);  // P(level == 1)
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

// a^{-1} through fresh scratch.
Matrix inverted(const Matrix& a) {
  Matrix inv, lu;
  std::vector<int> perm;
  linalg::inverse_into(inv, a, lu, perm);
  return inv;
}

// Reference R by plain functional iteration, R <- -(A0 + R² A2) A1⁻¹ from
// R = 0, with generic products and no acceleration. It converges linearly
// at rate ~ sp(R), so it is only a reference: run it to a tolerance far
// below the one under test.
Matrix functional_iteration_reference(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                                      double tolerance) {
  const Matrix neg_a1_inv = (-1.0) * inverted(a1);
  Matrix r(a0.rows(), a0.cols());
  for (int it = 0; it < 1000000; ++it) {
    Matrix next = (a0 + r * r * a2) * neg_a1_inv;
    const double diff = linalg::max_abs_diff(next, r);
    r = std::move(next);
    if (diff < tolerance) return r;
  }
  ADD_FAILURE() << "reference functional iteration did not converge";
  return r;
}

// A 2-phase MMPP/M/1: arrivals only in phase 1 at rate lambda; modulator
// flips between phases at rates (a, b). solve_r's logarithmic reduction
// against the plain functional-iteration reference.
TEST(Qbd, LogarithmicReductionAgreesWithFunctionalIteration) {
  const double lambda = 1.4, mu = 1.0, a = 0.3, b = 0.9;
  Matrix a0{{0.0, 0.0}, {0.0, lambda}};
  Matrix a1{{0.0, a}, {b, 0.0}};
  Matrix a2{{mu, 0.0}, {0.0, mu}};
  // Fill a1 diagonal for the repeating generator row sums.
  a1(0, 0) = -(a + mu);
  a1(1, 1) = -(b + lambda + mu);
  SolveStats stats;
  const Matrix r_lr = solve_r(a0, a1, a2, {}, &stats);
  const Matrix r_fi = functional_iteration_reference(a0, a1, a2, 1e-15);
  EXPECT_LT(linalg::max_abs_diff(r_lr, r_fi), 1e-12);
  EXPECT_LE(stats.residual, 1e-14);
  // G = (-(A1 + R A2))⁻¹ A2 must be stochastic for a recurrent chain.
  const Matrix g = inverted((-1.0) * (a1 + r_lr * a2)) * a2;
  const auto rs = g.row_sums();
  EXPECT_NEAR(rs[0], 1.0, 1e-12);
  EXPECT_NEAR(rs[1], 1.0, 1e-12);
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
  // Four phases at lambda = 1.8 need several doubling steps; a cap of one
  // throws NotConvergedError with the H / L / G / T buffers written.
  const std::size_t m4 = 4;
  Matrix a0(m4, m4), a1(m4, m4), a2(m4, m4);
  for (std::size_t i = 0; i < m4; ++i) {
    a0(i, i) = 1.8;
    a2(i, i) = 2.0;
    a1(i, (i + 1) % m4) = 0.3;
    a1(i, i) = -(1.8 + 2.0 + 0.3);
  }
  Options starved;
  starved.max_iterations = 1;

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
  // M/M/2 with rho = lambda / (2 mu): P(level == 0) = (1 - rho)/(1 + rho) and
  // P(level == n) = 2 P(level == 0) rho^n for n >= 1. The first tail crosses
  // the boundary, the rest lie in the repeating portion.
  const double rho = lambda / (2.0 * mu);
  const double p0 = (1.0 - rho) / (1.0 + rho);
  EXPECT_NEAR(sol.level_tail(0), 1.0 - p0, 1e-12);
  for (const std::size_t n : {0u, 1u, 3u, 7u}) {
    EXPECT_NEAR(sol.level_tail(n) - sol.level_tail(n + 1),
                2.0 * p0 * std::pow(rho, static_cast<double>(n + 1)), 1e-12);
  }
}

}  // namespace
}  // namespace csq::qbd

namespace csq::qbd {
namespace {

// --- spectral radius on demand ----------------------------------------------

void expect_radius(const Matrix& m, double want, const std::string& what) {
  EXPECT_NEAR(spectral_radius_estimate(m), want, 1e-11 * want) << what;
}

TEST(QbdSpectral, HardSpectraWithinTolerance) {
  // Jordan blocks: ||J^N|| = (lambda + 1)^N exactly while N < d, so two
  // early estimates agree on lambda + 1; only from N >= d on do the norms
  // see lambda, and then with a polynomial factor N^(d-1).
  for (const double lambda : {0.5, 0.9})
    for (std::size_t d = 2; d <= 12; ++d) {
      Matrix j(d, d);
      for (std::size_t i = 0; i < d; ++i) {
        j(i, i) = lambda;
        if (i + 1 < d) j(i, i + 1) = 1.0;
      }
      expect_radius(j, lambda, "Jordan d = " + std::to_string(d) +
                                   ", lambda = " + std::to_string(lambda));
    }
  // Period 2: eigenvalues +-sqrt(0.4), and the row sums alternate.
  expect_radius(Matrix{{0.0, 0.5}, {0.8, 0.0}}, std::sqrt(0.4), "2-cycle");
  // Reducible with a zero row, like CS-ID's idle phase of R: the spectrum
  // is {0} and that of the {0, 2} block.
  expect_radius(Matrix{{0.3, 0.2, 0.1}, {0.0, 0.0, 0.0}, {0.2, 0.3, 0.5}},
                0.4 + std::sqrt(0.03), "zero row");
  expect_radius(Matrix{{0.7}}, 0.7, "1 x 1");
  // The larger eigenvalue sits in the weaker row: row 0 has the larger
  // norm until 2^k ~ 2400.
  expect_radius(Matrix{{0.5, 0.3, 0.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.5001}}, 0.5001,
                "larger eigenvalue behind a weaker row");
  // A near-defective pair 1e-7 apart: the maximal row's norm is
  // 0.5^N (1 + 1e-8 N) until N ~ 1e7.
  expect_radius(Matrix{{0.5, 5e-9}, {0.0, 0.5 * (1.0 - 1e-7)}}, 0.5, "near-defective pair");

  const double nil = spectral_radius_estimate(Matrix{{0.0, 1.0, 1.0, 1.0},
                                                     {0.0, 0.0, 1.0, 1.0},
                                                     {0.0, 0.0, 0.0, 1.0},
                                                     {0.0, 0.0, 0.0, 0.0}});
  EXPECT_TRUE(num::exactly_zero(nil)) << nil;
}

// --- stability by mean drift -------------------------------------------------

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
}

TEST(QbdDrift, CscqDriftIsTheTheoremOneGap) {
  // With exponential shorts the CS-CQ chain's repeating phases leave the
  // level up at the short arrival rate and down at mu_S (2 - rho_L) on
  // average, so its mean drift is (rho_S - (2 - rho_L)) / E[X_S]: Theorem 1's
  // frontier. MMPP arrivals at the same mean rate change nothing, because
  // the arrival phase runs independently of the servers.
  std::mt19937_64 rng(33);
  for (int rep = 0; rep < 24; ++rep) {
    const double rho_l = uniform(rng, 0.2, 0.9);
    const double gap = std::pow(10.0, -uniform(rng, 0.0, 3.0));
    const double mean_l = (rng() & 1) != 0 ? 10.0 : 1.0;
    const double scv_l = (rng() & 1) != 0 ? 8.0 : 1.0;
    const double mean_s = 1.0;
    const double rho_s = 2.0 - rho_l - gap;
    const double want = (rho_s - (2.0 - rho_l)) / mean_s;
    SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, mean_s, mean_l, scv_l);
    const std::string where = "rho_l " + std::to_string(rho_l) + " gap " +
                              std::to_string(gap) + " mean_l " + std::to_string(mean_l) +
                              " scv_l " + std::to_string(scv_l);
    EXPECT_NEAR(analysis::analyze_cscq(c).chain.stats.drift, want, 1e-9 * gap)
        << "Poisson, " << where;
    c.short_arrivals = std::make_shared<dist::MapProcess>(
        dist::MapProcess::bursty(c.lambda_short, 3.0, 0.2, 10.0));
    EXPECT_NEAR(analysis::analyze_cscq(c).chain.stats.drift, want, 1e-9 * gap)
        << "MMPP, " << where;
  }
}

TEST(QbdDrift, PhaseTypeShortsDriftTracksTheTheoremOneGap) {
  // Erlang-2 and C^2 = 4 Coxian shorts at the paper's long sizes (mean 10,
  // C^2 8): the B_{N+1} fit takes its window from the pair an arriving long
  // observes, not from the drift's stationary vector, so the drift is near
  // the frontier's gap, not on it.
  for (const bool erlang : {true, false})
    for (const double rho_l : {0.2, 0.5, 0.8})
      for (const double gap : {1e-1, 1e-2}) {
        SystemConfig c = SystemConfig::paper_setup(1.0, rho_l, 1.0, 10.0, 8.0);
        c.short_size = std::make_shared<dist::PhaseType>(
            erlang ? dist::PhaseType::erlang(2, 2.0)
                   : dist::PhaseType::coxian_mean_scv(1.0, 4.0));
        c.lambda_short = 2.0 - rho_l - gap;  // E[X_S] = 1
        const double drift = analysis::analyze_cscq(c).chain.stats.drift;
        EXPECT_LT(drift, 0.0);
        EXPECT_NEAR(drift, -gap, 2e-3 * gap) << (erlang ? "Erlang-2" : "Coxian C^2 = 4")
                                             << " rho_l " << rho_l << " gap " << gap;
      }
}

TEST(QbdDrift, CsidChainIsStableExactlyInsideItsFrontier) {
  // The CS-ID short host serves at mu_S = 1 and admits arrivals except while
  // the long host idles, which it does with probability (1 - rho_L) /
  // (1 + rho_S): the drift is rho_S (rho_S + rho_L) / (1 + rho_S) - 1, and
  // csid_max_rho_short is its root.
  for (const double rho_l : {0.2, 0.5, 0.8})
    for (const double mean_l : {1.0, 10.0})
      for (const double offset : {1e-2, 1e-4, 1e-6}) {
        const double cap = analysis::csid_max_rho_short(rho_l);
        const double inside = cap - offset;
        const std::string where = "rho_l " + std::to_string(rho_l) + " mean_l " +
                                  std::to_string(mean_l) + " offset " + std::to_string(offset);
        const Solution sol = solve(test::csid_chain(inside, rho_l, mean_l, 8.0));
        const double want = inside * (inside + rho_l) / (1.0 + inside) - 1.0;
        EXPECT_LT(sol.stats.drift, 0.0) << where;
        EXPECT_NEAR(sol.stats.drift, want, 1e-7 * std::abs(want)) << where;
        EXPECT_THROW((void)solve(test::csid_chain(cap + offset, rho_l, mean_l, 8.0)),
                     UnstableError)
            << where;
      }
}

}  // namespace
}  // namespace csq::qbd
