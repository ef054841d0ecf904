#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/stability.h"
#include "core/config.h"
#include "core/numeric.h"
#include "csid_chain.h"
#include "linalg/lu.h"
#include "mg1/mmc.h"
#include "obs/obs.h"
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

// --- spectral probe -------------------------------------------------------------

// Plain Gelfand squaring for exactly 60 steps, no early stop: the limit the
// probe's early stop must reach.
double gelfand_60(const Matrix& m) {
  const std::size_t n = m.rows();
  Matrix p = m;
  double log_est = 0.0, scale = 1.0;
  for (int k = 0; k <= 60; ++k) {
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j) s += std::abs(p(i, j));
      c = std::max(c, s);
    }
    if (num::exactly_zero(c)) return 0.0;
    log_est += std::log(c) * scale;
    p *= 1.0 / c;
    p = p * p;
    scale *= 0.5;
  }
  return std::exp(log_est);
}

void expect_radius(const Matrix& m, double want, const std::string& what) {
  bool converged = false;
  const double got = spectral_radius_estimate(m, 500, 1e-12, &converged);
  EXPECT_TRUE(converged) << what;
  EXPECT_NEAR(got, want, 1e-11 * want) << what;
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
  // norm until 2^k ~ 2400, and its estimate settles on 0.5 long before.
  expect_radius(Matrix{{0.5, 0.3, 0.0}, {0.0, 0.0, 0.0}, {0.0, 0.0, 0.5001}}, 0.5001,
                "larger eigenvalue behind a weaker row");
  // A near-defective pair 1e-7 apart: the maximal row's norm is
  // 0.5^N (1 + 1e-8 N) until N ~ 1e7, so its estimate plateaus 1e-8 high.
  expect_radius(Matrix{{0.5, 5e-9}, {0.0, 0.5 * (1.0 - 1e-7)}}, 0.5, "near-defective pair");

  bool converged = false;
  const double nil = spectral_radius_estimate(
      Matrix{{0.0, 1.0, 1.0, 1.0}, {0.0, 0.0, 1.0, 1.0}, {0.0, 0.0, 0.0, 1.0},
             {0.0, 0.0, 0.0, 0.0}},
      500, 1e-12, &converged);
  EXPECT_TRUE(converged);
  EXPECT_TRUE(num::exactly_zero(nil)) << nil;
}

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
}

TEST(QbdSpectral, SolveReportsTheGelfandLimit) {
  // Seeded CS-ID chains across the stability region, long means 1..30 and
  // C^2 1..20: the reported sp(R) must be the 60-squaring Gelfand limit,
  // not an early stop's estimate of it.
  std::mt19937_64 rng(24);
  double worst = 0.0;
  for (int rep = 0; rep < 300; ++rep) {
    const double rho_l = uniform(rng, 0.05, 0.9);
    const double rho_s = uniform(rng, 0.05, 0.999 * analysis::csid_max_rho_short(rho_l));
    const double mean_l = std::exp(uniform(rng, 0.0, std::log(30.0)));
    const double scv_l = std::exp(uniform(rng, 0.0, std::log(20.0)));
    const Solution sol = solve(test::csid_chain(rho_s, rho_l, mean_l, scv_l));
    const double want = gelfand_60(sol.r);
    const double rel = std::abs(sol.stats.spectral_radius - want) / want;
    EXPECT_LE(rel, 1e-14) << "rho_s " << rho_s << " rho_l " << rho_l << " mean_l " << mean_l
                          << " scv_l " << scv_l;
    worst = std::max(worst, rel);
  }
  RecordProperty("worst_relative_error", (::testing::Message() << worst).GetString());
}

TEST(QbdSpectral, SquaringsPerSolveStayFew) {
  if (!obs::compiled_in()) GTEST_SKIP() << "obs counters compiled out (-DCSQ_OBS=OFF)";
  // Seeded analyses over the paper's parameter ranges (long means 1 and
  // 10, C^2 1 and 8). Plain Gelfand squaring spends ~36 per solve on both
  // chains. CS-ID's near-degenerate R needs more than CS-CQ's even with
  // the extrapolation.
  std::mt19937_64 rng(2024);
  for (const bool csid : {false, true}) {
    const obs::DeltaScope scope;
    for (int rep = 0; rep < 200; ++rep) {
      const double rho_l = uniform(rng, 0.05, 0.9);
      const double cap = csid ? analysis::csid_max_rho_short(rho_l)
                              : analysis::cscq_max_rho_short(rho_l);
      const double rho_s = uniform(rng, 0.05, 0.999 * cap);
      const double mean_l = (rng() & 1) != 0 ? 10.0 : 1.0;
      const double scv_l = (rng() & 1) != 0 ? 8.0 : 1.0;
      const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, 1.0, mean_l, scv_l);
      if (csid)
        (void)analysis::analyze_csid(c);
      else
        (void)analysis::analyze_cscq(c);
    }
    const obs::MetricsDelta d = scope.delta();
    const double per_solve = static_cast<double>(d.value("qbd.spectral.squarings")) /
                             static_cast<double>(d.value("qbd.solve.calls"));
    EXPECT_LE(per_solve, csid ? 20.0 : 12.0) << (csid ? "CS-ID" : "CS-CQ");
    RecordProperty(csid ? "csid_squarings_per_solve" : "cscq_squarings_per_solve",
                   (::testing::Message() << per_solve).GetString());
  }
}

}  // namespace
}  // namespace csq::qbd
