// The blocked Coxian-2 grid scan (dist::fit_coxian2_3moments) against the
// scalar scan it replaced, kept below verbatim as the reference. The two
// must agree bit for bit — rates, continuation probability and the
// found/fallback verdict — on busy-period moments from the paper's setups
// inside the Theorem 1 stability region and on raw moment triples, including
// ones with no root in (0, m1) that take fit_ph's two-moment fallback.
//
// tools/check_warnings.sh runs this suite in its portable
// (-DCSQ_NATIVE_KERNELS=OFF) stage too, next to the golden pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "analysis/stability.h"
#include "core/config.h"
#include "dist/moment_match.h"
#include "transforms/busy_period.h"

namespace csq::dist {
namespace {

// --- reference: the scalar scan, verbatim -----------------------------------

double reduced_g(double x, const Moments& m, double* y_out, double* p_out) {
  const double denom = m.m1 - x;
  const double y = (m.m2 / 2.0 - x * x) / denom - x;
  const double p = denom / y;
  if (y_out) *y_out = y;
  if (p_out) *p_out = p;
  return x * x * x + denom * (x * x + x * y + y * y) - m.m3 / 6.0;
}

bool valid_root(double x, double y, double p, double m1) {
  return x > 0.0 && x < m1 && y > 0.0 && p > 0.0 && p <= 1.0 + 1e-12;
}

bool reference_fit(const Moments& m, double* mu1, double* mu2, double* p_out) {
  const double m1 = m.m1;
  if (m1 <= 0.0) return false;
  const int kGrid = 4096;
  double prev_x = m1 * (1.0 / (kGrid + 1));
  double prev_g = reduced_g(prev_x, m, nullptr, nullptr);
  for (int i = 2; i <= kGrid; ++i) {
    const double x = m1 * (static_cast<double>(i) / (kGrid + 1));
    const double g = reduced_g(x, m, nullptr, nullptr);
    if (std::isfinite(prev_g) && std::isfinite(g) && prev_g * g <= 0.0) {
      // Bisect on [prev_x, x].
      double lo = prev_x, hi = x, glo = prev_g;
      for (int it = 0; it < 200; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double gm = reduced_g(mid, m, nullptr, nullptr);
        if (glo * gm <= 0.0) {
          hi = mid;
        } else {
          lo = mid;
          glo = gm;
        }
      }
      double y = 0.0, p = 0.0;
      const double x_root = 0.5 * (lo + hi);
      reduced_g(x_root, m, &y, &p);
      if (valid_root(x_root, y, p, m1)) {
        *mu1 = 1.0 / x_root;
        *mu2 = 1.0 / y;
        *p_out = std::min(p, 1.0);
        return true;
      }
    }
    prev_x = x;
    prev_g = g;
  }
  return false;
}

// --- comparison ---------------------------------------------------------------

// Uniform in [lo, hi) from the top 53 bits: the same doubles on every
// standard library, unlike std::uniform_real_distribution.
double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
}

double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::exp(uniform(rng, std::log(lo), std::log(hi)));
}

struct Tally {
  int roots = 0;
  int fallbacks = 0;
};

// Asserts bit identity on one triple; counts which path it took.
void expect_identical(const Moments& m, Tally* tally) {
  // Distinct sentinels: an output the fit did not write must still match.
  double mu1 = -1.0, mu2 = -2.0, p = -3.0;
  double ref_mu1 = -1.0, ref_mu2 = -2.0, ref_p = -3.0;
  const bool found = fit_coxian2_3moments(m, &mu1, &mu2, &p);
  const bool ref_found = reference_fit(m, &ref_mu1, &ref_mu2, &ref_p);
  ASSERT_EQ(found, ref_found) << "m = {" << m.m1 << ", " << m.m2 << ", " << m.m3 << "}";
  ASSERT_EQ(std::bit_cast<std::uint64_t>(mu1), std::bit_cast<std::uint64_t>(ref_mu1))
      << "mu1 at m = {" << m.m1 << ", " << m.m2 << ", " << m.m3 << "}";
  ASSERT_EQ(std::bit_cast<std::uint64_t>(mu2), std::bit_cast<std::uint64_t>(ref_mu2))
      << "mu2 at m = {" << m.m1 << ", " << m.m2 << ", " << m.m3 << "}";
  ASSERT_EQ(std::bit_cast<std::uint64_t>(p), std::bit_cast<std::uint64_t>(ref_p))
      << "p at m = {" << m.m1 << ", " << m.m2 << ", " << m.m3 << "}";
  (found ? tally->roots : tally->fallbacks) += 1;
}

TEST(CoxianFitReference, BitIdenticalOnTheorem1BusyPeriods) {
  // B_L and B_{N+1} exactly as analyze_cscq builds them for exponential
  // shorts (delta = 2 mu_S), at paper_setup points with rho_S < 2 - rho_L.
  std::mt19937_64 rng(20050915);
  Tally tally;
  int points = 0;
  while (points < 1500) {
    const double rho_l = uniform(rng, 0.01, 0.99);
    const double rho_s = uniform(rng, 0.01, 2.0 - rho_l);
    const double mean_s = log_uniform(rng, 0.1, 10.0);
    const double mean_l = log_uniform(rng, 0.1, 100.0);
    const double scv_l = rng() % 4 == 0 ? 1.0 : uniform(rng, 1.0, 64.0);
    if (!analysis::cscq_stable(rho_s, rho_l)) continue;
    const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, mean_s, mean_l, scv_l);
    const Moments xl = c.long_size->moments();
    const double delta = 2.0 / c.short_size->moments().m1;
    expect_identical(transforms::mg1_busy_period(xl, c.lambda_long), &tally);
    expect_identical(transforms::batch_busy_period(xl, c.lambda_long, delta), &tally);
    if (HasFatalFailure()) return;
    ++points;
  }
  EXPECT_EQ(tally.roots + tally.fallbacks, 3000);
  EXPECT_GT(tally.roots, 2500) << "busy periods should mostly admit a 3-moment fit";
}

TEST(CoxianFitReference, BitIdenticalOnRawTriples) {
  // Mean, scv and third moment relative to the Coxian-2 feasibility bound
  // 1.5 m2^2 / m1, spread so that a good share has no root and falls back.
  std::mt19937_64 rng(4097);
  Tally tally;
  for (int i = 0; i < 3000; ++i) {
    const double m1 = log_uniform(rng, 1e-3, 1e3);
    const double scv = log_uniform(rng, 0.05, 200.0);
    const double n3 = log_uniform(rng, 0.2, 50.0);
    const double m2 = (scv + 1.0) * m1 * m1;
    expect_identical({m1, m2, n3 * 1.5 * m2 * m2 / m1}, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.roots, 1000);
  EXPECT_GT(tally.fallbacks, 1000);
}

}  // namespace
}  // namespace csq::dist
