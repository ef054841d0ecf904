// The closed-form Coxian-2 fit (dist::fit_coxian2_3moments) against the
// scalar grid scan plus bisection it replaced, kept below verbatim as the
// reference. The scan samples g(x) on 4096 points of (0, m1) and bisects the
// first sign change, so it misses a pair of roots that share one grid cell;
// the closed form solves the quadratic that g's roots satisfy, so the two
// can differ only there, and in the last bits of the root. The checks:
//
//  - on busy-period moments from the paper's setups inside the Theorem 1
//    stability region, the found/fallback verdict and the root agree;
//  - on raw moment triples, every disagreement is a valid root the closed
//    form found and the scan skipped;
//  - every Coxian the closed form returns reproduces m1, m2 and m3 to 1e-12
//    relative;
//  - where both fit, the closed form is no further than the scan from the
//    root of the same quadratic solved in extended precision.
//
// Bit identity with the scan is not a goal: the closed form is a different
// computation, and it is the more accurate one.
//
// tools/check_warnings.sh runs this suite in its portable
// (-DCSQ_NATIVE_KERNELS=OFF) stage too, next to the golden pins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
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

// --- extended-precision roots ---------------------------------------------------

using Real = long double;

// a*b - c*d in long double, each product's rounding error recovered by fmal.
Real diff_of_products(Real a, Real b, Real c, Real d) {
  const Real cd = c * d;
  return std::fma(a, b, -cd) + std::fma(-c, d, cd);
}

// Both roots of (b - a^2) x^2 + (a b - c) x + (a c - b^2) = 0, a = m1,
// b = m2/2, c = m3/6, in long double. NaN where there is no real root.
struct Roots {
  Real r[2];
};

Roots extended_roots(const Moments& m) {
  const Real a = m.m1;
  const Real b = static_cast<Real>(m.m2) / 2;
  const Real c = static_cast<Real>(m.m3) / 6;
  const Real qa = std::fma(-a, a, b);
  const Real qb = std::fma(a, b, -c);
  const Real qc = diff_of_products(a, c, b, b);
  const Real disc = diff_of_products(qb, qb, 4 * qa, qc);
  const Real q = -(qb + std::copysign(std::sqrt(disc), qb)) / 2;
  return {{q / qa, qc / q}};
}

// Relative distance of the fitted x = 1/mu1 from the nearer extended root.
double root_error(double mu1, const Roots& roots) {
  const Real x = 1 / static_cast<Real>(mu1);
  Real err = std::numeric_limits<Real>::infinity();
  for (const Real r : roots.r)
    if (std::isfinite(r)) err = std::min(err, std::abs(x - r) / std::abs(r));
  return static_cast<double>(err);
}

// Largest relative error of the Coxian's m1, m2, m3 against the target.
double moment_error(const Moments& m, double mu1, double mu2, double p) {
  const Real x = 1 / static_cast<Real>(mu1);
  const Real y = 1 / static_cast<Real>(mu2);
  const Real py = p * y;
  const Real got[3] = {x + py, 2 * (x * x + py * (x + y)),
                       6 * (x * x * x + py * (x * x + x * y + y * y))};
  const double want[3] = {m.m1, m.m2, m.m3};
  Real err = 0;
  for (int k = 0; k < 3; ++k) err = std::max(err, std::abs(got[k] - want[k]) / want[k]);
  return static_cast<double>(err);
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

// Two fits name the same root when their x agree this closely; distinct
// roots of a triple the scan resolves lie at least a grid cell, m1/4097,
// apart.
constexpr double kSameRoot = 1e-9;

struct Tally {
  int roots = 0;
  int fallbacks = 0;
  int skipped_by_scan = 0;  // roots the closed form found and the scan missed
  double worst_closed = 0;  // worst root_error where both fit the same root
  double worst_scan = 0;
};

// Compares the two fits on one triple; a disagreement must be a valid root
// that the scan skipped, and is allowed only when `allow_skipped`.
void compare(const Moments& m, bool allow_skipped, Tally* tally) {
  double mu1 = 0, mu2 = 0, p = 0;
  double ref_mu1 = 0, ref_mu2 = 0, ref_p = 0;
  const bool found = fit_coxian2_3moments(m, &mu1, &mu2, &p);
  const bool ref_found = reference_fit(m, &ref_mu1, &ref_mu2, &ref_p);
  if (found) {
    EXPECT_LE(moment_error(m, mu1, mu2, p), 1e-12)
        << "m = {" << m.m1 << ", " << m.m2 << ", " << m.m3 << "}";
  }
  const bool same_root =
      found && ref_found && std::abs(mu1 - ref_mu1) <= kSameRoot * std::max(mu1, ref_mu1);
  if (found == ref_found && (!found || same_root)) {
    (found ? tally->roots : tally->fallbacks) += 1;
    if (!found) return;
    const Roots roots = extended_roots(m);
    tally->worst_closed = std::max(tally->worst_closed, root_error(mu1, roots));
    tally->worst_scan = std::max(tally->worst_scan, root_error(ref_mu1, roots));
    return;
  }
  ASSERT_TRUE(allow_skipped) << "verdicts or roots differ at m = {" << m.m1 << ", " << m.m2
                             << ", " << m.m3 << "}";
  // The scan found nothing, or only a larger root (x = 1/mu1) past the one
  // it skipped.
  ASSERT_TRUE(found) << "the scan fits m = {" << m.m1 << ", " << m.m2 << ", " << m.m3
                     << "} and the closed form does not";
  if (ref_found) {
    ASSERT_GT(mu1, ref_mu1) << "m = {" << m.m1 << ", " << m.m2 << ", " << m.m3 << "}";
  }
  ++tally->roots;
  ++tally->skipped_by_scan;
}

TEST(CoxianFitReference, AgreesWithTheScanOnTheorem1BusyPeriods) {
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
    compare(transforms::mg1_busy_period(xl, c.lambda_long), false, &tally);
    compare(transforms::batch_busy_period(xl, c.lambda_long, delta), false, &tally);
    if (HasFatalFailure()) return;
    ++points;
  }
  EXPECT_EQ(tally.roots + tally.fallbacks, 3000);
  EXPECT_GT(tally.roots, 2500) << "busy periods should mostly admit a 3-moment fit";
  EXPECT_LE(tally.worst_closed, tally.worst_scan);
}

TEST(CoxianFitReference, FindsEveryRootTheScanFindsOnRawTriples) {
  // Mean, scv and third moment relative to the Coxian-2 feasibility bound
  // 1.5 m2^2 / m1, spread so that a good share has no root and falls back.
  std::mt19937_64 rng(4097);
  Tally tally;
  for (int i = 0; i < 3000; ++i) {
    const double m1 = log_uniform(rng, 1e-3, 1e3);
    const double scv = log_uniform(rng, 0.05, 200.0);
    const double n3 = log_uniform(rng, 0.2, 50.0);
    const double m2 = (scv + 1.0) * m1 * m1;
    compare({m1, m2, n3 * 1.5 * m2 * m2 / m1}, true, &tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(tally.roots, 1000);
  EXPECT_GT(tally.fallbacks, 1000);
  EXPECT_GT(tally.skipped_by_scan, 0) << "no triple exercises a root the scan skips";
  EXPECT_LT(tally.skipped_by_scan, 100);
  EXPECT_LE(tally.worst_closed, tally.worst_scan);
}

}  // namespace
}  // namespace csq::dist
