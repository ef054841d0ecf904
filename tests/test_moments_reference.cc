// The closed-form moments below the chain against the computations they
// replaced, kept below verbatim as the references:
//
//  - BusyPeriodReference: transforms::mg1_busy_period,
//    batch_busy_period and batch_busy_period_window against the
//    truncated-Taylor ("jet") composition of Laplace-Stieltjes transforms,
//    B~(s) = W~(s + lambda (1 - B~_L(s))), W~(s) = X~(s) G(X~(s)), over a
//    seeded grid of long loads, job variabilities, exponential windows and
//    random general windows. mg1_busy_period is checked against the jet
//    delay cycle started by a single job.
//  - PhaseTypeReference: PhaseType's back-substituted moments against
//    E[X^k] = k! alpha (-T)^{-k} 1 through the dense inverse of -T.
//  - Jet: the reference's series arithmetic against known expansions.
//
// Each pair is the same quantity by two routes with only positive terms,
// so they may differ only by rounding: every moment must agree to 16 ulp
// (relative 16 DBL_EPSILON).
//
// tools/check_warnings.sh runs BusyPeriodReference and PhaseTypeReference
// in its portable (-DCSQ_NATIVE_KERNELS=OFF) stage too, where
// dist/phase_type.cc loses its native flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/numeric.h"
#include "core/status.h"
#include "dist/distribution.h"
#include "dist/moment_match.h"
#include "dist/phase_type.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "transforms/busy_period.h"

// --- reference: the jet arithmetic, verbatim (the operations the composition
// and the Jet checks use) ------------------------------------------------------

namespace csq::jets {

inline constexpr int kOrder = 4;  // number of stored coefficients

struct Jet {
  std::array<double, kOrder> c{};

  constexpr double operator[](int i) const { return c[static_cast<std::size_t>(i)]; }
  constexpr double& operator[](int i) { return c[static_cast<std::size_t>(i)]; }

  static constexpr Jet constant(double v) { return Jet{{v, 0.0, 0.0, 0.0}}; }
  // The identity series s.
  static constexpr Jet variable() { return Jet{{0.0, 1.0, 0.0, 0.0}}; }
};

constexpr Jet operator+(const Jet& a, const Jet& b) {
  Jet r;
  for (int i = 0; i < kOrder; ++i) r[i] = a[i] + b[i];
  return r;
}

constexpr Jet operator-(const Jet& a) {
  Jet r;
  for (int i = 0; i < kOrder; ++i) r[i] = -a[i];
  return r;
}

constexpr Jet operator*(double s, const Jet& a) {
  Jet r;
  for (int i = 0; i < kOrder; ++i) r[i] = s * a[i];
  return r;
}

constexpr Jet operator+(const Jet& a, double s) {
  Jet r = a;
  r[0] += s;
  return r;
}
constexpr Jet operator-(double s, const Jet& a) { return (-a) + s; }

// Truncated Cauchy product.
constexpr Jet operator*(const Jet& a, const Jet& b) {
  Jet r;
  for (int i = 0; i < kOrder; ++i)
    for (int j = 0; i + j < kOrder; ++j) r[i + j] += a[i] * b[j];
  return r;
}

// Series reciprocal; requires a nonzero constant term.
inline Jet reciprocal(const Jet& a) {
  if (num::exactly_zero(a[0])) throw InvalidInputError("jets::reciprocal: zero constant term");
  Jet r;
  r[0] = 1.0 / a[0];
  for (int k = 1; k < kOrder; ++k) {
    double acc = 0.0;
    for (int j = 1; j <= k; ++j) acc += a[j] * r[k - j];
    r[k] = -acc / a[0];
  }
  return r;
}

inline Jet operator/(double s, const Jet& b) { return s * reciprocal(b); }

// Compose an analytic outer function with an inner series. The outer function
// is given by its *plain* derivatives d[k] = g^(k)(a) evaluated at the inner
// series' constant term a = inner[0]. Returns the jet of g(inner(s)).
constexpr Jet compose(const std::array<double, kOrder>& outer_derivs_at_inner0,
                      const Jet& inner) {
  Jet u = inner;
  u[0] = 0.0;  // u = inner - a
  const Jet u2 = u * u;
  const Jet u3 = u2 * u;
  return Jet::constant(outer_derivs_at_inner0[0]) + outer_derivs_at_inner0[1] * u +
         (outer_derivs_at_inner0[2] / 2.0) * u2 + (outer_derivs_at_inner0[3] / 6.0) * u3;
}

// Polynomial composition f(g(s)) where g has zero constant term.
constexpr Jet compose0(const Jet& f, const Jet& g) {
  if (!num::exactly_zero(g[0]))
    throw InvalidInputError("jets::compose0: inner constant term must be 0");
  const Jet g2 = g * g;
  const Jet g3 = g2 * g;
  return Jet::constant(f[0]) + f[1] * g + f[2] * g2 + f[3] * g3;
}

struct RawMoments3 {
  double m1 = 0, m2 = 0, m3 = 0;
};

// Jet of the LST E[e^{-sX}] of a random variable with the given raw moments.
constexpr Jet lst_from_moments(double m1, double m2, double m3) {
  return Jet{{1.0, -m1, m2 / 2.0, -m3 / 6.0}};
}

// Extract raw moments from an LST jet: E[X^k] = (-1)^k k! c_k.
constexpr RawMoments3 moments_from_lst(const Jet& f) {
  return {-f[1], 2.0 * f[2], -6.0 * f[3]};
}

}  // namespace csq::jets

namespace csq {
namespace {

// --- reference: the jet composition of the busy periods, verbatim -----------

using jets::Jet;

dist::Moments reference_delay_cycle(const Jet& initial_work, const dist::Moments& job,
                                    double lambda) {
  const dist::Moments bl = transforms::mg1_busy_period(job, lambda);
  // sigma(s) = s + lambda (1 - B~_L(s)); constant term is 0.
  const Jet bl_lst = jets::lst_from_moments(bl.m1, bl.m2, bl.m3);
  const Jet sigma = Jet::variable() + lambda * (1.0 - bl_lst);
  const Jet b = jets::compose0(initial_work, sigma);
  const auto mm = jets::moments_from_lst(b);
  return {mm.m1, mm.m2, mm.m3};
}

dist::Moments reference_batch_busy_period(const dist::Moments& job, double lambda,
                                          double delta) {
  const Jet x = jets::lst_from_moments(job.m1, job.m2, job.m3);
  // G(z) = E[z^N] = delta / (delta + lambda (1 - z)); W~ = X~ * G(X~).
  // G's derivatives at z0 = X~(0) = 1: G(1)=1, G^(k)(1) = k! (lambda/delta)^k.
  const double r = lambda / delta;
  const std::array<double, jets::kOrder> g_derivs = {1.0, r, 2.0 * r * r, 6.0 * r * r * r};
  return reference_delay_cycle(x * jets::compose(g_derivs, x), job, lambda);
}

dist::Moments reference_batch_busy_period_window(const dist::Moments& job, double lambda,
                                                 const dist::Moments& window) {
  const Jet x = jets::lst_from_moments(job.m1, job.m2, job.m3);
  // G(z) = E[z^N] = Theta~(lambda (1 - z)); derivatives at z = 1:
  // G^(k)(1) = lambda^k E[Theta^k].
  const std::array<double, jets::kOrder> g_derivs = {
      1.0, lambda * window.m1, lambda * lambda * window.m2,
      lambda * lambda * lambda * window.m3};
  const Jet w = x * jets::compose(g_derivs, x);
  return reference_delay_cycle(w, job, lambda);
}

// --- reference: PhaseType's dense-inverse moments, verbatim ------------------

// E[X^k] = k! * alpha * M^k * 1 with M = (-T)^{-1}.
dist::Moments reference_ph_moments(const dist::PhaseType& ph) {
  linalg::Matrix neg_t = ph.subgenerator();
  neg_t *= -1.0;
  linalg::Matrix m, lu;
  std::vector<int> perm;
  linalg::inverse_into(m, neg_t, lu, perm);
  std::vector<double> v = ph.alpha() * m;
  double moments[3];
  double fact = 1.0;
  for (int i = 0; i < 3; ++i) {
    fact *= (i + 1);
    moments[i] = fact * linalg::sum(v);
    v = v * m;
  }
  return {moments[0], moments[1], moments[2]};
}

// --- comparison ---------------------------------------------------------------

constexpr double kUlp = std::numeric_limits<double>::epsilon();
constexpr double kBound = 16 * kUlp;

// Uniform in [lo, hi) from the top 53 bits: the same doubles on every
// standard library, unlike std::uniform_real_distribution.
double uniform(std::mt19937_64& rng, double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1.0p-53);
}

double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::exp(uniform(rng, std::log(lo), std::log(hi)));
}

// Raw moments with the given mean and scv, and a third moment n3 times the
// Coxian-2 feasibility bound 1.5 m2^2 / m1.
dist::Moments moments_of(double m1, double scv, double n3) {
  const double m2 = (scv + 1.0) * m1 * m1;
  return {m1, m2, n3 * 1.5 * m2 * m2 / m1};
}

// Largest relative difference over the three moments; records it in *worst.
double rel_diff(const dist::Moments& got, const dist::Moments& want, double* worst) {
  const double got_m[3] = {got.m1, got.m2, got.m3};
  const double want_m[3] = {want.m1, want.m2, want.m3};
  double err = 0.0;
  for (int k = 0; k < 3; ++k) err = std::max(err, std::abs(got_m[k] - want_m[k]) / want_m[k]);
  *worst = std::max(*worst, err);
  return err;
}

std::string show(const dist::Moments& m) {
  return "{" + std::to_string(m.m1) + ", " + std::to_string(m.m2) + ", " +
         std::to_string(m.m3) + "}";
}

TEST(BusyPeriodReference, ClosedFormsMatchTheJetComposition) {
  std::mt19937_64 rng(19830411);
  double worst_single = 0.0, worst_batch = 0.0, worst_window = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double rho_l = uniform(rng, 0.001, 0.995);
    const dist::Moments job = moments_of(log_uniform(rng, 0.1, 100.0),
                                         log_uniform(rng, 0.05, 32.0),
                                         log_uniform(rng, 1.0, 10.0));
    const double lambda = rho_l / job.m1;
    const double delta = log_uniform(rng, 1e-2, 1e3);
    const dist::Moments window = moments_of(log_uniform(rng, 1e-3, 1e2),
                                            log_uniform(rng, 0.05, 32.0),
                                            log_uniform(rng, 1.0, 10.0));
    const std::string at = "rho_L = " + std::to_string(rho_l) + ", job " + show(job);

    const Jet one_job = jets::lst_from_moments(job.m1, job.m2, job.m3);
    ASSERT_LE(rel_diff(transforms::mg1_busy_period(job, lambda),
                       reference_delay_cycle(one_job, job, lambda), &worst_single),
              kBound)
        << "mg1_busy_period, " << at;
    ASSERT_LE(rel_diff(transforms::batch_busy_period(job, lambda, delta),
                       reference_batch_busy_period(job, lambda, delta), &worst_batch),
              kBound)
        << "batch_busy_period, delta = " << delta << ", " << at;
    ASSERT_LE(rel_diff(transforms::batch_busy_period_window(job, lambda, window),
                       reference_batch_busy_period_window(job, lambda, window),
                       &worst_window),
              kBound)
        << "batch_busy_period_window, window " << show(window) << ", " << at;
  }
  RecordProperty("worst_ulp_single", std::to_string(worst_single / kUlp));
  RecordProperty("worst_ulp_batch", std::to_string(worst_batch / kUlp));
  RecordProperty("worst_ulp_window", std::to_string(worst_window / kUlp));
}

TEST(PhaseTypeReference, BackSubstitutionMatchesTheDenseInverse) {
  // Every kind of PH the library builds: three-moment fits (Coxian-2 or,
  // where infeasible, the two-moment fallbacks: mixed Erlang below scv 1),
  // two-moment Coxians, Erlangs, and Coxians with up to 8 phases.
  std::mt19937_64 rng(1729);
  double worst = 0.0;
  const auto check = [&](const dist::PhaseType& ph, const std::string& what) {
    const dist::Moments got{ph.moment(1), ph.moment(2), ph.moment(3)};
    ASSERT_LE(rel_diff(got, reference_ph_moments(ph), &worst), kBound) << what;
  };
  for (int i = 0; i < 5000; ++i) {
    const dist::Moments target = moments_of(log_uniform(rng, 1e-3, 1e3),
                                            log_uniform(rng, 0.05, 64.0),
                                            log_uniform(rng, 0.2, 50.0));
    check(dist::fit_ph(target), "fit_ph " + show(target));
    check(dist::PhaseType::coxian_mean_scv(target.m1, 1.0 + target.scv()),
          "coxian_mean_scv " + show(target));
    check(dist::PhaseType::erlang(1 + static_cast<int>(rng() % 12), target.m1),
          "erlang " + std::to_string(target.m1));
    const std::size_t k = 1 + rng() % 8;
    std::vector<double> rates(k), cont(k - 1);
    for (double& r : rates) r = log_uniform(rng, 1e-2, 1e2);
    for (double& p : cont) p = uniform(rng, 0.0, 1.0);
    check(dist::PhaseType::coxian(rates, cont), "coxian, " + std::to_string(k) + " phases");
    if (HasFatalFailure()) return;
  }
  RecordProperty("worst_ulp", std::to_string(worst / kUlp));
}

}  // namespace
}  // namespace csq

// --- the reference arithmetic against known expansions ------------------------

namespace csq::jets {
namespace {

TEST(Jet, ProductTruncates) {
  // (1 + s)(1 - s) = 1 - s^2.
  const Jet a{{1, 1, 0, 0}};
  const Jet b{{1, -1, 0, 0}};
  const Jet p = a * b;
  EXPECT_DOUBLE_EQ(p[0], 1);
  EXPECT_DOUBLE_EQ(p[1], 0);
  EXPECT_DOUBLE_EQ(p[2], -1);
  EXPECT_DOUBLE_EQ(p[3], 0);
}

TEST(Jet, Reciprocal) {
  // 1/(1 + s) = 1 - s + s^2 - s^3.
  const Jet r = reciprocal(Jet{{1, 1, 0, 0}});
  EXPECT_DOUBLE_EQ(r[0], 1);
  EXPECT_DOUBLE_EQ(r[1], -1);
  EXPECT_DOUBLE_EQ(r[2], 1);
  EXPECT_DOUBLE_EQ(r[3], -1);
  EXPECT_THROW(reciprocal(Jet{{0, 1, 0, 0}}), csq::InvalidInputError);
}

TEST(Jet, DivisionMatchesGeometricSeries) {
  // mu/(mu + s) with mu = 2: coefficients (-1)^k / 2^k.
  const Jet f = 2.0 / (Jet::variable() + 2.0);
  EXPECT_DOUBLE_EQ(f[0], 1);
  EXPECT_DOUBLE_EQ(f[1], -0.5);
  EXPECT_DOUBLE_EQ(f[2], 0.25);
  EXPECT_DOUBLE_EQ(f[3], -0.125);
}

TEST(Jet, ExponentialLstRoundTrip) {
  // Exp(mu): LST mu/(mu+s), moments k!/mu^k.
  const double mu = 3.0;
  const Jet f = mu / (Jet::variable() + mu);
  const RawMoments3 m = moments_from_lst(f);
  EXPECT_NEAR(m.m1, 1.0 / mu, 1e-12);
  EXPECT_NEAR(m.m2, 2.0 / (mu * mu), 1e-12);
  EXPECT_NEAR(m.m3, 6.0 / (mu * mu * mu), 1e-12);
}

TEST(Jet, LstFromMomentsInverse) {
  const Jet f = lst_from_moments(1.5, 4.0, 20.0);
  const RawMoments3 m = moments_from_lst(f);
  EXPECT_DOUBLE_EQ(m.m1, 1.5);
  EXPECT_DOUBLE_EQ(m.m2, 4.0);
  EXPECT_DOUBLE_EQ(m.m3, 20.0);
}

TEST(Jet, Compose0Polynomial) {
  // f(u) = 1 + u + u^2 + u^3 composed with g = 2s:
  // 1 + 2s + 4s^2 + 8s^3.
  const Jet f{{1, 1, 1, 1}};
  const Jet g{{0, 2, 0, 0}};
  const Jet c = compose0(f, g);
  EXPECT_DOUBLE_EQ(c[0], 1);
  EXPECT_DOUBLE_EQ(c[1], 2);
  EXPECT_DOUBLE_EQ(c[2], 4);
  EXPECT_DOUBLE_EQ(c[3], 8);
  EXPECT_THROW(compose0(f, Jet{{1, 0, 0, 0}}), csq::InvalidInputError);
}

TEST(Jet, ComposeAnalyticOuter) {
  // g(z) = 1/(2 - z) around z = 1: derivatives k! — compose with inner
  // z(s) = 1 + s gives 1/(1 - s) = 1 + s + s^2 + s^3.
  const std::array<double, kOrder> derivs{1.0, 1.0, 2.0, 6.0};
  const Jet inner{{1, 1, 0, 0}};
  const Jet c = compose(derivs, inner);
  for (int k = 0; k < kOrder; ++k) EXPECT_NEAR(c[k], 1.0, 1e-12);
}

TEST(Jet, GeometricCompoundMatchesClosedForm) {
  // Sum of a Geometric(p)-distributed number (support 1,2,...) of Exp(mu)
  // variables is Exp(mu p): check via composition of the PGF with the LST.
  const double mu = 2.0, p = 0.25;
  const Jet x = mu / (Jet::variable() + mu);
  // PGF of Geometric(p) on {1,2,...}: g(z) = p z / (1 - (1-p) z).
  // Derivatives at z = 1: g(1)=1, g'(1)=1/p, g''(1)=2(1-p)/p^2,
  // g'''(1)=6(1-p)^2/p^3.
  const std::array<double, kOrder> derivs{1.0, 1.0 / p, 2.0 * (1 - p) / (p * p),
                                          6.0 * (1 - p) * (1 - p) / (p * p * p)};
  const RawMoments3 m = moments_from_lst(compose(derivs, x));
  const double rate = mu * p;
  EXPECT_NEAR(m.m1, 1.0 / rate, 1e-12);
  EXPECT_NEAR(m.m2, 2.0 / (rate * rate), 1e-12);
  EXPECT_NEAR(m.m3, 6.0 / (rate * rate * rate), 1e-12);
}

}  // namespace
}  // namespace csq::jets
