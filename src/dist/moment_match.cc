#include "dist/moment_match.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/status.h"

namespace csq::dist {

namespace {

// a*b - c*d to within a couple of ulps however much the two products cancel
// (Kahan): the fma recovers c*d's rounding error exactly.
double diff_of_products(double a, double b, double c, double d) {
  const double cd = c * d;
  const double err = std::fma(-c, d, cd);
  return std::fma(a, b, -cd) + err;
}

}  // namespace

bool fit_coxian2_3moments(const Moments& m, double* mu1, double* mu2, double* p_out) {
  // Coxian-2 with sojourn means x = 1/mu1, y = 1/mu2 and continuation
  // probability p satisfies, with a = m1, b = m2/2, c = m3/6,
  //   a = x + p y
  //   b = x^2 + p y (x + y)
  //   c = x^3 + p y (x^2 + x y + y^2).
  // Substituting p y = a - x gives y = (b - a x)/(a - x), and the third
  // equation becomes the quadratic
  //   (b - a^2) x^2 + (a b - c) x + (a c - b^2) = 0,
  // whose two roots are x and y: the sojourn means are the poles of the
  // Coxian's transform, and either phase may come first. The fit takes the
  // smaller root as x, the larger as y, when x < a and p = (a - x)/y lies in
  // (0, 1]; otherwise the larger root as x. Reading y off the quadratic
  // rather than from x avoids the cancellation in b - a x and a - x when x
  // lies near a.
  const double a = m.m1;
  if (a <= 0.0) return false;
  const double b = m.m2 / 2.0;
  const double c = m.m3 / 6.0;
  const double qa = std::fma(-a, a, b);
  const double qb = std::fma(a, b, -c);
  const double qc = diff_of_products(a, c, b, b);
  const double disc = diff_of_products(qb, qb, 4.0 * qa, qc);
  if (!(disc >= 0.0)) return false;  // no real root (or a NaN moment)
  // Roots without cancellation: q / qa and qc / q.
  const double q = -0.5 * (qb + std::copysign(std::sqrt(disc), qb));
  const double lo = std::min(q / qa, qc / q);
  const double hi = std::max(q / qa, qc / q);
  for (const auto& [x, y] : {std::pair{lo, hi}, std::pair{hi, lo}}) {
    // p y = a - x = qa / (y - a), since (a - x)(a - y) = a^2 - b; the larger
    // of the two differences carries the smaller relative error.
    const double py = std::abs(a - x) >= std::abs(y - a) ? a - x : qa / (y - a);
    const double p = py / y;
    if (x > 0.0 && x < a && y > 0.0 && p > 0.0 && p <= 1.0 + 1e-12) {
      *mu1 = 1.0 / x;
      *mu2 = 1.0 / y;
      *p_out = std::min(p, 1.0);
      return true;
    }
  }
  return false;
}

PhaseType fit_mixed_erlang(double mean, double scv) {
  if (mean <= 0.0 || scv <= 0.0 || scv > 1.0 + 1e-12)
    throw InvalidInputError("fit_mixed_erlang: need mean > 0, 0 < scv <= 1");
  if (scv > 1.0 - 1e-9) return PhaseType::exponential(1.0 / mean);
  // Tijms: pick k with 1/k <= scv <= 1/(k-1); mix Erlang(k-1) and Erlang(k).
  const int k = static_cast<int>(std::ceil(1.0 / scv));
  const double kd = k;
  const double p =
      (1.0 / (1.0 + scv)) * (kd * scv - std::sqrt(kd * (1.0 + scv) - kd * kd * scv));
  const double rate = (kd - p) / mean;
  // Build as a single Erlang(k) chain entered at stage 2 with probability p
  // (shortening it to k-1 stages).
  const auto n = static_cast<std::size_t>(k);
  std::vector<double> alpha(n, 0.0);
  alpha[0] = 1.0 - p;
  alpha[1] = p;
  linalg::Matrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t(i, i) = -rate;
    if (i + 1 < n) t(i, i + 1) = rate;
  }
  return {std::move(alpha), std::move(t)};
}

PhaseType fit_ph(const Moments& target, int max_moments, FitReport* report) {
  if (report) *report = FitReport{max_moments, 1, false};
  if (target.m1 <= 0.0) throw InvalidInputError("fit_ph: mean must be positive");
  if (max_moments < 1 || max_moments > 3)
    throw InvalidInputError("fit_ph: max_moments must be 1..3");
  // NaN slips past the m1 <= 0 guard; a non-finite moment the fit reads
  // would come back as a NaN-mean PhaseType.
  if (!std::isfinite(target.m1) || (max_moments >= 2 && !std::isfinite(target.m2)) ||
      (max_moments == 3 && !std::isfinite(target.m3)))
    throw InvalidInputError("fit_ph: moments must be finite");

  FitReport local_report{max_moments, 1, false};
  const auto done = [&](PhaseType ph) -> PhaseType {
    if (report) *report = local_report;
    return ph;
  };

  if (max_moments == 1) return done(PhaseType::exponential(1.0 / target.m1));

  const double scv = target.scv();
  if (scv < -1e-9) throw InvalidInputError("fit_ph: m2 < m1^2 is not realizable");

  const auto two_moment = [&]() -> PhaseType {
    local_report.moments_matched = 2;
    if (std::abs(scv - 1.0) < 1e-9) {
      local_report.moments_matched = 3;  // exponential matches all of them
      return PhaseType::exponential(1.0 / target.m1);
    }
    if (scv < 1.0) return fit_mixed_erlang(target.m1, std::max(scv, 1e-9));
    return PhaseType::coxian_mean_scv(target.m1, scv);
  };

  if (max_moments == 2) return done(two_moment());

  double mu1 = 0, mu2 = 0, p = 0;
  if (fit_coxian2_3moments(target, &mu1, &mu2, &p)) {
    local_report.moments_matched = 3;
    return done(PhaseType::coxian({mu1, mu2}, {p}));
  }
  local_report.used_fallback = true;
  return done(two_moment());
}

}  // namespace csq::dist
