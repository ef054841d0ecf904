#include "dist/distribution.h"

#include <cmath>
#include <sstream>

#include "core/status.h"

namespace csq::dist {

namespace {
void check_moment_order(int k) {
  if (k < 1 || k > 3) throw InvalidInputError("Distribution::moment: k must be 1..3");
}
}  // namespace

BoundedPareto::BoundedPareto(double lo, double hi, double alpha)
    : lo_(lo),
      hi_(hi),
      alpha_(alpha),
      lo_a_(std::pow(lo, alpha)),
      hi_a_(std::pow(hi, alpha)),
      neg_inv_alpha_(-1.0 / alpha) {
  if (lo <= 0.0 || hi <= lo || alpha <= 0.0)
    throw InvalidInputError("BoundedPareto: need 0 < lo < hi, alpha > 0");
}

double BoundedPareto::sample(Rng& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  // Inverse CDF of the bounded Pareto.
  return std::pow(-(u * hi_a_ - u * lo_a_ - hi_a_) / (hi_a_ * lo_a_), neg_inv_alpha_);
}

double BoundedPareto::moment(int k) const {
  check_moment_order(k);
  const double norm = lo_a_ / (1.0 - lo_a_ / hi_a_);
  if (std::abs(alpha_ - k) < 1e-12) {
    // E[X^k] = alpha * norm * ln(hi/lo) when alpha == k.
    return alpha_ * norm * std::log(hi_ / lo_);
  }
  return alpha_ * norm / (alpha_ - k) *
         (std::pow(lo_, static_cast<double>(k) - alpha_) -
          std::pow(hi_, static_cast<double>(k) - alpha_));
}

std::string BoundedPareto::name() const {
  std::ostringstream os;
  os << "BP(" << lo_ << "," << hi_ << ";a=" << alpha_ << ")";
  return os.str();
}

BoundedPareto BoundedPareto::with_mean(double mean, double hi, double alpha) {
  // Bisection on lo in (0, mean): the mean is increasing in lo.
  double a = mean * 1e-9;
  double b = mean;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (a + b);
    const double m = BoundedPareto(mid, hi, alpha).moment(1);
    (m < mean ? a : b) = mid;
  }
  return {0.5 * (a + b), hi, alpha};
}

}  // namespace csq::dist
