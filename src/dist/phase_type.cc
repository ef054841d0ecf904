#include "dist/phase_type.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/numeric.h"
#include "core/status.h"

namespace csq::dist {

PhaseType::PhaseType(std::vector<double> alpha, linalg::Matrix t)
    : alpha_(std::move(alpha)), t_(std::move(t)) {
  const std::size_t k = alpha_.size();
  if (k == 0 || t_.rows() != k || t_.cols() != k)
    throw InvalidInputError("PhaseType: alpha/T shape mismatch");
  double mass = 0.0;
  for (double a : alpha_) {
    if (a < -1e-12) throw InvalidInputError("PhaseType: negative alpha entry");
    mass += a;
  }
  if (std::abs(mass - 1.0) > 1e-9)
    throw InvalidInputError("PhaseType: alpha must sum to 1");
  // A unit alpha fixes the start phase, so sample() need not draw it.
  fixed_start_ = k;
  for (std::size_t i = 0; i < k; ++i) {
    if (num::exactly_eq(alpha_[i], 1.0)) {
      fixed_start_ = i;
    } else if (!num::exactly_zero(alpha_[i])) {
      fixed_start_ = k;
      break;
    }
  }
  exit_.assign(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    if (t_(i, i) >= 0.0) throw InvalidInputError("PhaseType: diagonal must be negative");
    double row = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (j < i && !num::exactly_zero(t_(i, j)))
        throw InvalidInputError("PhaseType: T must be upper triangular (acyclic phases)");
      if (i != j && t_(i, j) < -1e-12)
        throw InvalidInputError("PhaseType: negative off-diagonal");
      row += t_(i, j);
    }
    if (row > 1e-9) throw InvalidInputError("PhaseType: positive row sum in T");
    exit_[i] = -row;
  }
  // Cache moments: E[X^n] = n! * alpha * y_n with (-T) y_n = y_{n-1}, y_0 = 1.
  // -T is upper triangular, so each y_n is one back substitution, done in
  // place: y[i] still holds y_{n-1}[i] when row i is reached.
  std::vector<double> y(k, 1.0);
  double fact = 1.0;
  for (int n = 0; n < 3; ++n) {
    for (std::size_t i = k; i-- > 0;) {
      double acc = y[i];
      for (std::size_t j = i + 1; j < k; ++j) acc += t_(i, j) * y[j];
      y[i] = acc / -t_(i, i);
    }
    fact *= (n + 1);
    moments_[n] = fact * linalg::dot(alpha_, y);
  }
}

PhaseType PhaseType::exponential(double rate) {
  if (rate <= 0.0) throw InvalidInputError("PhaseType::exponential: rate <= 0");
  return {{1.0}, linalg::Matrix{{-rate}}};
}

PhaseType PhaseType::erlang(int k, double rate) {
  if (k < 1 || rate <= 0.0) throw InvalidInputError("PhaseType::erlang: bad params");
  const auto n = static_cast<std::size_t>(k);
  std::vector<double> alpha(n, 0.0);
  alpha[0] = 1.0;
  linalg::Matrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t(i, i) = -rate;
    if (i + 1 < n) t(i, i + 1) = rate;
  }
  return {std::move(alpha), std::move(t)};
}

PhaseType PhaseType::coxian(std::vector<double> rates, std::vector<double> cont) {
  const std::size_t n = rates.size();
  if (n == 0 || cont.size() != n - 1)
    throw InvalidInputError("PhaseType::coxian: need |cont| = |rates| - 1");
  std::vector<double> alpha(n, 0.0);
  alpha[0] = 1.0;
  linalg::Matrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rates[i] <= 0.0) throw InvalidInputError("PhaseType::coxian: rate <= 0");
    t(i, i) = -rates[i];
    if (i + 1 < n) {
      if (cont[i] < 0.0 || cont[i] > 1.0)
        throw InvalidInputError("PhaseType::coxian: continuation prob outside [0,1]");
      t(i, i + 1) = rates[i] * cont[i];
    }
  }
  return {std::move(alpha), std::move(t)};
}

PhaseType PhaseType::coxian_mean_scv(double mean, double scv) {
  if (mean <= 0.0) throw InvalidInputError("coxian_mean_scv: mean <= 0");
  if (std::abs(scv - 1.0) < 1e-9) return exponential(1.0 / mean);
  if (scv < 1.0)
    throw InvalidInputError("coxian_mean_scv: scv < 1 (use moment_match::fit_ph)");
  // Two-moment Coxian: mu1 = 2/m1; then m2 = (scv+1) m1^2 determines the
  // second phase. Derivation: with x = 1/mu1 = m1/2,
  //   y = 1/mu2 = m2/m1 - m1,  p = (m1 - x)/y.
  const double m2 = (scv + 1.0) * mean * mean;
  const double x = mean / 2.0;
  const double y = m2 / mean - mean;
  const double p = (mean - x) / y;
  return coxian({1.0 / x, 1.0 / y}, {p});
}

double PhaseType::rate() const {
  if (!is_exponential()) throw InvalidInputError("PhaseType::rate: not exponential");
  return -t_(0, 0);
}

double PhaseType::sample(Rng& rng) const {
  // Walk the absorbing CTMC, drawing only where the outcome is uncertain:
  // an exponential takes one word, a two-phase Coxian two or three.
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  double total = 0.0;
  std::size_t phase = fixed_start_;
  if (phase == num_phases()) {
    double u = unif(rng);
    for (phase = 0; phase + 1 < alpha_.size(); ++phase) {
      if (u < alpha_[phase]) break;
      u -= alpha_[phase];
    }
  }
  for (;;) {
    const double out = -t_(phase, phase);
    total += std::exponential_distribution<double>(out)(rng);
    // unif * out < out, so the exit test below cannot fail when the exit
    // rate is the whole rate (a phase with no off-diagonal rate): skip it.
    if (exit_[phase] >= out) return total;
    double v = unif(rng) * out;
    if (v < exit_[phase]) return total;
    v -= exit_[phase];
    std::size_t next = 0;
    for (std::size_t j = 0; j < alpha_.size(); ++j) {
      if (j == phase) continue;
      if (v < t_(phase, j)) {
        next = j;
        break;
      }
      v -= t_(phase, j);
      next = j;  // numerical slack: land on the last candidate
    }
    phase = next;
  }
}

double PhaseType::moment(int k) const {
  if (k < 1 || k > 3) throw InvalidInputError("PhaseType::moment: k must be 1..3");
  return moments_[k - 1];
}

std::string PhaseType::name() const {
  std::ostringstream os;
  os << "PH(" << num_phases() << " phases, mean=" << moments_[0] << ")";
  return os.str();
}

}  // namespace csq::dist
