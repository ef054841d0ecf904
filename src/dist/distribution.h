// Service-time distributions: raw-moment bookkeeping plus sampling.
//
// The analytic machinery consumes only the first three raw moments (and, for
// short jobs, the exponential rate); the discrete-event simulator consumes
// samples. Both views live behind the Distribution interface so a single
// SystemConfig drives analysis and simulation alike.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include <memory>
#include <random>
#include <stdexcept>
#include <string>

namespace csq::dist {

// First three raw moments of a nonnegative random variable.
struct Moments {
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;

  [[nodiscard]] double mean() const { return m1; }
  [[nodiscard]] double variance() const { return m2 - m1 * m1; }
  // Squared coefficient of variation C^2 = Var/mean^2.
  [[nodiscard]] double scv() const { return variance() / (m1 * m1); }

  // Moments of an exponential with the given mean: k! mean^k.
  static Moments exponential(double mean) {
    return {mean, 2.0 * mean * mean, 6.0 * mean * mean * mean};
  }
};

using Rng = std::mt19937_64;

class Distribution {
 public:
  virtual ~Distribution() = default;

  [[nodiscard]] virtual double sample(Rng& rng) const = 0;
  // k in {1,2,3}.
  [[nodiscard]] virtual double moment(int k) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] double mean() const { return moment(1); }
  [[nodiscard]] Moments moments() const { return {moment(1), moment(2), moment(3)}; }
  [[nodiscard]] double scv() const { return moments().scv(); }
};

using DistPtr = std::shared_ptr<const Distribution>;

// Bounded Pareto on [lo, hi] with shape alpha — the canonical heavy-tailed
// job-size model in the task-assignment literature (Harchol-Balter et al.).
class BoundedPareto final : public Distribution {
 public:
  BoundedPareto(double lo, double hi, double alpha);
  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double moment(int k) const override;
  [[nodiscard]] std::string name() const override;

  // Bounded Pareto with the requested mean: solves for `lo` given hi, alpha.
  static BoundedPareto with_mean(double mean, double hi, double alpha);

 private:
  double lo_, hi_, alpha_;
};

}  // namespace csq::dist
