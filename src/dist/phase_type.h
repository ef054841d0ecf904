// Continuous phase-type (PH) distributions: absorption time of a CTMC with
// initial vector alpha and upper-triangular subgenerator T. Covers
// exponential, Erlang and Coxian as named constructors; any acyclic
// (alpha, T) accepted with validation.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dist/distribution.h"
#include "linalg/matrix.h"

namespace csq::dist {

class PhaseType final : public Distribution {
 public:
  // General constructor: alpha must be a probability vector over the phases,
  // T a valid subgenerator (negative diagonal, nonnegative off-diagonal,
  // nonpositive row sums with at least one strictly negative "exit") that is
  // upper triangular: phases only move forward (acyclic PH), as in every
  // named constructor below. Throws csq::InvalidInputError on malformed
  // inputs.
  PhaseType(std::vector<double> alpha, linalg::Matrix t);

  static PhaseType exponential(double rate);
  static PhaseType erlang(int k, double rate);
  // Coxian: phase i has rate rates[i]; after phase i < k-1, continue to phase
  // i+1 with probability cont[i], else absorb. cont has size k-1.
  static PhaseType coxian(std::vector<double> rates, std::vector<double> cont);
  // Coxian with the given mean and squared coefficient of variation scv >= 1
  // (two-moment match; the paper's "Coxian with appropriate mean and C^2=8").
  static PhaseType coxian_mean_scv(double mean, double scv);

  [[nodiscard]] std::size_t num_phases() const { return alpha_.size(); }
  [[nodiscard]] const std::vector<double>& alpha() const { return alpha_; }
  [[nodiscard]] const linalg::Matrix& subgenerator() const { return t_; }
  // Exit (absorption) rate vector: -T * 1.
  [[nodiscard]] const std::vector<double>& exit_rates() const { return exit_; }

  [[nodiscard]] bool is_exponential() const { return num_phases() == 1; }
  // For a one-phase PH, the exponential rate.
  [[nodiscard]] double rate() const;

  [[nodiscard]] double sample(Rng& rng) const override;
  [[nodiscard]] double moment(int k) const override;
  [[nodiscard]] std::string name() const override;

 private:
  std::vector<double> alpha_;
  linalg::Matrix t_;
  std::vector<double> exit_;
  // The start phase when alpha is a unit vector, else num_phases().
  std::size_t fixed_start_;
  double moments_[3];  // cached raw moments
};

}  // namespace csq::dist
