// Markovian Arrival Process (MAP): a CTMC with generator D0 + D1 where D1
// transitions emit an arrival. Subsumes Poisson (1 phase) and MMPP. The
// paper notes its Poisson-arrival assumption "can be generalized to a MAP";
// analysis/cscq.* takes it as the short class's arrival process.
//
// Throws csq::InvalidInputError (core/status.h) on malformed arguments.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dist/distribution.h"
#include "linalg/matrix.h"

namespace csq::dist {

class MapProcess {
 public:
  // d0: non-arrival transitions (negative diagonal); d1: arrival transitions
  // (nonnegative). Rows of d0 + d1 must sum to zero. Throws
  // csq::InvalidInputError on malformed generators and
  // csq::IllConditionedError when the stationary-phase solve degenerates.
  MapProcess(linalg::Matrix d0, linalg::Matrix d1);

  static MapProcess poisson(double rate);
  // 2-phase MMPP: arrival rate rate_i while in phase i; phase flips at
  // switch_01 (0 -> 1) and switch_10 (1 -> 0).
  static MapProcess mmpp2(double rate0, double rate1, double switch_01, double switch_10);
  // MMPP2 with a target mean rate and burstiness knobs: the high phase
  // carries `peak_to_mean` times the mean rate and holds a fraction
  // `high_fraction` of the time; mean sojourn in the high phase is
  // `high_sojourn`.
  static MapProcess bursty(double mean_rate, double peak_to_mean, double high_fraction,
                           double high_sojourn);

  [[nodiscard]] std::size_t num_phases() const { return d0_.rows(); }
  [[nodiscard]] const linalg::Matrix& d0() const { return d0_; }
  [[nodiscard]] const linalg::Matrix& d1() const { return d1_; }

  // Stationary distribution of the phase process (generator D0 + D1).
  [[nodiscard]] const std::vector<double>& stationary_phases() const { return pi_; }
  // Long-run arrival rate: pi D1 1.
  [[nodiscard]] double mean_rate() const { return mean_rate_; }

  // Sampling state for the simulator: current phase.
  struct State {
    std::size_t phase = 0;
  };
  // Initial phase drawn from the stationary distribution.
  [[nodiscard]] State stationary_state(Rng& rng) const;
  // Time until the next arrival, advancing the phase state.
  [[nodiscard]] double next_interarrival(State& state, Rng& rng) const;

 private:
  linalg::Matrix d0_, d1_;
  std::vector<double> pi_;
  double mean_rate_ = 0.0;
};

using MapPtr = std::shared_ptr<const MapProcess>;

}  // namespace csq::dist
