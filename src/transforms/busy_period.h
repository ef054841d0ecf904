// Busy-period transforms for the busy-period-transition technique.
//
// The CS-CQ chain replaces the long-job dimension with transitions whose
// durations are busy periods of the long-job M/G/1 queue:
//
//   B_L      — busy period started by a single long job;
//   B_{N+1}  — busy period started by N+1 long jobs, where N is the number
//              of Poisson(lambda) arrivals during an accumulation window
//              Theta (the wait for the first of the in-service shorts to
//              complete: Exp(2 mu_S) for CS-CQ with exponential shorts,
//              Exp(mu_S) for the CS-ID short-service accumulation period).
//
// Both are delay cycles — a busy period started by some initial work W —
// and their first three moments have closed forms with only positive terms
// (docs/analysis.md §1).
//
// Throws csq::InvalidInputError on malformed arguments and
// csq::UnstableError when the offered load is outside the stability
// region (core/status.h).
#pragma once

#include "dist/distribution.h"

namespace csq::transforms {

// First three raw moments of the M/G/1 busy period with job-size moments
// `job` and Poisson arrival rate `lambda`. Requires rho = lambda*m1 < 1.
[[nodiscard]] dist::Moments mg1_busy_period(const dist::Moments& job, double lambda);

// B_{N+1}: the busy period started by N+1 jobs, where N ~ #Poisson(lambda)
// arrivals during a window with the given raw moments. Used directly by
// the phase-type-shorts chain, where the window is the first completion
// among two PH services.
[[nodiscard]] dist::Moments batch_busy_period_window(const dist::Moments& job, double lambda,
                                                     const dist::Moments& window);

// B_{N+1} for an Exp(delta) window.
[[nodiscard]] dist::Moments batch_busy_period(const dist::Moments& job, double lambda,
                                              double delta);

}  // namespace csq::transforms
