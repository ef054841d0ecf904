// Classical single-server queueing formulas used throughout the analysis:
// Pollaczek-Khinchine, and the M/G/1 queue whose busy periods begin with a
// setup time (Takagi 1991) — the model the paper uses for the long jobs'
// response time under both cycle-stealing policies.
//
// Throws csq::InvalidInputError on malformed arguments and
// csq::UnstableError when the offered load is outside the stability region
// (core/status.h). The formulas are closed-form and take no RunBudget; an
// armed fault site (core/faultpoint.h) can surface any other taxonomy
// error.
#pragma once

#include "dist/distribution.h"

namespace csq::mg1 {

// Mean waiting time (time in queue, excluding service) of M/G/1 FCFS:
// lambda m2 / (2 (1 - rho)). Throws std::domain_error when rho >= 1.
[[nodiscard]] double pk_wait(double lambda, const dist::Moments& job);

// Mean response time (wait + service).
[[nodiscard]] double pk_response(double lambda, const dist::Moments& job);

// Mean waiting time of an M/G/1 queue in which every busy period is preceded
// by an independent setup time S (possibly zero with positive probability):
//   E[W] = lambda m2 / (2(1-rho)) + (2 E[S] + lambda E[S^2]) / (2(1 + lambda E[S])).
[[nodiscard]] double setup_wait(double lambda, const dist::Moments& job,
                                const dist::Moments& setup);

[[nodiscard]] double setup_response(double lambda, const dist::Moments& job,
                                    const dist::Moments& setup);

// M/M/1 mean response time 1/(mu - lambda).
[[nodiscard]] double mm1_response(double lambda, double mu);

// Second moment of M/G/1 FCFS waiting time (via the Takacs recursion):
//   E[W^2] = 2 E[W]^2 + lambda m3 / (3 (1 - rho)).
[[nodiscard]] double pk_wait_second_moment(double lambda, const dist::Moments& job);

}  // namespace csq::mg1
