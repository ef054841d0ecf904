// Cycle Stealing with Immediate Dispatch (CS-ID) — the paper's baseline,
// analyzed in the companion technical report (Harchol-Balter et al.,
// CMU-CS-02-158). The system decomposes into two coupled-but-one-way
// processes:
//
// Long host. A renewal process independent of the short host: idle periods
//   Exp(lambda_S + lambda_L); a cycle's busy part is a longs' busy period
//   started either by one long (the first arrival was long) or by one short
//   plus the longs accumulating behind it. This gives the exact idle
//   probability P(idle) = (1 - rho_L)/(1 + rho_S), and by PASTA a fraction
//   P(idle) of shorts is stolen (those complete in exactly E[X_S]).
//   Long-job response is an M/G/1 with setup chi: the first long of a
//   long-busy-cycle finds a short in service with probability
//       q = (1-a) b / (1 - (1-a)(1-b)),  a = lambda_L/(lambda_S+lambda_L),
//                                        b = lambda_L/(lambda_L+mu_S),
//   in which case it waits the short's (memoryless) residual Exp(mu_S).
//
// Short host. Arrivals are the shorts that find the long host busy: a
//   Markov-modulated Poisson process whose modulator is the long-host state
//   {Idle, Short-in-service, Short-in-service-with-longs-waiting, busy
//   period phases}, with the long-host busy periods represented by the same
//   busy-period-transition technique as CS-CQ (B_L for long-started cycles;
//   B_{N+1} with delta = mu_S for the longs accumulated behind a stolen
//   short). The short host is then an MMPP/M/1 QBD.
#pragma once

#include "core/config.h"
#include "dist/moment_match.h"
#include "obs/obs.h"
#include "qbd/qbd.h"

namespace csq::analysis {

struct CsidOptions {
  int busy_period_moments = 3;
  qbd::Options qbd;
};

struct CsidResult {
  PolicyMetrics metrics;

  double p_long_host_idle = 0.0;   // exact closed form
  double fraction_stolen = 0.0;    // = P(idle) by PASTA
  double p_setup = 0.0;            // q above
  // Consistency diagnostic: the modulator's stationary idle probability
  // should reproduce the closed form; |difference| recorded here.
  double modulator_idle_error = 0.0;
  dist::FitReport fit_single;
  dist::FitReport fit_batch;
  qbd::SolveStats solve_stats;     // R-solver stage, residual, condition estimate
  obs::MetricsDelta obs_metrics;   // counter increments during this call
};

// Throws csq::UnstableError (a std::domain_error) outside the CS-ID
// stability region and csq::InvalidInputError (a std::invalid_argument) when
// short sizes are not exponential or short arrivals are a MAP. QBD and linear-algebra failures escape
// as csq::NotConvergedError / csq::VerificationFailedError /
// csq::IllConditionedError; csq::DeadlineExceededError /
// csq::CancelledError surface when opts.budget is interrupted.
[[nodiscard]] CsidResult analyze_csid(const SystemConfig& config, const CsidOptions& opts = {});

// Long-job mean response only. The long host's behaviour depends only on the
// arrival streams (which shorts steal it is decided at arrival instants), so
// this is valid for ALL rho_S — including short-host-overloaded operating
// points like Figure 6's rho_S = 1.5. Requires rho_L < 1 and Poisson short
// arrivals (csq::InvalidInputError otherwise).
[[nodiscard]] double csid_long_response(const SystemConfig& config);

}  // namespace csq::analysis
