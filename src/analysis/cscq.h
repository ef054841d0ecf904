// Cycle Stealing with Central Queue (CS-CQ) — the paper's contribution.
//
// The number of short jobs is tracked exactly as the level of a QBD; the
// long-job dimension is collapsed into "busy period transitions": phase-type
// (default 2-stage Coxian) sojourns matched to the first three moments of
//
//   B_L      — M/G/1 busy period of longs started by one long (a long
//              arrived while a host was free for longs), and
//   B_{N+1}  — busy period started by the N+1 longs present when one of two
//              in-service shorts completes, N ~ #long arrivals during that
//              accumulation window Theta (a long arrived while both hosts
//              were serving shorts).
//
// Repeating-level phases:
//   A  — zero longs; shorts served by min(n,2) servers;
//   W  — both servers on shorts, >=1 long waiting (paper's region 5);
//   L* — B_L phases (regions 3);  P* — B_{N+1} phases (region 4).
//
// One chain covers the paper's model and both generalizations it sketches.
// Short sizes may be any phase-type distribution ("straightforward to
// generalize using any phase-type (e.g., Coxian) distribution"): A and W
// then carry the unordered pair of in-service short stages (one stage at
// level 1), and L*/P* the busy-period stage x the surviving short's stage.
// Short arrivals may be a MAP (config.short_arrivals, "can be generalized to
// a MAP"): every phase is crossed with the arrival phase, D1 moves up a
// level and D0's off-diagonal switches the arrival phase in place. Poisson
// is the one-phase MAP, and exponential shorts are one-stage PH, so the
// paper's chain is the 1 x 1 instance of this product.
//
// Theta is the first completion among the two in-service shorts, started
// from the pair distribution an arriving long observes (region-2 A states,
// by PASTA). That distribution comes from the solved chain, so Theta is
// refined by a short fixed-point iteration. For exponential shorts Theta is
// Exp(2 mu_S) whatever the pair, and one pass is exact.
//
// Short-job response time comes from the QBD mean level and Little's law;
// long-job response time from an M/G/1 queue with setup time chi, where chi
// is 0 if the first long of a long-busy-cycle finds <= 1 short in service
// (paper's region 1) and Theta if it finds both hosts serving shorts
// (region 2), with probabilities read off the solved chain via PASTA.
//
// Long jobs arrive Poisson; their general sizes enter through the first
// three moments only.
#pragma once

#include "core/config.h"
#include "dist/moment_match.h"
#include "qbd/qbd.h"

namespace csq::analysis {

struct CscqOptions {
  // How many busy-period moments the phase-type transitions match (1..3).
  // 3 is the paper's choice; 1 and 2 exist for the ablation bench.
  int busy_period_moments = 3;
  qbd::Options qbd;
};

struct CscqResult {
  PolicyMetrics metrics;

  // Diagnostics.
  double p_region1 = 0.0;  // P(zero longs, <= 1 short in service)
  double p_region2 = 0.0;  // P(zero longs, both servers on shorts)
  dist::Moments window;       // Theta, the B_{N+1} accumulation window
  dist::Moments busy_single;  // B_L moments
  dist::Moments busy_batch;   // B_{N+1} moments
  dist::FitReport fit_single;
  dist::FitReport fit_batch;
  int window_iterations = 0;  // Theta fixed-point passes (1 for exponential shorts),
                              // counting an unstable pass that forced a restart

  // The solved chain of the last window pass. Its level is the short-job
  // count, which the chain tracks exactly: chain.tail_decay_rate() is the
  // decay in P(N_S = n) ~ c * decay^n and chain.level_quantile(0.99) the
  // backlog a provisioner must absorb, both computed on demand. chain.stats
  // holds the solver's drift, doubling steps, residual and boundary condition
  // estimate, and chain.r.rows() is the repeating-level phase count.
  qbd::Solution chain;
};

// Throws csq::UnstableError (a std::domain_error) outside the stability
// region (rho_L < 1 and rho_S < 2 - rho_L, rho_S from the mean short
// arrival rate) and csq::InvalidInputError (a std::invalid_argument) when
// the short size distribution is not phase-type; QBD solver failures
// surface as csq::NotConvergedError / csq::VerificationFailedError with
// diagnostics attached, with csq::IllConditionedError escaping from the
// linear-algebra stages. Throws csq::DeadlineExceededError /
// csq::CancelledError when opts.budget is interrupted mid-analysis.
[[nodiscard]] CscqResult analyze_cscq(const SystemConfig& config, const CscqOptions& opts = {});

// Long-job mean response when the SHORT class is overloaded
// (rho_S >= 2 - rho_L) but rho_L < 1 — Figure 6 plots long curves across
// this regime. With the short queue saturated, the first long of every
// long-busy-cycle finds both hosts serving shorts, so the M/G/1 setup time
// is Exp(2 mu_S) with probability one. Requires exponential short sizes.
[[nodiscard]] double cscq_long_response_saturated(const SystemConfig& config);

}  // namespace csq::analysis
