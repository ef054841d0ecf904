// Analytic -> truncated -> simulation degradation ladder for CS-CQ.
//
// analyze_resilient() always tries to return *an* answer, trading exactness
// for robustness one rung at a time:
//
//   rung 1 (exact)      — the paper's QBD analysis (analyze_cscq), run under
//                         a ~50% slice of the overall budget so a stuck
//                         solve cannot starve the fallbacks;
//   rung 2 (truncated)  — the finite-CTMC truncation oracle
//                         (analyze_cscq_truncated) with growing caps,
//                         accepted only when converged and the probability
//                         mass stranded at either cap is below
//                         truncation_mass_tolerance (a rejected cap raises
//                         csq::VerificationFailedError internally; it is
//                         recorded in the attempt trail, never escaping the
//                         ladder);
//   rung 3 (simulation) — sim::simulate_replications of CS-CQ on the
//                         default 1 + 1 hosts (the analyzed system), with
//                         adaptive CI-width stopping. Once
//                         entered this rung always completes its initial
//                         replication batch, so a finite budget degrades the
//                         confidence interval rather than the availability
//                         of the estimate.
//
// Budget contract: the overall budget is checked once at ladder entry (an
// already-expired budget throws immediately — "no rung fits") and at each
// truncated-rung attempt; expiry between rungs skips straight to the
// simulation rung. Cancellation, by contrast, aborts the whole ladder at
// the next poll point: a user who cancelled does not want a simulation
// consolation prize.
//
// Throws csq::InvalidInputError on malformed configs, csq::UnstableError
// outside the CS-CQ stability region (no rung can help — an unstable
// simulation never converges), csq::CancelledError when the budget's token
// fires, csq::DeadlineExceededError when the budget is exhausted before any
// rung can start, and csq::NotConvergedError when every rung failed for
// non-budget reasons (diagnostics notes carry the per-rung trail).
#pragma once

#include <string>
#include <vector>

#include "analysis/truncated_cscq.h"
#include "core/config.h"
#include "core/deadline.h"
#include "core/status.h"
#include "obs/obs.h"
#include "qbd/qbd.h"
// csq-lint: allow(module-layering): ResilientResult embeds the simulation rung's sim:: report type; inverting needs a shared result module first
#include "sim/simulator.h"

namespace csq::analysis {

enum class Rung { kExact = 0, kTruncated, kSimulation };

// "exact", "truncated", "simulation".
[[nodiscard]] const char* rung_name(Rung r);

// One rung attempt, successful or not, in ladder order.
struct RungAttempt {
  Rung rung = Rung::kExact;
  bool succeeded = false;
  // kOk when succeeded; otherwise the classified failure (including
  // kDeadlineExceeded for a rung skipped because the budget ran out).
  SolverStatus status;
  double elapsed_ms = 0.0;  // wall time (incl. virtual) spent in the attempt
};

struct ResilientOptions {
  // Overall ladder budget (see the contract above). Default: unlimited.
  RunBudget budget;
  // First rung to try. A caller that already ran (and failed) the exact
  // analysis itself — the serve layer's retry loop — starts at kTruncated
  // instead of paying for the exact solve a second time; earlier rungs are
  // simply not attempted (they leave no trail entry).
  Rung start_rung = Rung::kExact;
  // Fraction of the remaining budget granted to the exact rung (its slice);
  // the rest is left for the fallbacks.
  double exact_budget_fraction = 0.5;
  int busy_period_moments = 3;  // exact rung (3 = paper's setting)
  VerifyLevel verify = VerifyLevel::kBasic;
  qbd::Options qbd;  // exact rung; its budget is overwritten by the slice
  // Truncated rung: square caps tried in order until the health check
  // passes. Options other than caps/budget come from `truncated`.
  std::vector<int> truncation_caps = {100, 200, 400};
  double truncation_mass_tolerance = 1e-6;
  TruncatedCscqOptions truncated;
  // Simulation rung. sim.seed/total_completions/... are used as given;
  // sim_reps.budget/target_rel_ci are overwritten from this struct.
  sim::SimOptions sim;
  sim::ReplicationOptions sim_reps;
  double sim_target_rel_ci = 0.02;  // adaptive CI target (0 disables)
};

struct ResilientResult {
  PolicyMetrics metrics;           // the answer, from whichever rung held
  Rung rung_used = Rung::kExact;
  std::vector<RungAttempt> attempts;  // ladder trail, in order, incl. success
  // Simulation rung only: across-replication 95% CI half-widths on the mean
  // responses and the replication count used. 0 / 0 for analytic rungs.
  double ci_half_width_short = 0.0;
  double ci_half_width_long = 0.0;
  int replications_used = 0;
  // Exact rung only: the QBD solve trail.
  qbd::SolveStats solve_stats;
  // Truncated rung only: accepted caps and the worst stranded mass.
  int truncation_cap = 0;
  double truncation_mass = 0.0;
  // Obs counter increments across the whole ladder walk (every rung
  // attempted, not just the one that held).
  obs::MetricsDelta obs_metrics;
};

// Rungs that fail are caught and recorded in `attempts`; only errors the
// ladder treats as non-degradable propagate — csq::InvalidInputError for
// malformed configs and csq::IllConditionedError escaping a rung's
// linear-algebra stage before the ladder can demote it.
[[nodiscard]] ResilientResult analyze_resilient(const SystemConfig& config,
                                                const ResilientOptions& opts = {});

}  // namespace csq::analysis
