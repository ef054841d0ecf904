// Analytic -> truncated -> simulation degradation ladder for CS-CQ.
//
// analyze_resilient() always tries to return *an* answer, trading exactness
// for robustness one rung at a time:
//
//   rung 1 (exact)      — the paper's QBD analysis (analyze_cscq), run under
//                         a ~50% slice of the overall budget so a stuck
//                         solve cannot starve the fallbacks;
//   rung 2 (truncated)  — one solve of the long-capped exact-chain oracle
//                         (analyze_cscq_truncated, solved by the same
//                         qbd::solve as rung 1). Its long cap is
//                         N = clamp(ceil(ln 1e-6 / ln eta), 100, 400), eta
//                         the long count's decay (long_count_decay), so the
//                         mass stranded at the cap is about eta^N <= 1e-6.
//                         The answer is accepted only when the measured
//                         stranded mass is <= 1e-6 (a rejected cap raises
//                         csq::VerificationFailedError internally; it is
//                         recorded in the attempt trail, never escaping the
//                         ladder);
//   rung 3 (simulation) — sim::simulate_replications of CS-CQ on the
//                         default 1 + 1 hosts (the analyzed system). The
//                         rung is cancel-only: it runs under the budget's
//                         cancel token but not its deadline, so once
//                         entered it always completes its initial
//                         replication batch, and a finite budget degrades
//                         the confidence interval rather than the
//                         availability of the estimate. Adaptive CI-width
//                         stopping extends the batch only when the budget
//                         has no deadline.
//
// Budget contract: the overall budget is checked once at ladder entry (an
// already-expired budget throws immediately — "no rung fits") and before
// the truncated rung; expiry between rungs skips straight to the
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

#include "core/config.h"
#include "core/deadline.h"
#include "core/status.h"
#include "qbd/qbd.h"
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
  // analysis itself — the serve layer — starts at kTruncated instead of
  // paying for the exact solve a second time; earlier rungs are simply not
  // attempted (they leave no trail entry).
  Rung start_rung = Rung::kExact;
  // Self-check level of every rung. The exact rung runs analyze_cscq with
  // the CscqOptions defaults under half of the remaining budget; the rest is
  // left for the fallbacks.
  VerifyLevel verify = VerifyLevel::kBasic;
  // Simulation rung. sim.seed/total_completions/... are used as given;
  // sim.budget and sim_reps.target_rel_ci are overwritten from this struct.
  sim::SimOptions sim;
  sim::ReplicationOptions sim_reps;
  // Adaptive CI target (0 disables); ignored when the budget has a deadline.
  double sim_target_rel_ci = 0.02;
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
  // Truncated rung only: accepted long cap and the mass stranded there.
  int truncation_cap = 0;
  double truncation_mass = 0.0;
};

// Rungs that fail are caught and recorded in `attempts`; only errors the
// ladder treats as non-degradable propagate — csq::InvalidInputError for
// malformed configs and csq::IllConditionedError escaping a rung's
// linear-algebra stage before the ladder can demote it.
[[nodiscard]] ResilientResult analyze_resilient(const SystemConfig& config,
                                                const ResilientOptions& opts = {});

}  // namespace csq::analysis
