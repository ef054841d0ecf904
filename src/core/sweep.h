// Parameter sweeps that regenerate the paper's figure series.
//
// Sweep points are independent, so they evaluate concurrently on the
// worker pool (src/parallel/) when SweepOptions::threads > 1. Row i
// of the result is always grid point i, and each point is written only by
// the worker that computed it, so sweep output is bit-identical for every
// thread count — except under a finite SweepOptions::budget, where *which*
// points get evaluated before the deadline is timing-dependent (each
// evaluated row is still deterministic). A point whose analysis throws the
// csq error taxonomy (UnstableError near the stability boundary,
// NotConvergedError, ...) yields NaN columns and a per-policy PointStatus
// instead of aborting the sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/deadline.h"

// The policy panel keys rows by simulator policy; the fixed underlying type
// lets us name the enum without pulling the simulator into every sweep
// consumer (sweep.cc includes it for real).
namespace csq::sim {
enum class PolicyKind : std::uint8_t;
}

namespace csq {

// Why a policy column of a SweepRow holds (or does not hold) a value.
// NaN columns previously conflated "unstable here" with "the solver choked";
// the status byte separates them.
enum class PointStatus : std::uint8_t {
  kOk = 0,       // analytic value present
  kUnstable,     // outside the policy's stability region (expected NaN)
  kFailed,       // in-region but the solver failed (NotConverged, ...)
  kDegraded,     // value present but from a fallback rung, not the exact
                 // analysis (resilient sweeps only)
  kTimedOut,     // the sweep budget ran out before or while this point ran
};

// "ok", "unstable", "failed", "degraded", "timed-out".
[[nodiscard]] const char* point_status_name(PointStatus s);

// One x-point of a figure: per-policy mean response times for both classes.
// NaN marks "no analytic value" — the matching status byte says why.
struct SweepRow {
  double x = 0.0;
  double dedicated_short = std::numeric_limits<double>::quiet_NaN();
  double csid_short = std::numeric_limits<double>::quiet_NaN();
  double cscq_short = std::numeric_limits<double>::quiet_NaN();
  double dedicated_long = std::numeric_limits<double>::quiet_NaN();
  double csid_long = std::numeric_limits<double>::quiet_NaN();
  double cscq_long = std::numeric_limits<double>::quiet_NaN();
  PointStatus dedicated_status = PointStatus::kUnstable;
  PointStatus csid_status = PointStatus::kUnstable;
  PointStatus cscq_status = PointStatus::kUnstable;
};

struct SweepOptions {
  // Worker threads evaluating sweep points: 1 = inline on the caller
  // (default), 0 = all hardware threads, n >= 2 = pool of n workers.
  int threads = 1;
  // Wall-clock/cancellation budget, polled once per sweep point (never
  // inside one): an interrupted budget — deadline or cancellation — marks
  // every not-yet-evaluated point kTimedOut and keeps every already-
  // evaluated row, so running out of time degrades coverage rather than
  // discarding the sweep (no exception escapes the pool).
  RunBudget budget;
  // Evaluate the CS-CQ column through analyze_resilient() instead of the
  // exact analysis only: points the QBD solver cannot crack fall back to
  // truncation/simulation and are marked kDegraded instead of kFailed.
  bool resilient = false;
  // Resume hooks, driven by checkpointed sweeps (src/durable/checkpoint.h);
  // plain sweeps leave them unset. With resume_done set (both vectors must
  // parallel the grid, else csq::InvalidInputError), point i is skipped when
  // (*resume_done)[i] != 0 and (*resume_rows)[i] is returned verbatim —
  // bit-identical resumption, since evaluation is deterministic.
  const std::vector<SweepRow>* resume_rows = nullptr;
  const std::vector<std::uint8_t>* resume_done = nullptr;
  // Invoked with every freshly evaluated (not resumed) row, from whichever
  // pool worker computed it — must be thread-safe. Checkpointed sweeps
  // journal each finished row from here.
  std::function<void(std::size_t, const SweepRow&)> on_row;
};

// n evenly spaced points over [lo, hi] inclusive. Edge cases: n == 1 yields
// {lo}; lo == hi yields n copies of lo; the last point is exactly hi (no
// rounding drift). Throws csq::InvalidInputError for n <= 0 or non-finite
// bounds.
[[nodiscard]] std::vector<double> linspace(double lo, double hi, int n);

// Canonical operating-point grids for the paper's figure series. The fig4/5/6
// benches, the golden regression suite (tests/test_golden_figures.cc) and ad
// hoc sweeps all pull from these three builders, so the x-axes cannot drift
// apart between a bench rerun and the pinned golden values.

// Figures 4-5 x-axis: rho_S from 0.05 to 1.45 in steps of 0.05 (29 points).
[[nodiscard]] std::vector<double> fig_grid_rho_short();

// Figure 6 short-job panels: rho_L from 0.01 to 0.49 (25 points), strictly
// below the CS-CQ frontier rho_L = 2 - rho_S = 0.5 at the figure's rho_S = 1.5.
[[nodiscard]] std::vector<double> fig_grid_rho_long_shorts();

// Figure 6 long-job panels: rho_L from 0.02 to 0.96 (25 points) — the long
// host is stable for any rho_L < 1 regardless of policy.
[[nodiscard]] std::vector<double> fig_grid_rho_long_longs();

// Figures 4 and 5: response time vs rho_S at fixed rho_L. Runs under the
// ambient sweep budget: csq::DeadlineExceededError / csq::CancelledError
// escape when it is interrupted mid-sweep.
[[nodiscard]] std::vector<SweepRow> sweep_rho_short(double rho_long, double mean_short,
                                                    double mean_long, double long_scv,
                                                    const std::vector<double>& rho_shorts,
                                                    const SweepOptions& opts = {});

// Figure 6: response time vs rho_L at fixed rho_S.
[[nodiscard]] std::vector<SweepRow> sweep_rho_long(double rho_short, double mean_short,
                                                   double mean_long, double long_scv,
                                                   const std::vector<double>& rho_longs,
                                                   const SweepOptions& opts = {});

// --- policy x job-size-distribution x load panel ---------------------------

// Long-job size families the panel sweeps over. All three are evaluated
// through the same three-moment interface, so the analytic policies stay
// analyzable even under the heavy-tailed family.
enum class JobSizeDist : std::uint8_t {
  kExp,      // exponential (the paper's scv == 1 baseline); long_scv ignored
  kCoxian,   // two-moment Coxian fit at the requested long_scv
  kBPareto,  // BoundedPareto(alpha = 1.5, hi = 1000 x mean) matched to the
             // requested mean — the Crovella-style heavy tail of Van Houdt's
             // stealing-vs-sharing comparison; long_scv ignored
};

// "exp", "coxian", "bpareto".
[[nodiscard]] const char* job_size_dist_name(JobSizeDist d);

// Inverse of job_size_dist_name. Throws csq::InvalidInputError on unknown
// names, listing the valid ones.
[[nodiscard]] JobSizeDist job_size_dist_from_name(const std::string& name);

// Workload for one panel column: exponential shorts with mean mean_short;
// longs drawn from the requested family matched to mean_long (kCoxian also
// honors long_scv; see JobSizeDist for the fixed kBPareto shape). The CLI
// and serve layer build --dist workloads through this too, so "bpareto" means
// the same distribution everywhere. Throws csq::InvalidInputError (via the
// dist constructors) on malformed parameters.
[[nodiscard]] SystemConfig panel_workload(JobSizeDist dist, double rho_short,
                                          double rho_long, double mean_short,
                                          double mean_long, double long_scv);

// One cell of the panel: a policy evaluated at one load under one long-size
// family. Analytic policies (sim::policy_registry() rows with analytic ==
// true) carry exact values and zero CIs; the rest carry replicated-
// simulation means with across-replication 95% half-widths. NaN response
// columns pair with a non-kOk status, exactly like SweepRow.
struct PanelRow {
  sim::PolicyKind policy{};
  JobSizeDist dist = JobSizeDist::kExp;
  double rho_short = 0.0;
  double rho_long = 0.0;
  double short_response = std::numeric_limits<double>::quiet_NaN();
  double long_response = std::numeric_limits<double>::quiet_NaN();
  double short_ci95 = 0.0;
  double long_ci95 = 0.0;
  PointStatus status = PointStatus::kUnstable;
  bool analytic = false;
};

struct PanelOptions {
  // Worker threads across panel cells: 1 = inline, 0 = all hardware
  // threads, n >= 2 = pool of n. Each cell's replications run inline on the
  // worker that owns the cell, seeded by (seed, policy, dist, point) alone,
  // so the panel is bit-identical for every thread count.
  int threads = 1;
  std::uint64_t seed = 20030701;
  // Simulation effort per non-analytic cell.
  std::size_t sim_completions = 200000;
  int sim_replications = 4;
  // Per-policy knobs forwarded to the simulated cells' policies.
  PolicyConfig policy;
  // Same once-per-cell budget contract as SweepOptions::budget; a
  // simulated cell's engine also polls it mid-run (every 4096 events), and
  // a cell stopped there is kTimedOut.
  RunBudget budget;
};

// Evaluate every requested policy on the rho_short grid at fixed rho_long
// under the given long-size family. Rows are policy-major (all grid points
// of policies[0], then policies[1], ...), row i is always the same cell, and
// evaluation is deterministic, so the panel is bit-identical for every
// thread count. Throws csq::InvalidInputError on malformed arguments.
[[nodiscard]] std::vector<PanelRow> sweep_policy_panel(
    const std::vector<sim::PolicyKind>& policies, JobSizeDist dist, double rho_long,
    double mean_short, double mean_long, double long_scv,
    const std::vector<double>& rho_shorts, const PanelOptions& opts = {});

}  // namespace csq
