#include "core/sweep.h"

#include <cmath>
#include <functional>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "analysis/resilient.h"
#include "core/numeric.h"
#include "core/solver.h"
#include "core/status.h"
#include "mg1/mg1.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/task_pool.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace csq {

const char* point_status_name(PointStatus s) {
  switch (s) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kUnstable: return "unstable";
    case PointStatus::kFailed: return "failed";
    case PointStatus::kDegraded: return "degraded";
    case PointStatus::kTimedOut: return "timed-out";
  }
  return "?";
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n <= 0) throw InvalidInputError("linspace: need n >= 1");
  if (!std::isfinite(lo) || !std::isfinite(hi))
    throw InvalidInputError("linspace: bounds must be finite");
  if (n == 1) return {lo};
  std::vector<double> v(static_cast<std::size_t>(n));
  if (num::exactly_eq(lo, hi)) {
    for (double& x : v) x = lo;
    return v;
  }
  for (int i = 0; i < n; ++i)
    v[static_cast<std::size_t>(i)] = lo + (hi - lo) * static_cast<double>(i) / (n - 1);
  v.back() = hi;  // exact endpoint, no rounding drift
  return v;
}

std::vector<double> fig_grid_rho_short() { return linspace(0.05, 1.45, 29); }

std::vector<double> fig_grid_rho_long_shorts() { return linspace(0.01, 0.49, 25); }

std::vector<double> fig_grid_rho_long_longs() { return linspace(0.02, 0.96, 25); }

namespace {

// How a failed in-region analysis shows up in the status byte.
PointStatus classify_failure(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnstable: return PointStatus::kUnstable;
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled: return PointStatus::kTimedOut;
    default: return PointStatus::kFailed;
  }
}

SweepRow evaluate_point(double rho_short, double rho_long, double mean_short,
                        double mean_long, double long_scv, double x,
                        const SweepOptions& opts) {
  SweepRow row;
  row.x = x;
  CSQ_OBS_SPAN(kSweepPointEvaluate);
  CSQ_OBS_COUNT(kSweepPointsEvaluated);
  const SystemConfig config =
      SystemConfig::paper_setup(rho_short, rho_long, mean_short, mean_long, long_scv);
  // One budget poll per point: a point that started runs to completion, so
  // a deadline overshoots by at most one point evaluation and the rows
  // already computed survive (status kTimedOut marks the rest).
  if (opts.budget.interrupted()) {
    row.dedicated_status = PointStatus::kTimedOut;
    row.csid_status = PointStatus::kTimedOut;
    row.cscq_status = PointStatus::kTimedOut;
    return row;
  }
  for (const Policy p : {Policy::kDedicated, Policy::kCsId, Policy::kCsCq}) {
    PointStatus status = PointStatus::kUnstable;
    PolicyMetrics m;
    bool have_value = false;
    if (is_stable(p, config)) {
      // Per-point isolation: a point just inside the stability region can
      // still fail to solve (UnstableError from sp(R) rounding to 1,
      // NotConvergedError, ...). Such a point keeps its NaN columns; the
      // rest of the sweep is unaffected.
      const AnalyzeOutcome out = try_analyze(p, config, VerifyLevel::kBasic, opts.budget);
      if (out.ok()) {
        m = out.metrics;
        have_value = true;
        status = PointStatus::kOk;
      } else if (p == Policy::kCsCq && opts.resilient) {
        // Resilient sweeps never give up on an in-region CS-CQ point: walk
        // the degradation ladder and mark non-exact answers kDegraded.
        try {
          analysis::ResilientOptions ropts;
          ropts.budget = opts.budget;
          // A sweep point is one of many: bound the simulation rung's cost
          // (the CI is still reported per-point by analyze_resilient users
          // who need it; sweep rows only keep the mean).
          ropts.sim.total_completions = 100000;
          ropts.sim_reps.replications = 4;
          const analysis::ResilientResult r = analysis::analyze_resilient(config, ropts);
          m = r.metrics;
          have_value = true;
          status = r.rung_used == analysis::Rung::kExact ? PointStatus::kOk
                                                         : PointStatus::kDegraded;
        } catch (const std::exception&) {
          status = classify_failure(out.status.code);
        }
      } else {
        status = classify_failure(out.status.code);
      }
    }
    switch (p) {
      case Policy::kDedicated:
        row.dedicated_status = status;
        if (!have_value) break;
        row.dedicated_short = m.shorts.mean_response;
        row.dedicated_long = m.longs.mean_response;
        break;
      case Policy::kCsId:
        row.csid_status = status;
        if (!have_value) break;
        row.csid_short = m.shorts.mean_response;
        row.csid_long = m.longs.mean_response;
        break;
      case Policy::kCsCq:
        row.cscq_status = status;
        if (!have_value) break;
        row.cscq_short = m.shorts.mean_response;
        row.cscq_long = m.longs.mean_response;
        break;
    }
  }
  // The long host is stable for every rho_L < 1 regardless of the short
  // class (paper, Figure 6 discussion) — fill long columns even where the
  // shorts saturate.
  if (rho_long < 1.0) {
    if (std::isnan(row.dedicated_long))
      row.dedicated_long = mg1::pk_response(config.lambda_long, config.long_size->moments());
    if (std::isnan(row.csid_long)) row.csid_long = analysis::csid_long_response(config);
    if (std::isnan(row.cscq_long))
      row.cscq_long = analysis::cscq_long_response_saturated(config);
  }
  // A point "failed" when any in-region policy lost its value to a solver
  // failure or deadline (out-of-region kUnstable is expected, not a failure).
  const auto lost = [](PointStatus s) {
    return s == PointStatus::kFailed || s == PointStatus::kTimedOut;
  };
  if (lost(row.dedicated_status) || lost(row.csid_status) || lost(row.cscq_status))
    CSQ_OBS_COUNT(kSweepPointsFailed);
  return row;
}

// Evaluate grid[i] -> rows[i] on `opts.threads` workers. Each worker writes
// only its own rows, and evaluate_point confines failures to NaN columns, so
// the result is identical for every thread count.
std::vector<SweepRow> run_sweep(const std::vector<double>& grid, const SweepOptions& opts,
                                const std::function<SweepRow(double)>& point) {
  if (opts.resume_done != nullptr || opts.resume_rows != nullptr) {
    if (opts.resume_done == nullptr || opts.resume_rows == nullptr ||
        opts.resume_done->size() != grid.size() || opts.resume_rows->size() != grid.size())
      throw InvalidInputError(
          "sweep: resume_rows/resume_done must both be set and parallel the grid");
  }
  return par::parallel_map(grid.size(), opts.threads, [&](std::size_t i) {
    if (opts.resume_done != nullptr && (*opts.resume_done)[i] != 0)
      return (*opts.resume_rows)[i];
    SweepRow row = point(grid[i]);
    if (opts.on_row) opts.on_row(i, row);
    return row;
  });
}

}  // namespace

std::vector<SweepRow> sweep_rho_short(double rho_long, double mean_short, double mean_long,
                                      double long_scv, const std::vector<double>& rho_shorts,
                                      const SweepOptions& opts) {
  return run_sweep(rho_shorts, opts, [&](double rs) {
    return evaluate_point(rs, rho_long, mean_short, mean_long, long_scv, rs, opts);
  });
}

std::vector<SweepRow> sweep_rho_long(double rho_short, double mean_short, double mean_long,
                                     double long_scv, const std::vector<double>& rho_longs,
                                     const SweepOptions& opts) {
  return run_sweep(rho_longs, opts, [&](double rl) {
    return evaluate_point(rho_short, rl, mean_short, mean_long, long_scv, rl, opts);
  });
}

const char* job_size_dist_name(JobSizeDist d) {
  switch (d) {
    case JobSizeDist::kExp: return "exp";
    case JobSizeDist::kCoxian: return "coxian";
    case JobSizeDist::kBPareto: return "bpareto";
  }
  return "?";
}

JobSizeDist job_size_dist_from_name(const std::string& name) {
  for (const JobSizeDist d : {JobSizeDist::kExp, JobSizeDist::kCoxian, JobSizeDist::kBPareto})
    if (name == job_size_dist_name(d)) return d;
  throw InvalidInputError("unknown job-size distribution \"" + name +
                          "\" (valid: exp|coxian|bpareto)");
}

// Workload for one panel column: exponential shorts; longs from the
// requested family, matched to mean_long (and, for Coxian, long_scv).
SystemConfig panel_workload(JobSizeDist family, double rho_short, double rho_long,
                            double mean_short, double mean_long, double long_scv) {
  auto shorts =
      std::make_shared<dist::PhaseType>(dist::PhaseType::exponential(1.0 / mean_short));
  dist::DistPtr longs;
  switch (family) {
    case JobSizeDist::kExp:
      longs = std::make_shared<dist::PhaseType>(dist::PhaseType::exponential(1.0 / mean_long));
      break;
    case JobSizeDist::kCoxian:
      longs = std::make_shared<dist::PhaseType>(
          dist::PhaseType::coxian_mean_scv(mean_long, long_scv));
      break;
    case JobSizeDist::kBPareto:
      longs = std::make_shared<dist::BoundedPareto>(
          dist::BoundedPareto::with_mean(mean_long, 1000.0 * mean_long, 1.5));
      break;
  }
  return SystemConfig::from_loads(rho_short, rho_long, std::move(shorts), std::move(longs));
}

namespace {

// The three policies the library analyzes exactly; everything else goes
// through replicated simulation.
bool analytic_policy(sim::PolicyKind kind, Policy* out) {
  switch (kind) {
    case sim::PolicyKind::kDedicated: *out = Policy::kDedicated; return true;
    case sim::PolicyKind::kCsId: *out = Policy::kCsId; return true;
    case sim::PolicyKind::kCsCq: *out = Policy::kCsCq; return true;
    default: return false;
  }
}

PanelRow evaluate_panel_cell(sim::PolicyKind kind, JobSizeDist family, double rho_short,
                             double rho_long, double mean_short, double mean_long,
                             double long_scv, std::uint64_t cell_seed,
                             const PanelOptions& opts) {
  PanelRow row;
  row.policy = kind;
  row.dist = family;
  row.rho_short = rho_short;
  row.rho_long = rho_long;
  CSQ_OBS_COUNT(kSweepPanelCells);
  // Same once-per-cell poll as evaluate_point. A started analytic cell
  // finishes; a simulated one also stops mid-run and is marked kTimedOut.
  if (opts.budget.interrupted()) {
    row.status = PointStatus::kTimedOut;
    return row;
  }
  const SystemConfig config =
      panel_workload(family, rho_short, rho_long, mean_short, mean_long, long_scv);
  Policy p{};
  if (analytic_policy(kind, &p)) {
    row.analytic = true;
    if (!is_stable(p, config)) return row;  // kUnstable
    const AnalyzeOutcome out = try_analyze(p, config, VerifyLevel::kBasic, opts.budget);
    if (out.ok()) {
      row.short_response = out.metrics.shorts.mean_response;
      row.long_response = out.metrics.longs.mean_response;
      row.status = PointStatus::kOk;
    } else {
      row.status = classify_failure(out.status.code);
    }
    return row;
  }
  // Simulated cell. The zoo policies pool both servers, so the work-
  // conservation bound rho_S + rho_L < 2 is the widest meaningful region;
  // beyond it the queues have no steady state and the estimate would be
  // pure truncation artifact.
  if (rho_short + rho_long >= 2.0) return row;  // kUnstable
  sim::SimOptions sopts;
  sopts.seed = cell_seed;
  sopts.total_completions = opts.sim_completions;
  sopts.policy = opts.policy;
  sopts.budget = opts.budget;
  sim::ReplicationOptions ropts;
  ropts.replications = opts.sim_replications;
  ropts.threads = 1;  // cells parallelize; replications stay inline
  try {
    const sim::ReplicatedResult r = sim::simulate_replications(kind, config, sopts, ropts);
    row.short_response = r.shorts.mean_response;
    row.short_ci95 = r.shorts.ci95;
    row.long_response = r.longs.mean_response;
    row.long_ci95 = r.longs.ci95;
    row.status = PointStatus::kOk;
  } catch (const Error& e) {
    row.status = classify_failure(e.code());
  }
  return row;
}

}  // namespace

std::vector<PanelRow> sweep_policy_panel(const std::vector<sim::PolicyKind>& policies,
                                         JobSizeDist dist, double rho_long,
                                         double mean_short, double mean_long,
                                         double long_scv,
                                         const std::vector<double>& rho_shorts,
                                         const PanelOptions& opts) {
  if (policies.empty())
    throw InvalidInputError("sweep_policy_panel: need >= 1 policy");
  if (rho_shorts.empty())
    throw InvalidInputError("sweep_policy_panel: need >= 1 grid point");
  if (opts.sim_replications < 1)
    throw InvalidInputError("sweep_policy_panel: need >= 1 sim replication");
  CSQ_OBS_SPAN(kSweepPanelRun);
  const std::size_t cells = policies.size() * rho_shorts.size();
  // Cell (policy, point) seeds derive from (seed, kind, dist, point) alone:
  // which worker evaluates the cell is irrelevant, so the panel is
  // bit-identical for every thread count.
  return par::parallel_map(cells, opts.threads, [&](std::size_t i) {
    const std::size_t pi = i / rho_shorts.size();
    const std::size_t xi = i % rho_shorts.size();
    const sim::PolicyKind kind = policies[pi];
    const std::uint64_t cell_seed = sim::split_seed(
        sim::split_seed(sim::split_seed(opts.seed, static_cast<std::uint64_t>(kind)),
                        static_cast<std::uint64_t>(dist)),
        xi);
    return evaluate_panel_cell(kind, dist, rho_shorts[xi], rho_long, mean_short,
                               mean_long, long_scv, cell_seed, opts);
  });
}

}  // namespace csq
