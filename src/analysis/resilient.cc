#include "analysis/resilient.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/cscq.h"
#include "analysis/stability.h"
#include "core/solver.h"
#include "obs/trace.h"
// csq-lint: allow(module-layering): degradation ladder's last rung calls sim::simulate_replications: analysis -> sim is the documented resilience escape hatch (ROADMAP: invert by extracting a ladder module)
#include "sim/simulator.h"

namespace csq::analysis {

const char* rung_name(Rung r) {
  switch (r) {
    case Rung::kExact: return "exact";
    case Rung::kTruncated: return "truncated";
    case Rung::kSimulation: return "simulation";
  }
  return "?";
}

namespace {

Diagnostics ladder_diagnostics(const SystemConfig& config, const ResilientOptions& opts,
                               const std::vector<RungAttempt>& attempts) {
  Diagnostics d = Diagnostics::loads(config.rho_short(), config.rho_long());
  for (const RungAttempt& a : attempts) {
    std::string note = std::string(rung_name(a.rung)) + ": ";
    note += a.succeeded ? "ok"
                        : std::string(error_code_name(a.status.code)) + " — " + a.status.message;
    d.notes.push_back(std::move(note));
  }
  return opts.budget.annotate(std::move(d));
}

}  // namespace

ResilientResult analyze_resilient(const SystemConfig& config, const ResilientOptions& opts) {
  CSQ_OBS_SPAN("analysis.resilient.ladder");
  const obs::DeltaScope obs_scope;
  config.validate();
  if (!(opts.exact_budget_fraction > 0.0) || !(opts.exact_budget_fraction <= 1.0))
    throw InvalidInputError("analyze_resilient: exact_budget_fraction must be in (0, 1]");
  if (!(opts.truncation_mass_tolerance > 0.0))
    throw InvalidInputError("analyze_resilient: truncation_mass_tolerance must be > 0");
  const double rho_s = config.rho_short();
  const double rho_l = config.rho_long();
  if (rho_l >= 1.0 || !cscq_stable(rho_s, rho_l))
    throw UnstableError(
        "analyze_resilient: outside the CS-CQ stability region — no rung can "
        "produce a steady-state answer",
        Diagnostics::loads(rho_s, rho_l));
  opts.budget.check("analyze_resilient/entry", Diagnostics::loads(rho_s, rho_l));

  ResilientResult res;

  // Run one rung body, classifying any failure into a recorded RungAttempt.
  // CancelledError aborts the ladder (the caller asked to stop); so does
  // UnstableError, which the entry check makes unreachable in practice.
  const auto attempt = [&](Rung rung, const auto& body) -> bool {
    CSQ_OBS_COUNT("resilient.attempts.count");
    RungAttempt a;
    a.rung = rung;
    const std::int64_t t0 = timebase::now_ns();
    try {
      body();
      a.succeeded = true;
    } catch (const CancelledError&) {
      throw;
    } catch (const UnstableError&) {
      throw;
    } catch (const Error& e) {
      a.status = e.status();
    } catch (const std::exception& e) {
      a.status = status_from_exception(e);
    }
    a.elapsed_ms = static_cast<double>(timebase::now_ns() - t0) / 1e6;
    res.attempts.push_back(std::move(a));
    if (res.attempts.back().succeeded)
      CSQ_OBS_GAUGE_SET("resilient.rung.used", static_cast<int>(rung));
    return res.attempts.back().succeeded;
  };

  // Record a rung skipped because the deadline already passed. Cancellation
  // never records a skip: it throws out of the ladder instead.
  const auto deadline_skip = [&](Rung rung, const std::string& where) {
    if (opts.budget.cancelled()) opts.budget.check(where);
    RungAttempt a;
    a.rung = rung;
    a.status.code = ErrorCode::kDeadlineExceeded;
    a.status.message = where + ": rung skipped, budget exhausted";
    a.status.diagnostics = opts.budget.annotate({});
    res.attempts.push_back(std::move(a));
  };

  // --- rung 1: exact QBD analysis ------------------------------------------
  if (opts.start_rung > Rung::kExact) {
    // Skipped by request (the caller already ran the exact analysis).
  } else if (opts.budget.interrupted()) {
    deadline_skip(Rung::kExact, "analyze_resilient/exact");
  } else {
    CscqOptions copts;
    copts.busy_period_moments = opts.busy_period_moments;
    copts.qbd = opts.qbd;
    copts.qbd.verify = opts.verify;
    copts.qbd.budget = opts.budget.has_deadline()
                           ? opts.budget.slice_ms(opts.budget.remaining_ms() *
                                                  opts.exact_budget_fraction)
                           : opts.budget;
    const bool ok = attempt(Rung::kExact, [&] {
      const CscqResult r = analyze_cscq(config, copts);
      const SolverStatus v = verify_metrics(r.metrics, config, opts.verify);
      if (!v.ok()) throw VerificationFailedError(v.message, v.diagnostics);
      res.metrics = r.metrics;
      res.solve_stats = r.solve_stats;
      res.rung_used = Rung::kExact;
    });
    if (ok) {
      res.obs_metrics = obs_scope.delta();
      return res;
    }
  }

  // --- rung 2: truncated finite CTMC with growing caps ---------------------
  for (const int cap : opts.start_rung > Rung::kTruncated ? std::vector<int>{}
                                                          : opts.truncation_caps) {
    if (opts.budget.interrupted()) {
      deadline_skip(Rung::kTruncated, "analyze_resilient/truncated");
      break;
    }
    const bool ok = attempt(Rung::kTruncated, [&] {
      TruncatedCscqOptions topts = opts.truncated;
      topts.max_shorts = cap;
      topts.max_longs = cap;
      topts.budget = opts.budget;
      const TruncatedCscqResult r = analyze_cscq_truncated(config, topts);
      const double mass = std::max(r.mass_at_short_cap, r.mass_at_long_cap);
      Diagnostics d = Diagnostics::loads(rho_s, rho_l);
      d.iterations = r.sweeps;
      if (!r.converged)
        throw NotConvergedError("analyze_resilient: truncated solve did not converge at cap " +
                                    std::to_string(cap),
                                std::move(d));
      if (mass > opts.truncation_mass_tolerance) {
        d.residual = mass;
        throw VerificationFailedError(
            "analyze_resilient: stranded probability mass " + std::to_string(mass) +
                " at cap " + std::to_string(cap) + " exceeds the truncation tolerance",
            std::move(d));
      }
      const SolverStatus v = verify_metrics(r.metrics, config, opts.verify);
      if (!v.ok()) throw VerificationFailedError(v.message, v.diagnostics);
      res.metrics = r.metrics;
      res.rung_used = Rung::kTruncated;
      res.truncation_cap = cap;
      res.truncation_mass = mass;
    });
    if (ok) {
      res.obs_metrics = obs_scope.delta();
      return res;
    }
    // A caps-independent rejection (e.g. non-exponential longs) will not be
    // cured by growing the truncation; fall through to simulation at once.
    if (res.attempts.back().status.code == ErrorCode::kInvalidInput) break;
  }

  // --- rung 3: simulation (always runs its initial batch) ------------------
  if (opts.budget.cancelled()) opts.budget.check("analyze_resilient/simulation");
  const bool ok = attempt(Rung::kSimulation, [&] {
    sim::ReplicationOptions ropts = opts.sim_reps;
    ropts.budget = opts.budget;
    ropts.target_rel_ci = opts.sim_target_rel_ci;
    ropts.max_replications = std::max(ropts.max_replications, ropts.replications);
    const sim::ReplicatedResult mr =
        sim::simulate_replications(sim::PolicyKind::kCsCq, config, opts.sim, ropts);
    PolicyMetrics m;
    m.shorts = class_metrics_from_response(mr.shorts.mean_response,
                                           config.effective_lambda_short(),
                                           config.short_size->mean());
    m.longs = class_metrics_from_response(mr.longs.mean_response, config.lambda_long,
                                          config.long_size->mean());
    const SolverStatus v = verify_metrics(m, config, opts.verify);
    if (!v.ok()) throw VerificationFailedError(v.message, v.diagnostics);
    res.metrics = m;
    res.rung_used = Rung::kSimulation;
    res.ci_half_width_short = mr.shorts.ci95;
    res.ci_half_width_long = mr.longs.ci95;
    res.replications_used = static_cast<int>(mr.replications.size());
  });
  if (ok) {
    res.obs_metrics = obs_scope.delta();
    return res;
  }

  // Every rung failed. Prefer the budget's typed error when it was the
  // limiting factor; otherwise report the exhausted ladder with its trail.
  Diagnostics d = ladder_diagnostics(config, opts, res.attempts);
  d.stage = "analyze_resilient";
  if (opts.budget.interrupted()) opts.budget.check("analyze_resilient", std::move(d));
  throw NotConvergedError("analyze_resilient: every rung of the degradation ladder failed",
                          std::move(d));
}

}  // namespace csq::analysis
