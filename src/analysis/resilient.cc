#include "analysis/resilient.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "analysis/cscq.h"
#include "analysis/stability.h"
#include "analysis/truncated_cscq.h"
#include "core/solver.h"
#include "obs/obs.h"
#include "obs/trace.h"
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

// The exact rung's share of the remaining budget; the rest is left for the
// fallbacks, so a stuck exact solve cannot starve them.
constexpr double kExactBudgetFraction = 0.5;
// Largest probability mass the truncated rung may strand at its long cap.
constexpr double kTruncationMassTolerance = 1e-6;
// The truncated rung's long cap is clamped to [kMinTruncationCap,
// kMaxTruncationCap]: the floor keeps every cap the rung accepted at
// moderate rho_L, and a solve costs O(N^3) past the ceiling.
constexpr int kMinTruncationCap = 100;
constexpr int kMaxTruncationCap = 400;

// Smallest cap N with eta^N <= kTruncationMassTolerance, clamped: the mass
// at the cap falls about like eta^N.
int truncation_cap(const SystemConfig& config) {
  const double n =
      std::ceil(std::log(kTruncationMassTolerance) / std::log(long_count_decay(config)));
  return static_cast<int>(std::clamp(n, static_cast<double>(kMinTruncationCap),
                                     static_cast<double>(kMaxTruncationCap)));
}

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
  CSQ_OBS_SPAN(kAnalysisResilientLadder);
  config.validate();
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
    CSQ_OBS_COUNT(kResilientAttemptsCount);
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
      CSQ_OBS_GAUGE_SET(kResilientRungUsed, static_cast<int>(rung));
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
    copts.qbd.verify = opts.verify;
    copts.qbd.budget =
        opts.budget.has_deadline()
            ? opts.budget.slice_ms(opts.budget.remaining_ms() * kExactBudgetFraction)
            : opts.budget;
    const bool ok = attempt(Rung::kExact, [&] {
      CscqResult r = analyze_cscq(config, copts);
      const SolverStatus v = verify_metrics(r.metrics, config, opts.verify);
      if (!v.ok()) throw VerificationFailedError(v.message, v.diagnostics);
      res.metrics = r.metrics;
      res.solve_stats = std::move(r.chain.stats);
      res.rung_used = Rung::kExact;
    });
    if (ok) return res;
  }

  // --- rung 2: long-capped exact chain, one solve ------------------------
  if (opts.start_rung > Rung::kTruncated) {
    // Skipped by request.
  } else if (opts.budget.interrupted()) {
    deadline_skip(Rung::kTruncated, "analyze_resilient/truncated");
  } else {
    const bool ok = attempt(Rung::kTruncated, [&] {
      const int cap = truncation_cap(config);
      const TruncatedCscqResult r = analyze_cscq_truncated(config, {cap, opts.budget});
      const double mass = r.mass_at_long_cap;
      if (mass > kTruncationMassTolerance) {
        Diagnostics d = Diagnostics::loads(rho_s, rho_l);
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
    if (ok) return res;
  }

  // --- rung 3: simulation (cancel-only: always runs its initial batch) -----
  if (opts.budget.cancelled()) opts.budget.check("analyze_resilient/simulation");
  const bool ok = attempt(Rung::kSimulation, [&] {
    sim::SimOptions sopts = opts.sim;
    sopts.budget = opts.budget.without_deadline();
    sim::ReplicationOptions ropts = opts.sim_reps;
    // The rung cannot see the deadline, so extension under one would be
    // unbounded: a deadline leaves exactly the initial batch.
    ropts.target_rel_ci = opts.budget.has_deadline() ? 0.0 : opts.sim_target_rel_ci;
    ropts.max_replications = std::max(ropts.max_replications, ropts.replications);
    const sim::ReplicatedResult mr =
        sim::simulate_replications(sim::PolicyKind::kCsCq, config, sopts, ropts);
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
  if (ok) return res;

  // Every rung failed. Prefer the budget's typed error when it was the
  // limiting factor; otherwise report the exhausted ladder with its trail.
  Diagnostics d = ladder_diagnostics(config, opts, res.attempts);
  d.stage = "analyze_resilient";
  if (opts.budget.interrupted()) opts.budget.check("analyze_resilient", std::move(d));
  throw NotConvergedError("analyze_resilient: every rung of the degradation ladder failed",
                          std::move(d));
}

}  // namespace csq::analysis
