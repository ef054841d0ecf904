#include "qbd/qbd.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "linalg/kernels.h"
#include "linalg/lu.h"

#include "core/status.h"

#include "core/faultpoint.h"

#include "core/numeric.h"

#include "obs/obs.h"

#include "obs/trace.h"

namespace csq::qbd {

namespace {

// Fill the diagonal of `local` so that each generator row sums to zero given
// the other blocks in that block-row.
void fill_diagonal(Matrix& local, const std::vector<const Matrix*>& others) {
  for (std::size_t i = 0; i < local.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < local.cols(); ++j)
      if (j != i) s += local(i, j);
    for (const Matrix* m : others)
      if (!m->empty())
        for (std::size_t j = 0; j < m->cols(); ++j) s += (*m)(i, j);
    local(i, i) = -s;
  }
}

void require(bool cond, const char* msg) {
  if (!cond) throw InvalidInputError(msg);
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

// ‖A0 + R A1 + R² A2‖_max — how well R solves its defining equation.
double r_residual(const Matrix& a0, const Matrix& a1, const Matrix& a2, const Matrix& r) {
  return (a0 + r * a1 + r * r * a2).max_abs();
}

struct IterationOutcome {
  Matrix r;
  bool converged = false;
  bool diverged = false;
  bool interrupted = false;  // the RunBudget stopped the loop
  int iterations = 0;
  double last_diff = -1.0;
};

// Tolerance multiplier for the last-resort relaxed retry of solve_r.
constexpr double kFallbackToleranceFactor = 1e3;

// Scratch buffers reused across solver iterations and across solves. The
// functional iteration runs thousands of steps of R <- -(A0 + R² A2) A1⁻¹;
// assembling each step into these buffers with the structure-aware kernels
// instead of temporaries makes the hot loop allocation-free after warm-up.
// The workspace also caches the BlockPatterns of the solve's constant
// blocks: solve_r classifies A0/A2 once per solve (reusing the pattern
// vectors' capacity across solves) and every iteration multiply dispatches
// on the cached structure instead of paying the generic dense kernel.
// Buffers size themselves lazily. Every buffer is fully overwritten before
// it is read, so leftovers from an earlier solve (of any shape, finished or
// thrown out of) never reach a result.
struct Workspace {
  Matrix r2, acc, next;         // functional iteration: R², A0 + R²A2, next R
  Matrix cand;                  // Aitken-extrapolated candidate iterate
  Matrix hh, ll, hl, lh;        // logarithmic reduction squares/cross terms
  Matrix prod;                  // generic product scratch
  linalg::BlockPattern pat_a0;  // zero structure of A0 (this solve)
  linalg::BlockPattern pat_a2;  // zero structure of A2 (this solve)
};

// One workspace per thread, shared by every solve on it: sweeps, serve
// workers and plain loops all get warm scratch without passing anything.
// thread_local keeps it lock-free, like the Coxian fit memo in
// dist/moment_match.cc.
Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

// Per-solve kernel activity, flushed to the qbd.kernel.* counters once per
// solve_r call (never per iteration — a counter bump inside the hot loop
// would cost more than the multiply it measures).
struct KernelTallies {
  long pattern_mults = 0;   // structure-dispatched multiplies (non-dense kind)
  long dense_mults = 0;     // blocked restrict dense multiplies
  long extrapolations = 0;  // accepted Aitken limit jumps
  long analyses = 0;        // block patterns classified
};

// One FI step from `r` into ws.next: F(R) = (A0 + R² A2)(-A1⁻¹), assembled
// with the pattern kernels (A2's structure cached in ws.pat_a2, A0 added
// through its pattern). The caller passes -A1⁻¹ so the negation is folded
// into the constant instead of costing a pass per iteration (IEEE negation
// commutes with addition exactly, so the iterates are bit-identical to the
// -(…)A1⁻¹ form). No heap allocation once the buffers are warm.
void fi_step(const Matrix& r, const Matrix& a0, const Matrix& neg_a1_inv, const Matrix& a2,
             Workspace& ws, KernelTallies& tally) {
  linalg::multiply_into_dense(ws.r2, r, r);
  linalg::multiply_into_pattern(ws.acc, ws.r2, a2, ws.pat_a2);
  linalg::add_into_pattern(ws.acc, a0, ws.pat_a0);
  linalg::multiply_into_dense(ws.next, ws.acc, neg_a1_inv);
  tally.dense_mults += 2;
  tally.pattern_mults += ws.pat_a2.kind == linalg::PatternKind::kDense ? 0 : 1;
}

// R <- -(A0 + R² A2) A1^{-1} from R = 0 until the update falls below tol.
// Each step is assembled in the workspace's scratch buffers, so the loop
// performs no heap allocation after the first iteration. The budget is
// polled every 16 iterations (worst-case overshoot: 16 cheap steps).
//
// The iteration converges linearly at rate ~ sp(R), which drags near the
// stability boundary, so the loop layers a deterministic Aitken jump on
// top: once the observed update ratio is stable, the geometric limit
// R* ≈ R + Δ ρ/(1-ρ) is formed elementwise and validated by one genuine FI
// step — the jump is adopted only when that step's update is smaller than
// the pre-jump update, so a bad extrapolation costs one step and changes
// nothing. All decisions depend only on iterate values (never on timing or
// thread count), keeping solves bit-reproducible.
IterationOutcome functional_iteration(const Matrix& a0, const Matrix& neg_a1_inv,
                                      const Matrix& a2, double tolerance,
                                      int max_iterations, Workspace& ws,
                                      const RunBudget& budget, KernelTallies& tally) {
  IterationOutcome out;
  const std::size_t m = a0.rows();
  out.r = Matrix(m, m);
  double prev_diff = -1.0;
  double prev_ratio = -1.0;
  int next_extrap = 12;  // warm-up: let the linear rate establish itself
  for (int it = 0; it < max_iterations; ++it) {
    if ((it & 15) == 0 && budget.interrupted()) {
      out.interrupted = true;
      return out;
    }
    CSQ_FAULT_POINT_MATRIX("qbd.fi.iterate", &out.r(0, 0), m * m);
    fi_step(out.r, a0, neg_a1_inv, a2, ws, tally);
    const double diff = linalg::max_abs_diff(ws.next, out.r);
    std::swap(out.r, ws.next);  // out.r = new iterate; ws.next = previous one
    out.iterations = it + 1;
    out.last_diff = diff;
    // A non-finite update (e.g. NaN leaked into an iterate) can never
    // converge — classify it as divergence so the fallback chain engages
    // instead of burning the whole iteration budget.
    if (!std::isfinite(diff) || out.r.max_abs() > 1e6) {
      out.diverged = true;
      return out;
    }
    if (diff < tolerance) {
      out.converged = true;
      return out;
    }

    const double ratio = prev_diff > 0.0 ? diff / prev_diff : -1.0;
    if (it + 1 >= next_extrap && prev_ratio > 0.0 && ratio > 0.05 && ratio < 0.995 &&
        std::abs(ratio - prev_ratio) < 0.02 * ratio) {
      // Geometric limit jump: cand = R + (R - R_prev) ρ/(1-ρ).
      const double f = ratio / (1.0 - ratio);
      ws.cand = out.r;
      ws.cand.add_scaled(out.r, f);
      ws.cand.add_scaled(ws.next, -f);
      // Validate with one genuine step from the candidate; the step is real
      // work, so it counts against the iteration budget.
      ++it;
      fi_step(ws.cand, a0, neg_a1_inv, a2, ws, tally);
      const double cand_diff = linalg::max_abs_diff(ws.next, ws.cand);
      out.iterations = it + 1;
      if (std::isfinite(cand_diff) && cand_diff < diff) {
        std::swap(out.r, ws.next);  // adopt F(cand): one step past the jump
        out.last_diff = cand_diff;
        ++tally.extrapolations;
        if (cand_diff < tolerance && out.r.max_abs() <= 1e6) {
          out.converged = true;
          return out;
        }
        // Keep tracking the rate from the post-jump iterate. The asymptotic
        // ratio is a property of the map, not the iterate, so the pre-jump
        // estimate stays valid and the next jump only waits for the ratio to
        // re-stabilize instead of a full warm-up.
        prev_diff = cand_diff;
        prev_ratio = ratio;
        next_extrap = it + 1 + 3;
        continue;
      }
      // Rejected jump: keep the pre-jump iterate, back off before retrying.
      next_extrap = it + 1 + 32;
      prev_diff = diff;
      prev_ratio = ratio;
      continue;
    }
    prev_diff = diff;
    prev_ratio = ratio;
  }
  return out;
}

}  // namespace

const char* r_method_name(RMethod method) {
  switch (method) {
    case RMethod::kFunctionalIteration: return "functional_iteration";
    case RMethod::kLogReduction: return "logarithmic_reduction";
    case RMethod::kRelaxedIteration: return "relaxed_iteration";
  }
  return "?";
}

Diagnostics SolveStats::to_diagnostics() const {
  Diagnostics d;
  d.iterations = iterations;
  d.residual = residual;
  d.spectral_radius = spectral_radius;
  d.condition_estimate = boundary_condition;
  // Move-assign a temporary: assigning the const char* directly trips a
  // GCC 12 -Wrestrict false positive inside std::string::_M_replace.
  d.stage = std::string(r_method_name(method));
  d.notes = trail;
  return d;
}

double spectral_radius_estimate(const Matrix& m, int max_iterations, double tolerance,
                                bool* converged_out, int* iterations_out,
                                const RunBudget& budget) {
  // Gelfand's formula with repeated squaring: after k squarings the stored
  // matrix is a normalized m^(2^k), and ||m^(2^k)||^(1/2^k) -> sp(m) with
  // error O(log(2^k) / 2^k) — geometric in k even for defective or
  // complex-pair spectra, where plain power iteration stalls at O(1/iters)
  // and can never certify 1e-12. ~55 squarings of these small dense R
  // matrices are cheaper than a few hundred power steps.
  const std::size_t n = m.rows();
  CSQ_OBS_SPAN("qbd.solve.spectral");
  bool converged = false;
  int iterations = 0;
  double estimate = 0.0;
  if (n == 0) {
    converged = true;
  } else {
    const auto inf_norm = [n](const Matrix& a) {
      double best = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < n; ++j) s += std::abs(a(i, j));
        best = std::max(best, s);
      }
      return best;
    };
    Matrix p = m;
    Matrix sq;  // squaring scratch, reused: no per-step allocation after k = 1
    // log_est accumulates log ||m^(2^k)|| / 2^k across the normalizations.
    double log_est = 0.0;
    double scale = 1.0;  // 2^-k
    double prev = std::numeric_limits<double>::infinity();
    // 2^60 effective power puts the defectiveness error far below 1e-12;
    // honour a smaller caller-provided iteration cap.
    const int max_squarings = std::min(max_iterations, 60);
    for (int k = 0; k <= max_squarings; ++k) {
      if (budget.interrupted()) break;  // best effort; caller decides
      iterations = k;
      const double c = inf_norm(p);
      if (num::exactly_zero(c)) {  // m^(2^k) == 0: nilpotent, sp = 0
        estimate = 0.0;
        converged = true;
        break;
      }
      log_est += std::log(c) * scale;
      estimate = std::exp(log_est);
      if (std::abs(estimate - prev) < tolerance * std::max(estimate, 1.0)) {
        converged = true;
        break;
      }
      prev = estimate;
      p *= 1.0 / c;
      linalg::multiply_into_dense(sq, p, p);
      std::swap(p, sq);
      scale *= 0.5;
    }
  }
  if (converged_out) *converged_out = converged;
  if (iterations_out) *iterations_out = iterations;
  CSQ_OBS_COUNT_N("qbd.spectral.squarings", iterations);
  return estimate;
}

double Solution::r_row_sum_max() const {
  double best = 0.0;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < r.cols(); ++j) s += r(i, j);
    best = std::max(best, s);
  }
  return best;
}

double Solution::mean_level() const {
  const std::size_t k = boundary_pi.size();
  double mean = 0.0;
  for (std::size_t i = 0; i < k; ++i) mean += static_cast<double>(i) * linalg::sum(boundary_pi[i]);
  const std::vector<double> tail = pi_k * i_minus_r_inv;           // sum_j pi_K R^j
  const std::vector<double> tail2 = (tail * i_minus_r_inv) * r;    // sum_j j pi_K R^j
  mean += static_cast<double>(k) * linalg::sum(tail) + linalg::sum(tail2);
  return mean;
}

double Solution::level_probability(std::size_t n) const {
  const std::size_t k = boundary_pi.size();
  if (n < k) return linalg::sum(boundary_pi[n]);
  std::vector<double> v = pi_k;
  std::vector<double> scratch;  // ping-pong buffer: no per-level allocation
  for (std::size_t j = k; j < n; ++j) {
    linalg::multiply_into(scratch, v, r);
    std::swap(v, scratch);
  }
  return linalg::sum(v);
}

std::vector<double> Solution::repeating_mass_by_phase() const { return pi_k * i_minus_r_inv; }

double Solution::level_tail(std::size_t n) const {
  const std::size_t k = boundary_pi.size();
  double below = 0.0;
  for (std::size_t i = 0; i < k && i <= n; ++i) below += linalg::sum(boundary_pi[i]);
  if (n < k) return 1.0 - below;
  // P(level > n) = pi_K R^{n-K+1} (I-R)^{-1} 1.
  std::vector<double> v = pi_k;
  std::vector<double> scratch;  // ping-pong buffer: no per-level allocation
  for (std::size_t j = k; j <= n; ++j) {
    linalg::multiply_into(scratch, v, r);
    std::swap(v, scratch);
  }
  return linalg::sum(v * i_minus_r_inv);
}

double Solution::tail_decay_rate() const {
  // solve_r already ran the same estimator (500 squarings, 1e-12) on this R;
  // reuse its result instead of re-estimating per query. Hand-built
  // Solutions (tests, cross-checks) have no stats and estimate fresh.
  if (stats.spectral_radius >= 0.0) return stats.spectral_radius;
  return spectral_radius_estimate(r);
}

std::size_t Solution::level_quantile(double q) const {
  if (!(q > 0.0 && q < 1.0))  // also rejects NaN
    throw InvalidInputError("level_quantile: q must be in (0,1)");
  double cdf = 0.0;
  const std::size_t k = boundary_pi.size();
  for (std::size_t i = 0; i < k; ++i) {
    cdf += linalg::sum(boundary_pi[i]);
    if (cdf >= q) return i;
  }
  std::vector<double> v = pi_k;
  std::vector<double> scratch;  // ping-pong buffer: no per-level allocation
  for (std::size_t n = k;; ++n) {
    cdf += linalg::sum(v);
    if (cdf >= q) return n;
    linalg::multiply_into(scratch, v, r);
    std::swap(v, scratch);
    if (n > k + 100000000) {
      Diagnostics d;
      d.iterations = static_cast<long>(n - k);
      d.notes.push_back("cdf reached " + fmt(cdf) + " chasing quantile " + fmt(q));
      throw NotConvergedError("level_quantile: runaway (sp(R) too close to 1?)",
                              std::move(d));
    }
  }
}

double Solution::total_mass() const {
  double s = 0.0;
  for (const auto& b : boundary_pi) s += linalg::sum(b);
  return s + linalg::sum(repeating_mass_by_phase());
}

SolverStatus Solution::verify(VerifyLevel level) const {
  SolverStatus status;
  if (level == VerifyLevel::kNone) return status;
  std::vector<std::string> failures;
  constexpr double kNegTol = 1e-9;

  double min_entry = 0.0;
  bool all_finite = true;
  const auto scan = [&](const std::vector<double>& v) {
    for (const double x : v) {
      if (!std::isfinite(x)) all_finite = false;
      min_entry = std::min(min_entry, x);
    }
  };
  for (const auto& b : boundary_pi) scan(b);
  scan(pi_k);
  if (!all_finite) failures.push_back("non-finite stationary probabilities");
  if (min_entry < -kNegTol)
    failures.push_back("negative stationary probability (min " + fmt(min_entry) + ")");

  for (const double x : r.data())
    if (!std::isfinite(x)) {
      failures.push_back("non-finite entry in R");
      break;
    }

  const double mass = total_mass();
  if (!std::isfinite(mass) || std::abs(mass - 1.0) > 1e-6)
    failures.push_back("total mass " + fmt(mass) + " not within 1e-6 of 1");

  const double sp =
      stats.spectral_radius >= 0.0 ? stats.spectral_radius : spectral_radius_estimate(r);
  if (!(sp < 1.0))
    failures.push_back("spectral radius of R " + fmt(sp) + " not < 1");

  if (level == VerifyLevel::kFull) {
    if (stats.residual >= 0.0 && stats.residual > 1e-6)
      failures.push_back("R-equation residual " + fmt(stats.residual) + " above 1e-6");
    const double mean = mean_level();
    if (!std::isfinite(mean) || mean < -kNegTol)
      failures.push_back("mean level " + fmt(mean) + " not finite/nonnegative");
  }

  if (!failures.empty()) {
    status.code = ErrorCode::kVerificationFailed;
    status.message = "qbd::Solution::verify: " + failures.front() +
                     (failures.size() > 1
                          ? " (+" + std::to_string(failures.size() - 1) + " more)"
                          : "");
    status.diagnostics = stats.to_diagnostics();
    status.diagnostics.notes.insert(status.diagnostics.notes.end(), failures.begin(),
                                    failures.end());
  }
  return status;
}

Matrix solve_r(const Matrix& a0, const Matrix& a1, const Matrix& a2, const Options& opts,
               SolveStats* stats_out) {
  const std::size_t m = a0.rows();
  require(a0.cols() == m && a1.rows() == m && a1.cols() == m && a2.rows() == m &&
              a2.cols() == m,
          "solve_r: blocks must be square and same size");
  Workspace& ws = thread_workspace();
  SolveStats stats;
  CSQ_OBS_COUNT("qbd.solve.calls");
  // A warm workspace keeps the iteration allocation-free; count the solves
  // that had to (re)shape this thread's scratch so sweeps can verify reuse.
  if (ws.r2.rows() != m || ws.r2.cols() != m) CSQ_OBS_COUNT("qbd.workspace.resizes");

  // Classify the constant blocks once per solve; every iteration multiply
  // below dispatches on the cached structure. Tallies flush to the obs
  // counters exactly once per solve — on success or failure — so the
  // aggregates stay per-solve, not per-iteration.
  linalg::analyze_pattern_into(ws.pat_a0, a0);
  linalg::analyze_pattern_into(ws.pat_a2, a2);
  KernelTallies tally;
  tally.analyses = 2;
  struct TallyFlush {
    const KernelTallies& t;
    ~TallyFlush() {
      CSQ_OBS_COUNT_N("qbd.kernel.pattern_mults", t.pattern_mults);
      CSQ_OBS_COUNT_N("qbd.kernel.dense_mults", t.dense_mults);
      CSQ_OBS_COUNT_N("qbd.kernel.extrapolations", t.extrapolations);
      CSQ_OBS_COUNT_N("qbd.kernel.pattern_analyses", t.analyses);
    }
  } tally_flush{tally};

  // Accept R when it solves its equation to near the rate scale's precision.
  const double scale =
      std::max(1.0, std::max(a0.max_abs(), std::max(a1.max_abs(), a2.max_abs())));
  const double accept_residual = std::max(1e-10, opts.tolerance * 1e3) * scale;

  // Interrupted exit: publish partial stats, then let the budget throw the
  // matching taxonomy error (CancelledError / DeadlineExceededError).
  const auto throw_interrupted = [&](const std::string& where) {
    stats.trail.push_back(where + ": interrupted by " +
                          (opts.budget.cancelled() ? "cancellation" : "deadline"));
    if (stats_out) *stats_out = stats;
    Diagnostics d = stats.to_diagnostics();
    d.tolerance = opts.tolerance;
    opts.budget.check(where, std::move(d));
    throw InternalError("solve_r: interrupted exit taken without an interrupted budget");
  };

  // sp(R) with a trusted convergence status: one larger-budget retry, then a
  // structured failure — never a silently unconverged estimate.
  const auto sp_checked = [&](const Matrix& r, const std::string& where) -> double {
    bool conv = false;
    int iters = 0;
    double sp = spectral_radius_estimate(r, 500, 1e-12, &conv, &iters, opts.budget);
    if (!conv && !opts.budget.interrupted())
      sp = spectral_radius_estimate(r, 20000, 1e-12, &conv, &iters, opts.budget);
    if (conv) return sp;
    stats.trail.push_back(where + ": spectral-radius power iteration exhausted after " +
                          std::to_string(iters) + " iterations (last estimate " + fmt(sp) +
                          ")");
    if (opts.budget.interrupted()) throw_interrupted(where);
    Diagnostics d = stats.to_diagnostics();
    d.iterations = iters;
    d.tolerance = opts.tolerance;
    if (stats_out) *stats_out = stats;
    throw NotConvergedError(
        where + ": spectral-radius power iteration did not converge", std::move(d));
  };

  // Successful exit: record residual + spectral radius, reject sp(R) >= 1.
  const auto finish = [&](Matrix r, RMethod method, int iterations) -> Matrix {
    CSQ_OBS_GAUGE_SET("solver.fallback.stage", static_cast<int>(method));
    if (method != RMethod::kFunctionalIteration) CSQ_OBS_COUNT("solver.fallback.engaged");
    stats.method = method;
    stats.iterations = iterations;
    stats.residual = r_residual(a0, a1, a2, r);
    stats.spectral_radius = sp_checked(r, std::string("solve_r/") + r_method_name(method));
    if (stats.spectral_radius >= 1.0 - 1e-10) {
      Diagnostics d = stats.to_diagnostics();
      d.tolerance = opts.tolerance;
      if (stats_out) *stats_out = stats;
      throw UnstableError(
          "solve_r: spectral radius " + fmt(stats.spectral_radius) +
              " >= 1 (QBD not positive recurrent)",
          std::move(d));
    }
    if (stats_out) *stats_out = stats;
    return r;
  };

  // -A1⁻¹ once per solve: the fixed-point map is R <- (A0 + R² A2)(-A1⁻¹),
  // so folding the sign here saves a negation pass every iteration.
  Matrix neg_a1_inv = linalg::inverse(a1);
  neg_a1_inv *= -1.0;

  // Stage 1: functional iteration (linear convergence; stalls near the
  // stability boundary where sp(R) -> 1).
  const IterationOutcome fi = [&] {
    CSQ_OBS_SPAN("qbd.solve.fi");
    return functional_iteration(a0, neg_a1_inv, a2, opts.tolerance, opts.max_iterations, ws,
                                opts.budget, tally);
  }();
  CSQ_OBS_COUNT_N("qbd.fi.iterations", fi.iterations);
  stats.trail.push_back(std::string("functional_iteration: ") +
                        (fi.converged      ? "converged"
                         : fi.diverged     ? "diverged"
                         : fi.interrupted  ? "interrupted by budget"
                                           : "iteration budget exhausted") +
                        " after " + std::to_string(fi.iterations) +
                        " iterations (last update " + fmt(fi.last_diff) +
                        (tally.extrapolations > 0
                             ? ", " + std::to_string(tally.extrapolations) +
                                   " accepted extrapolation jumps"
                             : "") +
                        ")");
  if (fi.interrupted) throw_interrupted("solve_r/functional_iteration");
  if (fi.converged) return finish(fi.r, RMethod::kFunctionalIteration, fi.iterations);

  if (!opts.allow_fallback) {
    stats.residual = r_residual(a0, a1, a2, fi.r);
    Diagnostics d = stats.to_diagnostics();
    d.iterations = fi.iterations;
    d.tolerance = opts.tolerance;
    d.stage = "functional_iteration";
    if (stats_out) *stats_out = stats;
    if (fi.diverged)
      throw UnstableError("solve_r: iteration diverged (unstable QBD?)", std::move(d));
    throw NotConvergedError("solve_r: functional iteration did not converge",
                            std::move(d));
  }

  // Stage 2: logarithmic reduction (quadratically convergent; also the
  // arbiter of genuine instability — sp(R from G) >= 1 means the chain is
  // not positive recurrent, not that the iteration was unlucky).
  if (opts.budget.interrupted()) throw_interrupted("solve_r/fallback_entry");
  int lr_steps = 0;
  double lr_last = -1.0;
  const Matrix g = solve_g_logred(a0, a1, a2, opts, &lr_steps, &lr_last);
  const Matrix r_lr = r_from_g(a0, a1, g);
  const double lr_residual = r_residual(a0, a1, a2, r_lr);
  stats.trail.push_back("logarithmic_reduction: " + std::to_string(lr_steps) +
                        " doubling steps, residual " + fmt(lr_residual));
  const double lr_sp = sp_checked(r_lr, "solve_r/logarithmic_reduction");
  if (lr_sp >= 1.0 - 1e-10) {
    stats.residual = lr_residual;
    stats.spectral_radius = lr_sp;
    Diagnostics d = stats.to_diagnostics();
    d.stage = "logarithmic_reduction";
    d.tolerance = opts.tolerance;
    if (stats_out) *stats_out = stats;
    throw UnstableError("solve_r: spectral radius " + fmt(lr_sp) +
                            " >= 1 (QBD not positive recurrent)",
                        std::move(d));
  }
  if (lr_residual <= accept_residual) return finish(r_lr, RMethod::kLogReduction, lr_steps);

  // Stage 3: relaxed-tolerance functional iteration — rescues configs where
  // the update plateaus just above the requested tolerance from rounding.
  const double relaxed_tol = opts.tolerance * kFallbackToleranceFactor;
  const IterationOutcome relaxed = [&] {
    CSQ_OBS_SPAN("qbd.solve.relaxed");
    return functional_iteration(a0, neg_a1_inv, a2, relaxed_tol, opts.max_iterations, ws,
                                opts.budget, tally);
  }();
  CSQ_OBS_COUNT_N("qbd.relaxed.iterations", relaxed.iterations);
  stats.trail.push_back(std::string("relaxed_iteration (tol ") + fmt(relaxed_tol) +
                        "): " + (relaxed.converged ? "converged" : "failed") + " after " +
                        std::to_string(relaxed.iterations) + " iterations");
  if (relaxed.interrupted) throw_interrupted("solve_r/relaxed_iteration");
  if (relaxed.converged) return finish(relaxed.r, RMethod::kRelaxedIteration, relaxed.iterations);

  stats.residual = std::min(lr_residual, r_residual(a0, a1, a2, relaxed.r));
  stats.spectral_radius = lr_sp;
  Diagnostics d = stats.to_diagnostics();
  d.iterations = fi.iterations + relaxed.iterations;
  d.tolerance = opts.tolerance;
  d.stage = "fallback_chain";
  if (stats_out) *stats_out = stats;
  throw NotConvergedError(
      "solve_r: fallback chain exhausted (functional iteration, logarithmic "
      "reduction, relaxed retry) without an acceptable R",
      std::move(d));
}

Matrix solve_g_logred(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                      const Options& opts, int* steps_out, double* last_update_out) {
  // Logarithmic reduction (Latouche & Ramaswami 1999, Ch. 8). The doubling
  // loop assembles its products in workspace scratch; the per-step inverse
  // is the only remaining allocation.
  const std::size_t m = a0.rows();
  Workspace& ws = thread_workspace();
  CSQ_OBS_SPAN("qbd.solve.logred");
  const Matrix neg_a1_inv = linalg::inverse((-1.0) * a1);
  Matrix h = neg_a1_inv * a0;  // "up" probability block
  Matrix l = neg_a1_inv * a2;  // "down" probability block
  Matrix g = l;
  Matrix t = h;
  int steps = 0;
  for (int it = 0; it < 64; ++it) {
    if (opts.budget.interrupted()) {
      Diagnostics d;
      d.iterations = steps;
      d.tolerance = opts.tolerance;
      opts.budget.check("qbd::solve_g_logred", std::move(d));
    }
    CSQ_FAULT_POINT("qbd.logred.iterate");
    linalg::multiply_into_dense(ws.hl, h, l);
    linalg::multiply_into_dense(ws.lh, l, h);
    ws.hl += ws.lh;  // U = HL + LH
    // I - U, built in scratch without a fresh identity.
    ws.lh.reshape_zero(m, m);
    for (std::size_t i = 0; i < m; ++i) ws.lh(i, i) = 1.0;
    ws.lh.add_scaled(ws.hl, -1.0);
    // O(log eps) doubling steps: one fresh inverse per step is not the bottleneck.
    const Matrix m2 = linalg::inverse(ws.lh);
    linalg::multiply_into_dense(ws.hh, h, h);
    linalg::multiply_into_dense(ws.ll, l, l);
    linalg::multiply_into_dense(h, m2, ws.hh);  // H <- M2 H²
    linalg::multiply_into_dense(l, m2, ws.ll);  // L <- M2 L²
    linalg::multiply_into_dense(ws.prod, t, l);
    g += ws.prod;  // G += T L'
    linalg::multiply_into_dense(ws.prod, t, h);
    std::swap(t, ws.prod);  // T <- T H'
    steps = it + 1;
    if (t.max_abs() < opts.tolerance) break;
  }
  if (steps_out) *steps_out = steps;
  if (last_update_out) *last_update_out = t.max_abs();
  CSQ_OBS_COUNT_N("qbd.logred.doublings", steps);
  return g;
}

Matrix r_from_g(const Matrix& a0, const Matrix& a1, const Matrix& g) {
  return a0 * linalg::inverse((-1.0) * a1 - a0 * g);
}

Solution solve(const Model& model, const Options& opts) {
  const std::size_t k = model.boundary.size();
  require(k >= 1, "qbd::solve: need at least one boundary level");
  const std::size_t m = model.a0.rows();
  require(model.a1.rows() == m && model.a2.rows() == m && model.first_down.rows() == m,
          "qbd::solve: repeating block shape mismatch");

  // Copy and complete diagonals.
  std::vector<Matrix> local(k);
  for (std::size_t i = 0; i < k; ++i) {
    const BoundaryLevel& b = model.boundary[i];
    const std::size_t bi = b.local.rows();
    require(b.local.cols() == bi, "qbd::solve: boundary local not square");
    if (i == 0)
      require(b.down.empty(), "qbd::solve: level 0 must have no down block");
    else
      require(b.down.rows() == bi && b.down.cols() == model.boundary[i - 1].local.rows(),
              "qbd::solve: boundary down block shape mismatch");
    const std::size_t up_cols = (i + 1 < k) ? model.boundary[i + 1].local.rows() : m;
    require(b.up.rows() == bi && b.up.cols() == up_cols,
            "qbd::solve: boundary up block shape mismatch");
    local[i] = b.local;
    std::vector<const Matrix*> others{&b.up};
    if (i > 0) others.push_back(&b.down);
    fill_diagonal(local[i], others);
  }
  require(model.first_down.cols() == model.boundary[k - 1].local.rows(),
          "qbd::solve: first_down shape mismatch");
  // The repeating diagonal must be level-independent: first_down and a2 must
  // carry the same per-row outflow.
  {
    const std::vector<double> fd = model.first_down.row_sums();
    const std::vector<double> a2s = model.a2.row_sums();
    for (std::size_t i = 0; i < m; ++i)
      require(std::abs(fd[i] - a2s[i]) < 1e-9,
              "qbd::solve: first_down row sums must match a2 row sums");
  }
  Matrix a1 = model.a1;
  {
    std::vector<const Matrix*> others{&model.a0, &model.a2};
    fill_diagonal(a1, others);
  }

  SolveStats stats;
  const Matrix r = solve_r(model.a0, a1, model.a2, opts, &stats);
  const Matrix i_minus_r_inv = linalg::inverse(Matrix::identity(m) - r);

  // Assemble boundary balance equations. Unknowns x = (pi_0,...,pi_{k-1},pi_K).
  std::vector<std::size_t> offset(k + 1);
  std::size_t n = 0;
  for (std::size_t i = 0; i < k; ++i) {
    offset[i] = n;
    n += local[i].rows();
  }
  offset[k] = n;
  n += m;

  // e[r][c]: coefficient of unknown r in balance equation c (x * E = 0).
  Matrix e(n, n);
  const auto add_block = [&e](std::size_t row0, std::size_t col0, const Matrix& blk) {
    for (std::size_t i = 0; i < blk.rows(); ++i)
      for (std::size_t j = 0; j < blk.cols(); ++j) e(row0 + i, col0 + j) += blk(i, j);
  };
  for (std::size_t i = 0; i < k; ++i) {
    add_block(offset[i], offset[i], local[i]);
    add_block(offset[i], offset[i + 1], model.boundary[i].up);
    if (i > 0) add_block(offset[i], offset[i - 1], model.boundary[i].down);
  }
  // Level K equations: pi_{K-1} U_{K-1} (added above) + pi_K (A1 + R A2).
  add_block(offset[k], offset[k], a1 + r * model.a2);
  // Level K's down-flow into level K-1's equations.
  add_block(offset[k], offset[k - 1], model.first_down);

  // Replace equation 0 with normalization:
  // sum boundary + pi_K (I-R)^{-1} 1 = 1.
  for (std::size_t row = 0; row < n; ++row) e(row, 0) = 0.0;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < local[i].rows(); ++j) e(offset[i] + j, 0) = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += i_minus_r_inv(i, j);
    e(offset[k] + i, 0) = s;
  }

  std::vector<double> rhs(n, 0.0);
  rhs[0] = 1.0;
  opts.budget.check("qbd::solve/boundary", stats.to_diagnostics());
  CSQ_FAULT_POINT("qbd.solve.boundary");
  std::vector<double> x;
  {
    CSQ_OBS_SPAN("qbd.solve.boundary");
    const linalg::Lu lu(e.transpose());
    stats.boundary_condition = lu.condition_estimate();
    if (stats.boundary_condition > 1e12)
      stats.trail.push_back("boundary system ill-conditioned (cond ~ " +
                            fmt(stats.boundary_condition) + "); iterative refinement applied");
    x = lu.solve_refined(rhs);
  }

  Solution sol;
  sol.r = r;
  sol.i_minus_r_inv = i_minus_r_inv;
  sol.stats = std::move(stats);
  sol.boundary_pi.resize(k);
  for (std::size_t i = 0; i < k; ++i)
    sol.boundary_pi[i].assign(x.begin() + static_cast<std::ptrdiff_t>(offset[i]),
                              x.begin() + static_cast<std::ptrdiff_t>(offset[i + 1]));
  sol.pi_k.assign(x.begin() + static_cast<std::ptrdiff_t>(offset[k]), x.end());

  if (opts.verify != VerifyLevel::kNone) {
    const SolverStatus v = sol.verify(opts.verify);
    if (!v.ok()) throw VerificationFailedError(v.message, v.diagnostics);
  }
  return sol;
}

}  // namespace csq::qbd
