#include "qbd/qbd.h"

#include <cmath>
#include <cstdio>
#include <limits>
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

// The text an ostream prints at precision 6, without building a stream.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// Scratch buffers reused across doubling steps and across solves, so a
// warm thread runs the whole R solve without per-step heap allocation.
// Buffers size themselves lazily. Every buffer is fully overwritten before
// it is read, so leftovers from an earlier solve (of any shape, finished or
// thrown out of) never reach a result.
struct Workspace {
  Matrix h, l, g, t;      // logarithmic reduction: up/down blocks, G, T product
  Matrix hh, ll, hl, lh;  // squares and cross terms
  Matrix inv;             // (I - U)^{-1} of the step, and the per-solve inverses
  Matrix prod;            // generic product scratch
  Matrix lu;              // in-place LU factors behind every inverse
  std::vector<int> perm;  // the factors' row permutation
  Matrix pow, sq;         // spectral probe: normalized m^(2^k) and its square
  std::vector<double> row, share, profile;  // the probe's row statistics
};

// ‖A0 + R A1 + R² A2‖_max — how well R solves its defining equation —
// in the thread scratch, with no heap allocation on a warm thread. The
// same products and sums, in the same order, as evaluating
// (a0 + r * a1 + r * r * a2).max_abs() (multiply_into_dense is bit-identical
// to operator*), so the residual is the same bits.
double r_residual(const Matrix& a0, const Matrix& a1, const Matrix& a2, const Matrix& r,
                  Workspace& ws) {
  linalg::multiply_into_dense(ws.prod, r, a1);
  ws.hl = a0;
  ws.hl += ws.prod;  // A0 + R A1
  linalg::multiply_into_dense(ws.sq, r, r);
  linalg::multiply_into_dense(ws.prod, ws.sq, a2);
  ws.hl += ws.prod;  // + R² A2
  return ws.hl.max_abs();
}

// One workspace per thread, shared by every solve on it: sweeps, serve
// workers and plain loops all get warm scratch without passing anything.
// thread_local keeps it lock-free.
Workspace& thread_workspace() {
  thread_local Workspace ws;
  return ws;
}

struct LogRedOutcome {
  int steps = 0;
  double last_update = -1.0;  // min(‖T‖_max, ‖L‖_max) after the last step
  bool converged = false;
  bool finite = true;
  bool interrupted = false;  // the RunBudget stopped the loop
};

// G, the minimal solution of A2 + A1 G + A0 G² = 0, into ws.g by
// logarithmic reduction (Latouche & Ramaswami 1999, Ch. 8). Each doubling
// step squares the number of levels the iterates span, so the loop stops
// after O(log) steps even where sp(R) -> 1. What G still lacks after a
// step is bounded by ‖T‖ times the down-passage probabilities of the
// reduced chain, which are of order ‖L‖. T vanishes for a positive-recurrent
// chain and L for a transient one, so the loop stops when either falls
// below the tolerance. The budget is polled every step; an interrupted
// budget or a non-finite iterate stops the loop early.
LogRedOutcome solve_g_logred(const Matrix& a0, const Matrix& a1, const Matrix& a2,
                             const Options& opts, Workspace& ws) {
  const std::size_t m = a0.rows();
  CSQ_OBS_SPAN(kQbdSolveLogred);
  ws.lh = a1;
  ws.lh *= -1.0;
  linalg::inverse_into(ws.inv, ws.lh, ws.lu, ws.perm);  // (-A1)^{-1}
  linalg::multiply_into_dense(ws.h, ws.inv, a0);        // "up" probability block
  linalg::multiply_into_dense(ws.l, ws.inv, a2);        // "down" probability block
  ws.g = ws.l;
  ws.t = ws.h;
  LogRedOutcome out;
  while (out.steps < opts.max_iterations) {
    if (opts.budget.interrupted()) {
      out.interrupted = true;
      break;
    }
    CSQ_FAULT_POINT_MATRIX(kQbdLogredIterate, &ws.h(0, 0), m * m);
    linalg::multiply_into_dense(ws.hl, ws.h, ws.l);
    linalg::multiply_into_dense(ws.lh, ws.l, ws.h);
    ws.hl += ws.lh;  // U = HL + LH
    // I - U, built in scratch without a fresh identity.
    ws.lh.reshape_zero(m, m);
    for (std::size_t i = 0; i < m; ++i) ws.lh(i, i) = 1.0;
    ws.lh.add_scaled(ws.hl, -1.0);
    linalg::inverse_into(ws.inv, ws.lh, ws.lu, ws.perm);
    linalg::multiply_into_dense(ws.hh, ws.h, ws.h);
    linalg::multiply_into_dense(ws.ll, ws.l, ws.l);
    linalg::multiply_into_dense(ws.h, ws.inv, ws.hh);  // H <- (I - U)^{-1} H²
    linalg::multiply_into_dense(ws.l, ws.inv, ws.ll);  // L <- (I - U)^{-1} L²
    linalg::multiply_into_dense(ws.prod, ws.t, ws.l);
    ws.g += ws.prod;  // G += T L'
    linalg::multiply_into_dense(ws.prod, ws.t, ws.h);
    std::swap(ws.t, ws.prod);  // T <- T H'
    ++out.steps;
    // max_abs is NaN on any NaN entry, so the finiteness check also catches
    // poison in H before the next step spreads it.
    const double t_max = ws.t.max_abs(), l_max = ws.l.max_abs();
    out.last_update = std::min(t_max, l_max);
    if (!std::isfinite(t_max) || !std::isfinite(l_max) || !std::isfinite(ws.h.max_abs())) {
      out.finite = false;
      break;
    }
    if (out.last_update < opts.tolerance) {
      out.converged = true;
      break;
    }
  }
  CSQ_OBS_COUNT_N(kQbdLogredDoublings, out.steps);
  return out;
}

}  // namespace

Diagnostics SolveStats::to_diagnostics() const {
  Diagnostics d;
  d.iterations = iterations;
  d.residual = residual;
  d.spectral_radius = spectral_radius;
  d.condition_estimate = boundary_condition;
  // Move-assign a temporary: assigning the const char* directly trips a
  // GCC 12 -Wrestrict false positive inside std::string::_M_replace.
  d.stage = std::string("logarithmic_reduction");
  d.notes = trail;
  return d;
}

double spectral_radius_estimate(const Matrix& m, int max_iterations, double tolerance,
                                bool* converged_out, int* iterations_out,
                                const RunBudget& budget) {
  // Gelfand's formula with repeated squaring: after k squarings the stored
  // matrix is a normalized m^(2^k), and L_k = log ||m^(2^k)|| / 2^k tends to
  // log sp(m) geometrically in k for every spectrum, defective eigenvalues
  // and equal-modulus complex pairs included (plain power iteration stalls
  // at O(1/iters) there). The Richardson step 2 L_k - L_{k-1} cancels L_k's
  // leading c / 2^k error, so the estimate settles in ~10 squarings, not ~36.
  // It reads only the maximal row, so a calm step also needs settled rows: a
  // growing row share is a larger eigenvalue behind a weaker row, and a
  // moving maximal-row profile a second eigenvalue close enough for the
  // estimate to plateau off the answer (CS-ID's R has pairs 1e-7 apart).
  // Below 2^k = n a Jordan block looks converged (its row sums are exactly
  // (lambda + 1)^(2^k)), two calm steps in a row guard against a chance
  // agreement, and rows of a non-real dominant pair oscillate for ever, so
  // at the cap a calm estimate stands.
  const std::size_t n = m.rows();
  CSQ_OBS_SPAN(kQbdSolveSpectral);
  bool converged = false;
  int iterations = 0;
  double estimate = 0.0;
  if (n == 0) {
    converged = true;
  } else {
    Workspace& ws = thread_workspace();
    Matrix& p = ws.pow;
    p = m;
    // Row sums of p; each row's share of ||p|| and the maximal row over
    // ||p||, both from the previous step.
    ws.row.resize(n);
    ws.share.assign(n, 0.0);
    ws.profile.assign(n, 0.0);
    // log_est accumulates L_k across the normalizations.
    double log_est = 0.0;
    double scale = 1.0;  // 2^-k
    double prev = std::numeric_limits<double>::infinity();
    int calm = 0;  // consecutive steps whose estimate moved less than the tolerance
    // 2^60 effective power puts the defectiveness error far below 1e-12;
    // honour a smaller caller-provided iteration cap.
    const int max_squarings = std::min(max_iterations, 60);
    for (int k = 0; k <= max_squarings; ++k) {
      if (budget.interrupted()) break;  // best effort; caller decides
      iterations = k;
      double c = 0.0;  // ||p||_inf, attained first at row `top`
      std::size_t top = 0;
      for (std::size_t i = 0; i < n; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < n; ++j) s += std::abs(p(i, j));
        ws.row[i] = s;
        if (s > c) {
          c = s;
          top = i;
        }
      }
      if (num::exactly_zero(c)) {  // m^(2^k) == 0: nilpotent, sp = 0
        estimate = 0.0;
        converged = true;
        break;
      }
      const double prev_log = log_est;
      log_est += std::log(c) * scale;
      estimate = std::exp(k == 0 ? log_est : 2.0 * log_est - prev_log);
      const bool calm_step = scale * static_cast<double>(n) <= 1.0 &&
                             std::abs(estimate - prev) < tolerance * std::max(estimate, 1.0);
      calm = calm_step ? calm + 1 : 0;
      const double allowed = tolerance / scale;
      bool settled = true;
      double moved = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double q = ws.row[i] / c;
        settled = settled && q <= ws.share[i] * (1.0 + allowed);
        ws.share[i] = q;
        const double v = std::abs(p(top, i)) / c;
        moved += std::abs(v - ws.profile[i]);
        ws.profile[i] = v;
      }
      if (calm >= 2 && ((settled && moved <= allowed) || k == max_squarings)) {
        converged = true;
        break;
      }
      prev = estimate;
      p *= 1.0 / c;
      linalg::multiply_into_dense(ws.sq, p, p);
      std::swap(p, ws.sq);
      scale *= 0.5;
    }
  }
  if (converged_out) *converged_out = converged;
  if (iterations_out) *iterations_out = iterations;
  CSQ_OBS_COUNT_N(kQbdSpectralSquarings, iterations);
  return estimate;
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
  // solve_r already ran the same estimator (at most 60 squarings, 1e-12) on
  // this R; reuse its result instead of re-estimating per query. Hand-built
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
  CSQ_OBS_COUNT(kQbdSolveCalls);
  // A warm workspace keeps the solve allocation-free per step; count the
  // solves that had to (re)shape this thread's scratch so sweeps can verify
  // reuse.
  if (ws.h.rows() != m || ws.h.cols() != m) CSQ_OBS_COUNT(kQbdWorkspaceResizes);

  // Failure exit: publish the stats gathered so far into the diagnostics.
  const auto fail_diagnostics = [&] {
    if (stats_out) *stats_out = stats;
    Diagnostics d = stats.to_diagnostics();
    d.tolerance = opts.tolerance;
    return d;
  };

  // Interrupted exit: let the budget throw the matching taxonomy error
  // (CancelledError / DeadlineExceededError) carrying the partial stats.
  const auto throw_interrupted = [&](const std::string& where) {
    stats.trail.push_back(where + ": interrupted by " +
                          (opts.budget.cancelled() ? "cancellation" : "deadline"));
    opts.budget.check(where, fail_diagnostics());
    throw InternalError("solve_r: interrupted exit taken without an interrupted budget");
  };

  const LogRedOutcome lr = solve_g_logred(a0, a1, a2, opts, ws);
  stats.iterations = lr.steps;
  char line[96];  // the trail's one success-path note, formatted without temporaries
  std::snprintf(line, sizeof line, "logarithmic_reduction: %d doubling steps (last update %g)",
                lr.steps, lr.last_update);
  stats.trail.emplace_back(line);
  if (lr.interrupted) throw_interrupted("solve_r/logarithmic_reduction");
  if (!lr.finite)
    throw NotConvergedError("solve_r: logarithmic reduction produced a non-finite iterate",
                            fail_diagnostics());

  // R = A0 (-A1 - A0 G)^{-1}, also from a capped G (see below).
  linalg::multiply_into_dense(ws.prod, a0, ws.g);
  ws.lh = a1;
  ws.lh *= -1.0;
  ws.lh -= ws.prod;
  linalg::inverse_into(ws.inv, ws.lh, ws.lu, ws.perm);
  Matrix r;
  linalg::multiply_into_dense(r, a0, ws.inv);
  stats.residual = r_residual(a0, a1, a2, r, ws);

  // sp(R) with a trusted convergence status: an unconverged estimate is a
  // structured failure, never a silent answer. It is the instability
  // arbiter: sp(R) >= 1 means the chain is not positive recurrent, whatever
  // the iteration did.
  bool sp_converged = false;
  int sp_iters = 0;
  stats.spectral_radius =
      spectral_radius_estimate(r, 60, 1e-12, &sp_converged, &sp_iters, opts.budget);
  if (!sp_converged) {
    stats.trail.push_back("spectral-radius estimate exhausted after " +
                          std::to_string(sp_iters) + " squarings (last estimate " +
                          fmt(stats.spectral_radius) + ")");
    if (opts.budget.interrupted()) throw_interrupted("solve_r/spectral_radius");
    Diagnostics d = fail_diagnostics();
    d.iterations = sp_iters;
    throw NotConvergedError("solve_r: spectral-radius estimate did not converge",
                            std::move(d));
  }
  // A capped G is a partial sum of the minimal G, and R grows with G, so a
  // capped solve of a positive-recurrent chain can only underestimate sp(R):
  // the check below never calls such a chain unstable.
  if (stats.spectral_radius >= 1.0 - 1e-10)
    throw UnstableError("solve_r: spectral radius " + fmt(stats.spectral_radius) +
                            " >= 1 (QBD not positive recurrent)",
                        fail_diagnostics());
  if (!lr.converged)
    throw NotConvergedError("solve_r: logarithmic reduction did not converge in " +
                                std::to_string(opts.max_iterations) + " doubling steps",
                            fail_diagnostics());

  // Accept R when it solves its equation to near the rate scale's precision.
  const double scale =
      std::max(1.0, std::max(a0.max_abs(), std::max(a1.max_abs(), a2.max_abs())));
  if (!(stats.residual <= std::max(1e-10, opts.tolerance * 1e3) * scale))
    throw NotConvergedError("solve_r: R-equation residual " + fmt(stats.residual) +
                                " above the acceptance bound",
                            fail_diagnostics());
  if (stats_out) *stats_out = stats;
  return r;
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
  Matrix r = solve_r(model.a0, a1, model.a2, opts, &stats);
  // (I - R)^{-1}, factored in the thread's scratch.
  Workspace& ws = thread_workspace();
  ws.lh.reshape_zero(m, m);
  for (std::size_t i = 0; i < m; ++i) ws.lh(i, i) = 1.0;
  ws.lh -= r;
  Matrix i_minus_r_inv;
  linalg::inverse_into(i_minus_r_inv, ws.lh, ws.lu, ws.perm);

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
  // Diagnostics cost a copy of the trail; build them only for the throw.
  if (opts.budget.interrupted())
    opts.budget.check("qbd::solve/boundary", stats.to_diagnostics());
  CSQ_FAULT_POINT(kQbdSolveBoundary);
  std::vector<double> x;
  {
    CSQ_OBS_SPAN(kQbdSolveBoundary);
    const linalg::Lu lu(e.transpose());
    stats.boundary_condition = lu.condition_estimate();
    if (stats.boundary_condition > 1e12)
      stats.trail.push_back("boundary system ill-conditioned (cond ~ " +
                            fmt(stats.boundary_condition) + "); iterative refinement applied");
    x = lu.solve_refined(rhs);
  }

  Solution sol;
  sol.r = std::move(r);
  sol.i_minus_r_inv = std::move(i_minus_r_inv);
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
