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
  Matrix sq;              // R² for the residual
  Matrix lu;              // in-place LU factors behind every inverse
  std::vector<int> perm;  // the factors' row permutation
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

struct Drift {
  double up = 0.0, down = 0.0;  // alpha A0 1 and alpha A2 1
};

// The level's mean up- and down-rates under alpha, the stationary vector of
// the phase process A0 + A1 + A2 (a1 with its diagonal, so rows sum to zero).
// Replacing the generator's last column by ones turns alpha A = 0, alpha 1 = 1
// into alpha B = e_{m-1}, so alpha is the last row of B^{-1}: one LU in the
// thread scratch. B is nonsingular when the phase process has a single closed
// class; transient phases (CS-CQ's L phases, which only the boundary enters)
// get alpha = 0.
Drift mean_drift(const Matrix& a0, const Matrix& a1, const Matrix& a2, Workspace& ws) {
  const std::size_t m = a0.rows();
  ws.lh = a0;
  ws.lh += a1;
  ws.lh += a2;
  for (std::size_t i = 0; i < m; ++i) ws.lh(i, m - 1) = 1.0;
  linalg::inverse_into(ws.inv, ws.lh, ws.lu, ws.perm);
  Drift d;
  for (std::size_t i = 0; i < m; ++i) {
    const double alpha = ws.inv(m - 1, i);
    for (std::size_t j = 0; j < m; ++j) {
      d.up += alpha * a0(i, j);
      d.down += alpha * a2(i, j);
    }
  }
  return d;
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
  d.condition_estimate = boundary_condition;
  // Move-assign a temporary: assigning the const char* directly trips a
  // GCC 12 -Wrestrict false positive inside std::string::_M_replace.
  d.stage = std::string("logarithmic_reduction");
  d.notes = trail;
  return d;
}

double spectral_radius_estimate(const Matrix& m) {
  // After k squarings p is m^(2^k) over the norms divided out so far, times
  // 2^(2 shift), and log ||m^(2^k)||_inf / 2^k accumulates in log_est. A
  // normalized power that is nearly nilpotent (a Jordan block's) squares to
  // a tiny norm, so its smallest entries would underflow; scaling it by
  // 2^shift ~ 1 / sqrt(norm) before squaring keeps them. Power-of-two
  // scaling rounds nothing, so it moves no bits of the plain squaring.
  Matrix p = m, sq;
  double log_est = 0.0;
  double scale = 1.0;  // 2^-k
  int shift = 0;
  for (int k = 0; k <= 60; ++k) {
    double c = 0.0;
    for (std::size_t i = 0; i < p.rows(); ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < p.cols(); ++j) s += std::abs(p(i, j));
      c = std::max(c, s);
    }
    if (num::exactly_zero(c)) return 0.0;  // m^(2^k) == 0: nilpotent
    const double norm = std::ldexp(c, -2 * shift);
    log_est += std::log(norm) * scale;
    shift = -std::ilogb(norm) / 2;
    p *= std::ldexp(1.0 / c, shift);
    linalg::multiply_into_dense(sq, p, p);
    std::swap(p, sq);
    scale *= 0.5;
  }
  return std::exp(log_est);
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

double Solution::tail_decay_rate() const { return spectral_radius_estimate(r); }

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

  // sp(R) < 1 by a Collatz–Wielandt certificate: for R >= 0, the vector
  // x = (I - R)^{-1} 1 has x >= 1 iff sp(R) < 1 (x = sum_j R^j 1), and then
  // R x = x - 1 <= (1 - 1 / max x) x gives sp(R) <= 1 - 1 / max x. A gap
  // 1 - sp(R) below sqrt(eps) (max x above 2^26) is finer than R resolves:
  // at max x ~ 4e7 a CS-CQ mean response is 2% off, at 2e8 a factor 2.
  double r_min = 0.0;
  for (const double v : r.data()) r_min = std::min(r_min, v);
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = 0.0;
  for (std::size_t i = 0; i < i_minus_r_inv.rows(); ++i) {
    double x = 0.0;
    for (std::size_t j = 0; j < i_minus_r_inv.cols(); ++j) x += i_minus_r_inv(i, j);
    x_min = std::min(x_min, x);
    x_max = std::max(x_max, x);
  }
  if (r_min < -kNegTol || !(x_min >= 1.0 - kNegTol))
    failures.push_back("sp(R) < 1 not certified (min R entry " + fmt(r_min) +
                       ", min (I - R)^-1 1 entry " + fmt(x_min) + ")");
  else if (x_max > 0x1p26)
    failures.push_back("1 - sp(R) below R's precision ((I - R)^-1 1 reaches " + fmt(x_max) +
                       " > 2^26)");

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
  require(m > 0 && a0.cols() == m && a1.rows() == m && a1.cols() == m && a2.rows() == m &&
              a2.cols() == m,
          "solve_r: blocks must be square, nonempty and same size");
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

  // Positive recurrence is the mean drift's sign; decide it before iterating.
  const Drift drift = mean_drift(a0, a1, a2, ws);
  stats.drift = drift.up - drift.down;
  if (stats.drift >= 0.0)
    throw UnstableError("solve_r: mean up-rate " + fmt(drift.up) + " >= mean down-rate " +
                            fmt(drift.down) + " (QBD not positive recurrent)",
                        fail_diagnostics());

  const LogRedOutcome lr = solve_g_logred(a0, a1, a2, opts, ws);
  stats.iterations = lr.steps;
  char line[96];  // the trail's one success-path note, formatted without temporaries
  std::snprintf(line, sizeof line, "logarithmic_reduction: %d doubling steps (last update %g)",
                lr.steps, lr.last_update);
  stats.trail.emplace_back(line);
  if (lr.interrupted) {
    // Let the budget throw the matching taxonomy error (CancelledError /
    // DeadlineExceededError) carrying the partial stats.
    stats.trail.push_back(std::string("solve_r/logarithmic_reduction: interrupted by ") +
                          (opts.budget.cancelled() ? "cancellation" : "deadline"));
    opts.budget.check("solve_r/logarithmic_reduction", fail_diagnostics());
    throw InternalError("solve_r: interrupted exit taken without an interrupted budget");
  }
  if (!lr.finite)
    throw NotConvergedError("solve_r: logarithmic reduction produced a non-finite iterate",
                            fail_diagnostics());

  // R = A0 (-A1 - A0 G)^{-1}, also from a capped G: its residual goes into the
  // NotConverged diagnostics.
  linalg::multiply_into_dense(ws.prod, a0, ws.g);
  ws.lh = a1;
  ws.lh *= -1.0;
  ws.lh -= ws.prod;
  linalg::inverse_into(ws.inv, ws.lh, ws.lu, ws.perm);
  Matrix r;
  linalg::multiply_into_dense(r, a0, ws.inv);
  stats.residual = r_residual(a0, a1, a2, r, ws);
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
