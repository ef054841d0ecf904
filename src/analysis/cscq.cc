#include "analysis/cscq.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "analysis/stability.h"
#include "mg1/mg1.h"
#include "transforms/busy_period.h"

#include "core/faultpoint.h"
#include "core/numeric.h"
#include "obs/trace.h"

namespace csq::analysis {

namespace {

// Cap on the Theta fixed point; it meets its 1e-10 convergence test in a
// handful of passes.
constexpr int kMaxWindowIterations = 8;

// Unordered pairs {i, j} (i <= j) of in-service short stages, plus the
// dynamics of two parallel PH services on that space.
struct PairSpace {
  explicit PairSpace(const dist::PhaseType& ph) : k(ph.num_phases()), ph_(&ph) {
    index.assign(k, std::vector<std::size_t>(k, 0));
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = i; j < k; ++j) {
        index[i][j] = index[j][i] = pairs.size();
        pairs.emplace_back(i, j);
      }
  }

  // Visit the events of pair state `pid`:
  //   on_change(new_pid, rate)        — one service changes stage;
  //   on_exit(surviving_stage, rate)  — one service completes.
  template <typename FChange, typename FExit>
  void for_each_event(std::size_t pid, FChange&& on_change, FExit&& on_exit) const {
    const auto [i, j] = pairs[pid];
    const linalg::Matrix& t = ph_->subgenerator();
    const auto slot = [&](std::size_t active, std::size_t other) {
      for (std::size_t n = 0; n < k; ++n) {
        if (n == active) continue;
        const double r = t(active, n);
        if (r > 0.0) on_change(index[n][other], r);
      }
      const double e = ph_->exit_rates()[active];
      if (e > 0.0) on_exit(other, e);
    };
    slot(i, j);
    slot(j, i);  // when i == j the duplicate visits double the rates, as two
                 // identical services should
  }

  // PH distribution of the FIRST completion among two services, started from
  // the given distribution over pair states.
  [[nodiscard]] dist::PhaseType first_completion(std::vector<double> alpha) const {
    linalg::Matrix t(pairs.size(), pairs.size());
    for (std::size_t pid = 0; pid < pairs.size(); ++pid) {
      double out = 0.0;
      for_each_event(
          pid,
          [&](std::size_t to, double r) {
            t(pid, to) += r;
            out += r;
          },
          [&](std::size_t, double r) { out += r; });
      t(pid, pid) = -out;
    }
    return {std::move(alpha), std::move(t)};
  }

  // Two freshly-started services.
  [[nodiscard]] std::vector<double> fresh_pair_alpha() const {
    std::vector<double> a(pairs.size(), 0.0);
    const auto& beta = ph_->alpha();
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j) a[index[i][j]] += beta[i] * beta[j];
    return a;
  }

  std::size_t k;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<std::vector<std::size_t>> index;

 private:
  const dist::PhaseType* ph_;
};

// Raw moments of Exp(delta), scaled by w.
dist::Moments exp_moments(double delta, double w) {
  return {w / delta, 2.0 * w / (delta * delta), 6.0 * w / (delta * delta * delta)};
}

}  // namespace

CscqResult analyze_cscq(const SystemConfig& config, const CscqOptions& opts) {
  CSQ_OBS_SPAN("analysis.cscq.analyze");
  const obs::DeltaScope obs_scope;
  config.validate();
  const auto* short_ph = dynamic_cast<const dist::PhaseType*>(config.short_size.get());
  if (short_ph == nullptr)
    throw InvalidInputError(
        "analyze_cscq: the analytic chain requires phase-type short sizes "
        "(use the simulator for general shorts)");
  const dist::PhaseType& xs = *short_ph;
  // Exponential shorts make Theta = Exp(2 mu_S); the closed forms below keep
  // the paper's arithmetic for that case.
  const bool exp_shorts = xs.is_exponential();
  const double delta = exp_shorts ? 2.0 * xs.rate() : 0.0;
  const double ls = config.effective_lambda_short();
  const double ll = config.lambda_long;
  const dist::Moments xl = config.long_size->moments();
  const double rho_l = ll * xl.m1;
  const double rho_s = exp_shorts ? ls / xs.rate() : ls * xs.mean();
  if (rho_l >= 1.0 || !cscq_stable(rho_s, rho_l))
    throw UnstableError("analyze_cscq: outside CS-CQ stability region (rho_S = " +
                            std::to_string(rho_s) + " must be < 2 - rho_L = " +
                            std::to_string(2.0 - rho_l) + ")",
                        Diagnostics::loads(rho_s, rho_l));

  // Short arrivals as a MAP (D0, D1). Poisson is the one-phase MAP
  // D0 = [-lambda_S], D1 = [lambda_S].
  const dist::MapProcess* map = config.short_arrivals.get();
  const linalg::Matrix poisson_d0{{-ls}};
  const linalg::Matrix poisson_d1{{ls}};
  const linalg::Matrix& d0 = map != nullptr ? map->d0() : poisson_d0;
  const linalg::Matrix& d1 = map != nullptr ? map->d1() : poisson_d1;
  const std::size_t v = d0.rows();

  const PairSpace pair(xs);
  const std::size_t k = pair.k;
  const std::size_t p = pair.pairs.size();
  const std::vector<double>& beta = xs.alpha();
  const std::vector<double>& exit = xs.exit_rates();
  const linalg::Matrix& s_t = xs.subgenerator();

  // Transitions are written on base states (everything but the arrival
  // phase, which is the fast index: state = base * v + arrival phase).
  // move — the arrival phase is unchanged (x I);
  const auto move = [v](qbd::Matrix& dst, std::size_t from, std::size_t to, double rate) {
    for (std::size_t a = 0; a < v; ++a) dst(from * v + a, to * v + a) += rate;
  };
  // arrive — a short arrival, routed from -> to with probability `route`
  // (x D1);
  const auto arrive = [&](qbd::Matrix& dst, std::size_t from, std::size_t to, double route) {
    for (std::size_t a = 0; a < v; ++a)
      for (std::size_t a2 = 0; a2 < v; ++a2)
        if (d1(a, a2) > 0.0) dst(from * v + a, to * v + a2) += d1(a, a2) * route;
  };
  // switch_phases — silent arrival-phase changes in every base state
  // (I x offdiag(D0)).
  const auto switch_phases = [&](qbd::Matrix& dst, std::size_t num_base) {
    for (std::size_t s = 0; s < num_base; ++s)
      for (std::size_t a = 0; a < v; ++a)
        for (std::size_t a2 = 0; a2 < v; ++a2)
          if (a2 != a && d0(a, a2) > 0.0) dst(s * v + a, s * v + a2) += d0(a, a2);
  };

  CscqResult res;
  res.busy_single = transforms::mg1_busy_period(xl, ll);
  const dist::PhaseType bl =
      dist::fit_ph(res.busy_single, opts.busy_period_moments, &res.fit_single);
  const std::size_t kl = bl.num_phases();

  // Theta's initial pair distribution is what an arriving long observes;
  // iterate to a fixed point starting from two fresh services.
  std::vector<double> window_alpha = pair.fresh_pair_alpha();
  for (int iter = 0; iter < kMaxWindowIterations; ++iter) {
    res.window_iterations = iter + 1;
    if (exp_shorts) {
      res.window = exp_moments(delta, 1.0);
      res.busy_batch = transforms::batch_busy_period(xl, ll, delta);
    } else {
      res.window = pair.first_completion(window_alpha).moments();
      res.busy_batch = transforms::batch_busy_period_window(xl, ll, res.window);
    }
    const dist::PhaseType bn =
        dist::fit_ph(res.busy_batch, opts.busy_period_moments, &res.fit_batch);
    const std::size_t kp = bn.num_phases();

    // --- phase indexing (base states) ---------------------------------------
    const std::size_t m_base = 2 * p + (kl + kp) * k;  // repeating levels >= 2
    const std::size_t b1_base = k + (kl + kp) * k;     // boundary level 1
    const std::size_t b0_base = 1 + kl + kp;           // boundary level 0
    const std::size_t m = m_base * v;
    res.num_phases = m;

    const auto rep_a = [&](std::size_t pid) { return pid; };
    const auto rep_w = [&](std::size_t pid) { return p + pid; };
    const auto rep_l = [&](std::size_t b, std::size_t i) { return 2 * p + b * k + i; };
    const auto rep_p = [&](std::size_t c, std::size_t i) {
      return 2 * p + kl * k + c * k + i;
    };
    const auto b1_a = [&](std::size_t i) { return i; };
    const auto b1_l = [&](std::size_t b, std::size_t i) { return k + b * k + i; };
    const auto b1_p = [&](std::size_t c, std::size_t i) { return k + kl * k + c * k + i; };
    const std::size_t b0_a = 0;
    const auto b0_l = [&](std::size_t b) { return 1 + b; };
    const auto b0_p = [&](std::size_t c) { return 1 + kl + c; };

    // --- repeating blocks (levels >= 2) -------------------------------------
    qbd::Model model;
    model.a0 = qbd::Matrix(m, m);
    for (std::size_t s = 0; s < m_base; ++s) arrive(model.a0, s, s, 1.0);  // arrivals queue
    model.a1 = qbd::Matrix(m, m);
    model.a2 = qbd::Matrix(m, m);
    model.first_down = qbd::Matrix(m, b1_base * v);

    // One in-service short's stage dynamics inside the L/P busy blocks.
    const auto add_busy_block = [&](const dist::PhaseType& bp, auto rep_idx, auto b1_target) {
      for (std::size_t b = 0; b < bp.num_phases(); ++b) {
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t from = rep_idx(b, i);
          // Short stage changes.
          for (std::size_t n = 0; n < k; ++n)
            if (n != i && s_t(i, n) > 0.0) move(model.a1, from, rep_idx(b, n), s_t(i, n));
          // Short completion: the next queued short starts fresh.
          for (std::size_t l = 0; l < k; ++l) {
            move(model.a2, from, rep_idx(b, l), exit[i] * beta[l]);
            move(model.first_down, from, b1_target(b, l), exit[i] * beta[l]);
          }
          // Busy-period stage changes.
          for (std::size_t c = 0; c < bp.num_phases(); ++c)
            if (c != b && bp.subgenerator()(b, c) > 0.0)
              move(model.a1, from, rep_idx(c, i), bp.subgenerator()(b, c));
          // Busy period ends: the freed server takes a queued short.
          for (std::size_t l = 0; l < k; ++l)
            move(model.a1, from, rep_a(pair.index[i][l]), bp.exit_rates()[b] * beta[l]);
        }
      }
    };
    add_busy_block(bl, rep_l, b1_l);
    add_busy_block(bn, rep_p, b1_p);

    for (std::size_t pid = 0; pid < p; ++pid) {
      // A pairs: zero longs, both servers on shorts.
      pair.for_each_event(
          pid, [&](std::size_t to, double r) { move(model.a1, rep_a(pid), rep_a(to), r); },
          [&](std::size_t surviving, double r) {
            // A completion pulls the next queued short (fresh stage).
            for (std::size_t l = 0; l < k; ++l)
              move(model.a2, rep_a(pid), rep_a(pair.index[surviving][l]), r * beta[l]);
            move(model.first_down, rep_a(pid), b1_a(surviving), r);
          });
      move(model.a1, rep_a(pid), rep_w(pid), ll);  // a long arrival waits

      // W pairs: >= 1 long waiting; the first completion hands that server to
      // the long (B_{N+1} starts); the surviving short continues in its stage.
      pair.for_each_event(
          pid, [&](std::size_t to, double r) { move(model.a1, rep_w(pid), rep_w(to), r); },
          [&](std::size_t surviving, double r) {
            for (std::size_t c = 0; c < kp; ++c) {
              move(model.a2, rep_w(pid), rep_p(c, surviving), r * bn.alpha()[c]);
              move(model.first_down, rep_w(pid), b1_p(c, surviving), r * bn.alpha()[c]);
            }
          });
    }
    switch_phases(model.a1, m_base);

    // --- boundary level 1: one short in service -----------------------------
    model.boundary.resize(2);
    {
      qbd::BoundaryLevel& lvl = model.boundary[1];
      lvl.local = qbd::Matrix(b1_base * v, b1_base * v);
      lvl.up = qbd::Matrix(b1_base * v, m);
      lvl.down = qbd::Matrix(b1_base * v, b0_base * v);
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t n = 0; n < k; ++n)
          if (n != i && s_t(i, n) > 0.0) move(lvl.local, b1_a(i), b1_a(n), s_t(i, n));
        // A long arrival finds a free host: B_L starts, the short keeps going.
        for (std::size_t b = 0; b < kl; ++b)
          move(lvl.local, b1_a(i), b1_l(b, i), ll * bl.alpha()[b]);
        // A short arrival starts fresh on the second server.
        for (std::size_t l = 0; l < k; ++l)
          arrive(lvl.up, b1_a(i), rep_a(pair.index[i][l]), beta[l]);
        move(lvl.down, b1_a(i), b0_a, exit[i]);
      }
      const auto busy1 = [&](const dist::PhaseType& bp, auto b1_idx, auto rep_idx,
                             auto b0_idx) {
        for (std::size_t b = 0; b < bp.num_phases(); ++b) {
          for (std::size_t i = 0; i < k; ++i) {
            const std::size_t from = b1_idx(b, i);
            for (std::size_t n = 0; n < k; ++n)
              if (n != i && s_t(i, n) > 0.0) move(lvl.local, from, b1_idx(b, n), s_t(i, n));
            for (std::size_t c = 0; c < bp.num_phases(); ++c)
              if (c != b && bp.subgenerator()(b, c) > 0.0)
                move(lvl.local, from, b1_idx(c, i), bp.subgenerator()(b, c));
            move(lvl.local, from, b1_a(i), bp.exit_rates()[b]);  // busy period ends
            arrive(lvl.up, from, rep_idx(b, i), 1.0);            // new short queues
            move(lvl.down, from, b0_idx(b), exit[i]);
          }
        }
      };
      busy1(bl, b1_l, rep_l, b0_l);
      busy1(bn, b1_p, rep_p, b0_p);
      switch_phases(lvl.local, b1_base);
    }

    // --- boundary level 0: no shorts ----------------------------------------
    {
      qbd::BoundaryLevel& lvl = model.boundary[0];
      lvl.local = qbd::Matrix(b0_base * v, b0_base * v);
      lvl.up = qbd::Matrix(b0_base * v, b1_base * v);
      // A long arrival to an empty-of-longs system finds a free host: B_L
      // starts (region 1 -> region 3).
      for (std::size_t b = 0; b < kl; ++b) move(lvl.local, b0_a, b0_l(b), ll * bl.alpha()[b]);
      for (std::size_t l = 0; l < k; ++l) arrive(lvl.up, b0_a, b1_a(l), beta[l]);
      const auto busy0 = [&](const dist::PhaseType& bp, auto b0_idx, auto b1_idx) {
        for (std::size_t b = 0; b < bp.num_phases(); ++b) {
          for (std::size_t c = 0; c < bp.num_phases(); ++c)
            if (c != b && bp.subgenerator()(b, c) > 0.0)
              move(lvl.local, b0_idx(b), b0_idx(c), bp.subgenerator()(b, c));
          move(lvl.local, b0_idx(b), b0_a, bp.exit_rates()[b]);
          for (std::size_t l = 0; l < k; ++l) arrive(lvl.up, b0_idx(b), b1_idx(b, l), beta[l]);
        }
      };
      busy0(bl, b0_l, b1_l);
      busy0(bn, b0_p, b1_p);
      switch_phases(lvl.local, b0_base);
    }

    CSQ_FAULT_POINT("analysis.cscq.solve");
    const qbd::Solution sol = qbd::solve(model, opts.qbd);
    res.solve_stats = sol.stats;
    res.qbd_mass_error = std::abs(sol.total_mass() - 1.0);
    res.short_count_decay = sol.tail_decay_rate();
    res.short_count_p99 = sol.level_quantile(0.99);

    // --- short jobs: Little's law on the exact short-job count ---------------
    res.metrics.shorts =
        ls > 0.0 ? class_metrics_from_response(sol.mean_level() / ls, ls, xs.mean())
                 // A lone short always finds a free host.
                 : class_metrics_from_response(xs.mean(), 0.0, xs.mean());

    // --- long jobs: M/G/1 with setup chi ------------------------------------
    // First long of a long-busy-cycle arrives to zero longs (A states).
    // Region 1 = levels 0..1 (a host is free), region 2 = levels >= 2 (both
    // on shorts), where the observed pair sets Theta.
    res.p_region1 = 0.0;
    for (std::size_t a = 0; a < v; ++a) res.p_region1 += sol.boundary_pi[0][b0_a * v + a];
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t a = 0; a < v; ++a) res.p_region1 += sol.boundary_pi[1][b1_a(i) * v + a];
    const std::vector<double> rep_mass = sol.repeating_mass_by_phase();
    std::vector<double> pair_cond(p, 0.0);
    for (std::size_t pid = 0; pid < p; ++pid)
      for (std::size_t a = 0; a < v; ++a) pair_cond[pid] += rep_mass[rep_a(pid) * v + a];
    res.p_region2 = linalg::sum(pair_cond);
    const double pa = res.p_region1 + res.p_region2;
    const double w2 = pa > 0.0 ? res.p_region2 / pa : 0.0;
    dist::Moments setup{0.0, 0.0, 0.0};  // chi = Theta w.p. w2, else 0
    if (exp_shorts) {
      setup = exp_moments(delta, w2);
    } else if (res.p_region2 > 0.0 && pa > 0.0) {
      for (double& x : pair_cond) x /= res.p_region2;
      const dist::Moments theta = pair.first_completion(pair_cond).moments();
      setup = {w2 * theta.m1, w2 * theta.m2, w2 * theta.m3};
    }
    res.metrics.longs =
        class_metrics_from_response(mg1::setup_response(ll, xl, setup), ll, xl.m1);

    // --- fixed-point update of Theta's pair distribution --------------------
    if (exp_shorts || res.p_region2 <= 0.0) break;
    double diff = 0.0;
    for (std::size_t pid = 0; pid < p; ++pid)
      diff = std::max(diff, std::abs(pair_cond[pid] - window_alpha[pid]));
    window_alpha = std::move(pair_cond);
    if (diff < 1e-10) break;
  }
  res.obs_metrics = obs_scope.delta();
  return res;
}

double cscq_long_response_saturated(const SystemConfig& config) {
  config.validate();
  const auto* ph = dynamic_cast<const dist::PhaseType*>(config.short_size.get());
  if (ph == nullptr || !ph->is_exponential())
    throw InvalidInputError(
        "cscq_long_response_saturated: requires exponential short sizes");
  const double ll = config.lambda_long;
  const dist::Moments xl = config.long_size->moments();
  if (ll * xl.m1 >= 1.0)
    throw UnstableError("cscq_long_response_saturated: rho_L >= 1",
                        Diagnostics::loads(Diagnostics::kUnset, ll * xl.m1));
  if (num::exactly_zero(ll)) return xl.m1;
  return mg1::setup_response(ll, xl, exp_moments(2.0 * ph->rate(), 1.0));
}

}  // namespace csq::analysis
