#include "analysis/csid.h"

#include <cmath>

#include "analysis/stability.h"
#include "mg1/mg1.h"
#include "transforms/busy_period.h"

#include "core/numeric.h"
#include "obs/trace.h"

namespace csq::analysis {

namespace {

const dist::PhaseType& require_exponential_shorts(const SystemConfig& config) {
  const auto* ph = dynamic_cast<const dist::PhaseType*>(config.short_size.get());
  if (ph == nullptr || !ph->is_exponential())
    throw InvalidInputError(
        "analyze_csid: the analytic model requires exponential short sizes "
        "(use the simulator for general shorts)");
  return *ph;
}

}  // namespace

CsidResult analyze_csid(const SystemConfig& config, const CsidOptions& opts) {
  CSQ_OBS_SPAN("analysis.csid.analyze");
  const obs::DeltaScope obs_scope;
  config.validate();
  config.require_poisson_shorts("analyze_csid");
  const double mu_s = require_exponential_shorts(config).rate();
  const double ls = config.lambda_short;
  const double ll = config.lambda_long;
  const dist::Moments xs = config.short_size->moments();
  const dist::Moments xl = config.long_size->moments();
  const double rho_s = ls * xs.m1;
  const double rho_l = ll * xl.m1;
  if (rho_l >= 1.0 || !csid_stable(rho_s, rho_l))
    throw UnstableError("analyze_csid: outside CS-ID stability region (rho_S = " +
                            std::to_string(rho_s) + " must be < " +
                            std::to_string(rho_l < 1.0 ? csid_max_rho_short(rho_l) : 0.0) +
                            ")",
                        Diagnostics::loads(rho_s, rho_l));

  CsidResult res;
  res.p_long_host_idle = csid_long_host_idle_probability(rho_s, rho_l);
  res.fraction_stolen = res.p_long_host_idle;

  // --- long jobs: M/G/1 with setup -----------------------------------------
  res.metrics.longs = class_metrics_from_response(csid_long_response(config), ll, xl.m1);
  if (ll > 0.0) {
    const double a = ll / (ls + ll);
    const double b = ll / (ll + mu_s);
    res.p_setup = ((1.0 - a) * b) / (1.0 - (1.0 - a) * (1.0 - b));
  }

  // --- short host: MMPP/M/1 QBD ---------------------------------------------
  // Modulator phases: I, S0 (stolen short in service, no long behind it),
  // SW (stolen short in service, >=1 long waiting), L* (B_L busy period),
  // M* (B_{N+1}(mu_S) busy period started by the longs behind a stolen short).
  const dist::Moments bl_m = transforms::mg1_busy_period(xl, ll);
  const dist::Moments bm_m = transforms::batch_busy_period(xl, ll, mu_s);
  const dist::PhaseType bl = dist::fit_ph(bl_m, opts.busy_period_moments, &res.fit_single);
  const dist::PhaseType bm = dist::fit_ph(bm_m, opts.busy_period_moments, &res.fit_batch);

  const std::size_t kl = bl.num_phases();
  const std::size_t km = bm.num_phases();
  const std::size_t m = 3 + kl + km;
  const std::size_t ph_i = 0, ph_s0 = 1, ph_sw = 2;
  const auto ph_l = [&](std::size_t i) { return 3 + i; };
  const auto ph_m = [&](std::size_t j) { return 3 + kl + j; };

  // Modulator generator (within-level transitions; off-diagonal only).
  qbd::Matrix mod(m, m);
  for (std::size_t i = 0; i < kl; ++i) mod(ph_i, ph_l(i)) = ll * bl.alpha()[i];
  mod(ph_i, ph_s0) = ls;  // a short steals the idle long host
  mod(ph_s0, ph_i) = mu_s;
  mod(ph_s0, ph_sw) = ll;
  for (std::size_t j = 0; j < km; ++j) mod(ph_sw, ph_m(j)) = mu_s * bm.alpha()[j];
  const auto add_ph_block = [&mod](const dist::PhaseType& ph, auto index, std::size_t to) {
    const auto& t = ph.subgenerator();
    for (std::size_t i = 0; i < ph.num_phases(); ++i) {
      for (std::size_t j = 0; j < ph.num_phases(); ++j)
        if (i != j) mod(index(i), index(j)) += t(i, j);
      mod(index(i), to) += ph.exit_rates()[i];
    }
  };
  add_ph_block(bl, ph_l, ph_i);
  add_ph_block(bm, ph_m, ph_i);

  // Short-host arrivals: rate lambda_S in every modulator phase except Idle
  // (a short arriving to an idle long host is stolen, not queued here).
  qbd::Matrix arrivals(m, m);
  for (std::size_t i = 1; i < m; ++i) arrivals(i, i) = ls;

  qbd::Model model;
  model.a0 = arrivals;
  model.a1 = mod;
  model.a2 = qbd::Matrix(m, m);
  for (std::size_t i = 0; i < m; ++i) model.a2(i, i) = mu_s;
  model.first_down = model.a2;
  model.boundary.resize(1);
  model.boundary[0].local = mod;
  model.boundary[0].up = arrivals;

  const qbd::Solution sol = qbd::solve(model, opts.qbd);
  res.solve_stats = sol.stats;

  // Diagnostic: modulator idle probability vs the closed form.
  double idle_mass = sol.boundary_pi[0][ph_i] + sol.repeating_mass_by_phase()[ph_i];
  res.modulator_idle_error = std::abs(idle_mass - res.p_long_host_idle);

  // Response time of queued (non-stolen) shorts via Little's law on the
  // short-host population; stolen shorts complete in exactly E[X_S].
  const double f = res.fraction_stolen;
  ClassMetrics shorts;
  if (ls > 0.0) {
    const double lambda_queued = ls * (1.0 - f);
    const double mean_queued_response =
        lambda_queued > 0.0 ? sol.mean_level() / lambda_queued : xs.m1;
    const double mean_response = f * xs.m1 + (1.0 - f) * mean_queued_response;
    shorts = class_metrics_from_response(mean_response, ls, xs.m1);
  } else {
    shorts = class_metrics_from_response(xs.m1, 0.0, xs.m1);
  }
  res.metrics.shorts = shorts;
  res.obs_metrics = obs_scope.delta();
  return res;
}

double csid_long_response(const SystemConfig& config) {
  config.validate();
  config.require_poisson_shorts("csid_long_response");
  const double mu_s = require_exponential_shorts(config).rate();
  const double ls = config.lambda_short;
  const double ll = config.lambda_long;
  const dist::Moments xl = config.long_size->moments();
  if (ll * xl.m1 >= 1.0)
    throw UnstableError("csid_long_response: rho_L >= 1 (long host unstable)",
                        Diagnostics::loads(Diagnostics::kUnset, ll * xl.m1));
  if (num::exactly_zero(ll)) return xl.m1;
  // Probability the first long of a long-busy-cycle finds a (stolen) short in
  // service: race from the idle long host between long arrivals and
  // short-steal-then-complete cycles.
  const double a = ll / (ls + ll);
  const double b = ll / (ll + mu_s);
  const double q = ((1.0 - a) * b) / (1.0 - (1.0 - a) * (1.0 - b));
  const dist::Moments setup{q / mu_s, 2.0 * q / (mu_s * mu_s), 6.0 * q / (mu_s * mu_s * mu_s)};
  return mg1::setup_response(ll, xl, setup);
}

}  // namespace csq::analysis
