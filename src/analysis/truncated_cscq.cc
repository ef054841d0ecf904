#include "analysis/truncated_cscq.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "analysis/stability.h"
#include "core/faultpoint.h"
#include "core/status.h"
#include "dist/phase_type.h"
#include "obs/trace.h"

namespace csq::analysis {

namespace {

double exponential_rate(const dist::DistPtr& d, const char* what) {
  const auto* ph = dynamic_cast<const dist::PhaseType*>(d.get());
  if (ph == nullptr || !ph->is_exponential())
    throw InvalidInputError(std::string("analyze_cscq_truncated: ") + what +
                            " size must be exponential");
  return ph->rate();
}

}  // namespace

double long_count_decay(const SystemConfig& config) {
  const double ll = config.lambda_long;
  const double mu_s = 1.0 / config.short_size->mean();
  return std::max(config.rho_long(), ll / (ll + 2.0 * mu_s));
}

qbd::Model cscq_truncated_model(const SystemConfig& config, int max_longs) {
  config.validate();
  config.require_poisson_shorts("analyze_cscq_truncated");
  const double mu_s = exponential_rate(config.short_size, "short");
  const double mu_l = exponential_rate(config.long_size, "long");
  const double ls = config.lambda_short;
  const double ll = config.lambda_long;
  const double rho_s = ls / mu_s;
  const double rho_l = ll / mu_l;
  if (!cscq_stable(rho_s, rho_l))
    throw UnstableError("analyze_cscq_truncated: outside CS-CQ stability region",
                        Diagnostics::loads(rho_s, rho_l));
  if (max_longs < 1) throw InvalidInputError("analyze_cscq_truncated: max_longs < 1");

  const std::size_t nl_max = static_cast<std::size_t>(max_longs);
  const std::size_t kA = 0;
  const auto id_l = [](std::size_t nl) { return nl; };
  const auto id_w = [nl_max](std::size_t nl) { return nl_max + nl; };
  const std::size_t b = nl_max + 1;      // levels 0-1: A, L (W needs two shorts)
  const std::size_t m = 2 * nl_max + 1;  // levels >= 2: A, L, W

  // Long arrivals and departures within a level; a long arriving to A waits
  // (W) when both servers are on shorts, else starts on the free one (L).
  const auto add_long_moves = [&](qbd::Matrix& local, bool both_busy) {
    local(kA, both_busy ? id_w(1) : id_l(1)) += ll;
    for (std::size_t nl = 1; nl <= nl_max; ++nl) {
      if (nl < nl_max) local(id_l(nl), id_l(nl + 1)) += ll;
      local(id_l(nl), nl == 1 ? kA : id_l(nl - 1)) += mu_l;
      if (both_busy && nl < nl_max) local(id_w(nl), id_w(nl + 1)) += ll;
    }
  };
  // A short arrival moves up a level and keeps the phase.
  const auto add_short_arrivals = [&](qbd::Matrix& up) {
    for (std::size_t i = 0; i < up.rows(); ++i) up(i, i) += ls;
  };
  // A short completion from a level >= 2: A -> A at 2 mu_S, L -> L at mu_S,
  // and W -> L at 2 mu_S (the freed server takes the first waiting long).
  const auto add_two_server_completions = [&](qbd::Matrix& down) {
    down(kA, kA) += 2.0 * mu_s;
    for (std::size_t nl = 1; nl <= nl_max; ++nl) {
      down(id_l(nl), id_l(nl)) += mu_s;
      down(id_w(nl), id_l(nl)) += 2.0 * mu_s;
    }
  };

  qbd::Model model;
  model.boundary.resize(2);
  for (std::size_t level = 0; level < 2; ++level) {
    qbd::BoundaryLevel& lvl = model.boundary[level];
    lvl.local = qbd::Matrix(b, b);
    add_long_moves(lvl.local, /*both_busy=*/false);
    lvl.up = qbd::Matrix(b, level == 0 ? b : m);
    add_short_arrivals(lvl.up);
  }
  model.boundary[1].down = qbd::Matrix(b, b);
  for (std::size_t i = 0; i < b; ++i) model.boundary[1].down(i, i) = mu_s;
  model.a0 = qbd::Matrix(m, m);
  add_short_arrivals(model.a0);
  model.a1 = qbd::Matrix(m, m);
  add_long_moves(model.a1, /*both_busy=*/true);
  model.a2 = qbd::Matrix(m, m);
  add_two_server_completions(model.a2);
  model.first_down = qbd::Matrix(m, b);
  add_two_server_completions(model.first_down);
  return model;
}

TruncatedCscqResult analyze_cscq_truncated(const SystemConfig& config,
                                           const TruncatedCscqOptions& opts) {
  CSQ_OBS_SPAN(kAnalysisTruncatedAnalyze);
  const qbd::Model model = cscq_truncated_model(config, opts.max_longs);
  CSQ_FAULT_POINT(kAnalysisTruncatedSolve);
  qbd::Options qopts;
  qopts.budget = opts.budget;
  const qbd::Solution sol = qbd::solve(model, qopts);

  TruncatedCscqResult res;
  const std::size_t nl_max = static_cast<std::size_t>(opts.max_longs);
  double mean_longs = 0.0;
  // Phase 0 is A (region 1 at levels 0-1, region 2 above); phase i >= 1 is
  // L or W with n_L = i or i - nl_max.
  const auto add_long_mass = [&](const std::vector<double>& pi) {
    for (std::size_t i = 1; i < pi.size(); ++i) {
      const std::size_t nl = i > nl_max ? i - nl_max : i;
      mean_longs += static_cast<double>(nl) * pi[i];
      if (nl == nl_max) res.mass_at_long_cap += pi[i];
    }
  };
  for (const std::vector<double>& pi : sol.boundary_pi) {
    res.p_region1 += pi[0];
    add_long_mass(pi);
  }
  const std::vector<double> rep_mass = sol.repeating_mass_by_phase();
  res.p_region2 = rep_mass[0];
  add_long_mass(rep_mass);
  // Round-off in pi can leave a tiny negative sum where the true mass is
  // ~rho_L^N; a probability is never negative.
  res.mass_at_long_cap = std::max(res.mass_at_long_cap, 0.0);

  const double ls = config.lambda_short;
  const double ll = config.lambda_long;
  const double mean_xs = config.short_size->mean();
  const double mean_xl = config.long_size->mean();
  res.metrics.shorts = class_metrics_from_response(
      ls > 0.0 ? sol.mean_level() / ls : mean_xs, ls, mean_xs);
  res.metrics.longs = class_metrics_from_response(ll > 0.0 ? mean_longs / ll : mean_xl,
                                                  ll, mean_xl);
  return res;
}

}  // namespace csq::analysis
