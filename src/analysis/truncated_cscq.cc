#include "analysis/truncated_cscq.h"

#include "analysis/stability.h"
#include "core/faultpoint.h"
#include "core/status.h"
#include "ctmc/sparse.h"
#include "obs/trace.h"
#include "ctmc/stationary.h"
#include "dist/phase_type.h"

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

TruncatedCscqResult analyze_cscq_truncated(const SystemConfig& config,
                                           const TruncatedCscqOptions& opts) {
  CSQ_OBS_SPAN("analysis.truncated.analyze");
  const obs::DeltaScope obs_scope;
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
  if (opts.max_shorts < 3 || opts.max_longs < 2)
    throw InvalidInputError("analyze_cscq_truncated: caps too small");

  const int ns_max = opts.max_shorts;
  const int nl_max = opts.max_longs;

  // State encoding. Configurations: A only at n_L = 0; L for n_L >= 1; W for
  // n_L >= 1 and n_S >= 2. Pack as:
  //   A(ns)        -> ns                                  (0..ns_max)
  //   L(ns, nl)    -> base_l + (nl-1)*(ns_max+1) + ns
  //   W(ns, nl)    -> base_w + (nl-1)*(ns_max-1) + (ns-2)
  const std::size_t base_l = static_cast<std::size_t>(ns_max) + 1;
  const std::size_t stride_l = static_cast<std::size_t>(ns_max) + 1;
  const std::size_t base_w = base_l + static_cast<std::size_t>(nl_max) * stride_l;
  const std::size_t stride_w = static_cast<std::size_t>(ns_max) - 1;
  const std::size_t n_states = base_w + static_cast<std::size_t>(nl_max) * stride_w;

  const auto id_a = [&](int ns) { return static_cast<std::size_t>(ns); };
  const auto id_l = [&](int ns, int nl) {
    return base_l + static_cast<std::size_t>(nl - 1) * stride_l + static_cast<std::size_t>(ns);
  };
  const auto id_w = [&](int ns, int nl) {
    return base_w + static_cast<std::size_t>(nl - 1) * stride_w + static_cast<std::size_t>(ns - 2);
  };

  ctmc::Generator q(n_states);

  for (int ns = 0; ns <= ns_max; ++ns) {
    // --- A states ---
    if (ns < ns_max) q.add(id_a(ns), id_a(ns + 1), ls);
    if (ns >= 1) q.add(id_a(ns), id_a(ns - 1), std::min(ns, 2) * mu_s);
    if (nl_max >= 1 && ll > 0.0) {
      if (ns >= 2)
        q.add(id_a(ns), id_w(ns, 1), ll);
      else
        q.add(id_a(ns), id_l(ns, 1), ll);
    }
    for (int nl = 1; nl <= nl_max; ++nl) {
      // --- L states ---
      const std::size_t s = id_l(ns, nl);
      if (ns < ns_max) q.add(s, id_l(ns + 1, nl), ls);
      if (nl < nl_max && ll > 0.0) q.add(s, id_l(ns, nl + 1), ll);
      q.add(s, nl == 1 ? id_a(ns) : id_l(ns, nl - 1), mu_l);
      if (ns >= 1) q.add(s, id_l(ns - 1, nl), mu_s);
      // --- W states (n_S >= 2) ---
      if (ns >= 2) {
        const std::size_t w = id_w(ns, nl);
        if (ns < ns_max) q.add(w, id_w(ns + 1, nl), ls);
        if (nl < nl_max && ll > 0.0) q.add(w, id_w(ns, nl + 1), ll);
        q.add(w, id_l(ns - 1, nl), 2.0 * mu_s);
      }
    }
  }
  q.finalize();

  CSQ_FAULT_POINT("analysis.truncated.solve");
  const ctmc::StationaryResult st =
      ctmc::stationary(q, {opts.tolerance, opts.max_sweeps, opts.sor_omega, opts.budget});

  TruncatedCscqResult res;
  res.converged = st.converged;
  res.sweeps = st.sweeps;

  double mean_shorts = 0.0, mean_longs = 0.0;
  for (int ns = 0; ns <= ns_max; ++ns) {
    const double pa = st.pi[id_a(ns)];
    mean_shorts += ns * pa;
    if (ns <= 1)
      res.p_region1 += pa;
    else
      res.p_region2 += pa;
    if (ns == ns_max) res.mass_at_short_cap += pa;
    for (int nl = 1; nl <= nl_max; ++nl) {
      double p = st.pi[id_l(ns, nl)];
      if (ns >= 2) p += st.pi[id_w(ns, nl)];
      mean_shorts += ns * p;
      mean_longs += nl * p;
      if (ns == ns_max) res.mass_at_short_cap += p;
      if (nl == nl_max) res.mass_at_long_cap += p;
    }
  }

  const double mean_xs = 1.0 / mu_s;
  const double mean_xl = 1.0 / mu_l;
  res.metrics.shorts = class_metrics_from_response(ls > 0.0 ? mean_shorts / ls : mean_xs,
                                                   ls, mean_xs);
  res.metrics.longs = class_metrics_from_response(ll > 0.0 ? mean_longs / ll : mean_xl,
                                                  ll, mean_xl);
  res.obs_metrics = obs_scope.delta();
  return res;
}

}  // namespace csq::analysis
