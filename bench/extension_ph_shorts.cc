// Extension bench: CS-CQ with NON-exponential short jobs — the
// generalization the paper sketches ("straightforward to generalize using
// any phase-type distribution"). All of the paper's numerical results use
// exponential shorts; this bench regenerates the Figure-4 panel-(a) sweep
// with Erlang-2 (C^2 = 0.5) and Coxian (C^2 = 4) shorts and cross-checks
// analyze_cscq's phase-type chain against simulation at a few points.
#include <iostream>
#include <memory>

#include "analysis/cscq.h"
#include "analysis/stability.h"
#include "core/table.h"
#include "sim/simulator.h"

namespace {

csq::SystemConfig make_config(double rho_s, double rho_l, const csq::dist::PhaseType& shorts,
                              double long_scv) {
  csq::SystemConfig c = csq::SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0, long_scv);
  c.short_size = std::make_shared<csq::dist::PhaseType>(shorts);
  c.lambda_short = rho_s / shorts.mean();
  return c;
}

}  // namespace

int main() {
  using namespace csq;
  const double rho_l = 0.5;
  std::cout << "=== Extension: CS-CQ with phase-type shorts (rho_L = 0.5, longs exp) ===\n\n";

  struct ShortKind {
    const char* label;
    dist::PhaseType dist;
  };
  const ShortKind kinds[] = {
      {"Erlang-2 shorts (C^2=0.5)", dist::PhaseType::erlang(2, 2.0)},
      {"exponential shorts (C^2=1)", dist::PhaseType::exponential(1.0)},
      {"Coxian shorts (C^2=4)", dist::PhaseType::coxian_mean_scv(1.0, 4.0)},
  };

  for (const auto& kind : kinds) {
    std::cout << "-- " << kind.label << " --\n";
    Table t({"rho_S", "E[T_S] analysis", "E[T_L] analysis"});
    for (double rho_s = 0.1; rho_s < 1.45; rho_s += 0.1) {
      const SystemConfig c = make_config(rho_s, rho_l, kind.dist, 1.0);
      const auto r = analysis::analyze_cscq(c);
      t.add_row({rho_s, r.metrics.shorts.mean_response, r.metrics.longs.mean_response});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "-- spot-check vs simulation (C^2=4 shorts) --\n";
  Table v({"rho_S", "analysis E[T_S]", "sim E[T_S]", "analysis E[T_L]", "sim E[T_L]"});
  sim::SimOptions opts;
  opts.total_completions = 1000000;
  for (const double rho_s : {0.6, 1.0, 1.3}) {
    const SystemConfig c = make_config(rho_s, rho_l, kinds[2].dist, 1.0);
    const auto r = analysis::analyze_cscq(c);
    const auto s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
    v.add_row({rho_s, r.metrics.shorts.mean_response, s.shorts.mean_response,
               r.metrics.longs.mean_response, s.longs.mean_response});
  }
  v.print(std::cout);
  std::cout << "\nReading: lower-variability shorts narrow the gap the donor host must\n"
               "cover; higher-variability shorts lengthen the window a waiting long\n"
               "spends behind two in-service shorts, raising the long-job penalty.\n";
  return 0;
}
