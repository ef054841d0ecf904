// Extension bench: bursty (MMPP) short-job arrivals — the paper's "can be
// generalized to a MAP" remark, realized. Same mean load as the Poisson
// baseline; burstiness knob = peak-to-mean ratio of the arrival rate.
#include <iostream>
#include <memory>

#include "analysis/cscq.h"
#include "core/table.h"
#include "dist/map_process.h"
#include "sim/simulator.h"

int main() {
  using namespace csq;
  const double rho_s = 0.9, rho_l = 0.5;
  std::cout << "=== Extension: MMPP short arrivals under CS-CQ ===\n"
            << "rho_S = " << rho_s << " (mean), rho_L = " << rho_l
            << ", exponential sizes; high phase holds 20% of time, mean sojourn 10\n\n";

  const SystemConfig base = SystemConfig::paper_setup(rho_s, rho_l, 1.0, 1.0);
  Table t({"peak/mean", "analysis E[T_S]", "sim E[T_S]", "analysis E[T_L]", "sim E[T_L]"});
  sim::SimOptions opts;
  opts.total_completions = 1200000;

  // Poisson row (peak/mean = 1): the same chain with a one-phase MAP.
  {
    const auto a = analysis::analyze_cscq(base);
    const auto s = sim::simulate(sim::PolicyKind::kCsCq, base, opts);
    t.add_row({1.0, a.metrics.shorts.mean_response, s.shorts.mean_response,
               a.metrics.longs.mean_response, s.longs.mean_response});
  }
  for (const double peak : {1.5, 2.0, 3.0, 4.0}) {
    SystemConfig c = base;
    c.short_arrivals = std::make_shared<dist::MapProcess>(
        dist::MapProcess::bursty(base.lambda_short, peak, 0.2, 10.0));
    const auto a = analysis::analyze_cscq(c);
    const auto s = sim::simulate(sim::PolicyKind::kCsCq, c, opts);
    t.add_row({peak, a.metrics.shorts.mean_response, s.shorts.mean_response,
               a.metrics.longs.mean_response, s.longs.mean_response});
  }
  t.print(std::cout);
  std::cout << "\nReading: burstiness inflates the short-job response several-fold at\n"
               "the same mean load (the donor host cannot absorb rate peaks above the\n"
               "combined capacity), while long jobs barely notice; the MAP chain\n"
               "tracks simulation across the sweep.\n";
  return 0;
}
