// Extension bench: cycle stealing beyond two hosts (the sizes in the
// paper's Table 1 installations). Simulation study: how much does each
// additional donor host buy an overloaded short partition, and does the
// CS-CQ > CS-ID > Dedicated ordering survive at scale?
#include <iostream>
#include <limits>

#include "core/table.h"
#include "sim/simulator.h"

int main() {
  using namespace csq;
  sim::SimOptions opts;
  opts.total_completions = 1000000;
  const auto run = [&opts](sim::PolicyKind kind, int k, int m, const SystemConfig& c) {
    sim::SimOptions o = opts;
    o.short_hosts = k;
    o.long_hosts = m;
    return sim::simulate(kind, c, o);
  };

  std::cout << "=== Donor scaling: 1 short host at rho_S = 1.3, donors at rho_L = 0.5 each ===\n\n";
  {
    Table t({"donor hosts", "CS-ID E[T_S]", "CS-CQ E[T_S]", "CS-CQ E[T_L]"});
    for (int m = 1; m <= 4; ++m) {
      const SystemConfig c = SystemConfig::paper_setup(1.3, 0.5 * m, 1.0, 1.0);
      const auto id = run(sim::PolicyKind::kCsId, 1, m, c);
      const auto cq = run(sim::PolicyKind::kCsCq, 1, m, c);
      t.add_row({static_cast<double>(m), id.shorts.mean_response, cq.shorts.mean_response,
                 cq.longs.mean_response});
    }
    t.print(std::cout);
  }

  std::cout << "\n=== 4-host cluster (2 short + 2 long hosts), shorts 1 / longs 10 (C^2=8) ===\n\n";
  {
    Table t({"rho_S total", "Dedicated E[T_S]", "CS-ID E[T_S]", "CS-CQ E[T_S]",
             "Dedicated E[T_L]", "CS-CQ E[T_L]"});
    for (const double rho_s : {1.0, 1.6, 2.2, 2.8}) {
      const SystemConfig c = SystemConfig::paper_setup(rho_s, 1.0, 1.0, 10.0, 8.0);
      const bool ded_ok = rho_s < 2.0;
      double ded_s = std::numeric_limits<double>::quiet_NaN();
      double ded_l = std::numeric_limits<double>::quiet_NaN();
      if (ded_ok) {
        const auto ded = run(sim::PolicyKind::kDedicated, 2, 2, c);
        ded_s = ded.shorts.mean_response;
        ded_l = ded.longs.mean_response;
      }
      const auto id = run(sim::PolicyKind::kCsId, 2, 2, c);
      const auto cq = run(sim::PolicyKind::kCsCq, 2, 2, c);
      t.add_row({rho_s, ded_s, id.shorts.mean_response, cq.shorts.mean_response, ded_l,
                 cq.longs.mean_response});
    }
    t.print(std::cout);
  }
  std::cout << "\nReading: each extra donor extends the stable region for shorts (total\n"
               "capacity 1 + m - rho_L_total) and the central queue keeps dominating\n"
               "immediate dispatch; long jobs still pay at most a residual short\n"
               "service per long-busy-cycle per donor.\n";
  return 0;
}
