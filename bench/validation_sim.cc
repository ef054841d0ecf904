// Section 4, "validation against simulation": analysis vs discrete-event
// simulation over a grid of loads, size ratios and long-job variability.
// The paper reports differences "under 2% in almost all cases, never over
// 5%, and such differences occurred rarely and only at very high load".
// Each cell's simulated means carry a 95% CI over independent replications.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/stability.h"
#include "analysis/csid.h"
#include "core/table.h"
#include "sim/simulator.h"

int main() {
  using namespace csq;
  std::cout << "=== Validation of the analysis against simulation ===\n"
            << "(paper: <2% typical, <=5% worst case at very high load)\n\n";

  struct Case {
    double rho_s, rho_l, mean_s, mean_l, scv_l;
  };
  const Case cases[] = {
      {0.5, 0.5, 1.0, 1.0, 1.0},  {0.9, 0.5, 1.0, 1.0, 1.0},  {1.2, 0.5, 1.0, 1.0, 1.0},
      {0.9, 0.3, 1.0, 10.0, 1.0}, {0.9, 0.7, 10.0, 1.0, 1.0}, {0.5, 0.5, 1.0, 1.0, 8.0},
      {1.2, 0.5, 1.0, 1.0, 8.0},  {0.9, 0.5, 1.0, 10.0, 8.0}, {1.4, 0.3, 1.0, 1.0, 8.0},
  };

  // 8 independent replications of 250000 completions per cell: the same
  // 2e6 completions as one long run, but with a Student-t CI across
  // replications, so a deviation can be told from simulation noise.
  sim::SimOptions sopts;
  sopts.total_completions = 250000;
  sim::ReplicationOptions ropts;
  ropts.replications = 8;

  double worst = 0.0;
  double worst_gap = 0.0;
  double worst_ci = 0.0;  // the simulated mean's ci95 at the worst deviation
  std::vector<std::string> outside;  // class means the analysis misses by > 2*ci95
  int cells = 0;
  for (const auto policy : {sim::PolicyKind::kCsCq, sim::PolicyKind::kCsId}) {
    std::cout << "-- " << sim::policy_name(policy) << " --\n";
    Table t({"rho_S", "rho_L", "mean_S", "mean_L", "C2_L", "analysis E[T_S]", "sim E[T_S]",
             "ci95_S", "err_S%", "analysis E[T_L]", "sim E[T_L]", "ci95_L", "err_L%"});
    for (const Case& c : cases) {
      const SystemConfig cfg =
          SystemConfig::paper_setup(c.rho_s, c.rho_l, c.mean_s, c.mean_l, c.scv_l);
      PolicyMetrics m;
      if (policy == sim::PolicyKind::kCsCq) {
        if (!analysis::cscq_stable(c.rho_s, c.rho_l)) continue;
        m = analysis::analyze_cscq(cfg).metrics;
      } else {
        if (!analysis::csid_stable(c.rho_s, c.rho_l)) continue;
        m = analysis::analyze_csid(cfg).metrics;
      }
      const sim::ReplicatedResult s = sim::simulate_replications(policy, cfg, sopts, ropts);
      const double err_s =
          100.0 * std::abs(m.shorts.mean_response - s.shorts.mean_response) /
          s.shorts.mean_response;
      const double err_l =
          100.0 * std::abs(m.longs.mean_response - s.longs.mean_response) /
          s.longs.mean_response;
      for (const auto& [cls, err, analytic, simulated] :
           {std::tuple{"shorts", err_s, m.shorts.mean_response, s.shorts},
            std::tuple{"longs", err_l, m.longs.mean_response, s.longs}}) {
        ++cells;
        const double gap = std::abs(analytic - simulated.mean_response);
        if (gap > 2.0 * simulated.ci95)
          outside.push_back(std::string(sim::policy_name(policy)) + " " + cls + " at (" +
                            format_cell(c.rho_s, 1) + ", " + format_cell(c.rho_l, 1) + ", " +
                            format_cell(c.mean_s, 0) + ", " + format_cell(c.mean_l, 0) +
                            ", " + format_cell(c.scv_l, 0) + ")");
        if (err > worst) {
          worst = err;
          worst_gap = gap;
          worst_ci = simulated.ci95;
        }
      }
      t.add_row({c.rho_s, c.rho_l, c.mean_s, c.mean_l, c.scv_l, m.shorts.mean_response,
                 s.shorts.mean_response, s.shorts.ci95, err_s, m.longs.mean_response,
                 s.longs.mean_response, s.longs.ci95, err_l});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  const bool worst_outside = worst_gap > 2.0 * worst_ci;
  std::cout << "worst analysis-vs-simulation deviation: " << worst << "% (|gap| " << worst_gap
            << (worst_outside ? " > " : " <= ") << "2*ci95 = " << 2.0 * worst_ci << ": "
            << (worst_outside ? "outside" : "inside") << " the simulation's noise)\n"
            << "class means the analysis misses by more than 2*ci95: " << outside.size()
            << " of " << cells << "\n";
  for (const std::string& o : outside) std::cout << "  " << o << "\n";
  return 0;
}
