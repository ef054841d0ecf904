// Capacity planning with the analytic solver: given an SLA on both classes
// (short-job mean response <= sla_short; long-job penalty vs a dedicated
// partition <= max_penalty), find the highest sustainable short-job load
// under each policy by bisection. This is the kind of what-if loop the
// paper's "seconds, not hours" analysis speed enables.
#include <functional>
#include <iostream>

#include "csq.h"

namespace {

using namespace csq;

// Largest rho_S in (0, hi) satisfying `ok` (monotone violation assumed).
double bisect_max_load(double hi, const std::function<bool(double)>& ok) {
  double lo = 0.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    (ok(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

int main() {
  const double rho_l = 0.5, mean_s = 1.0, mean_l = 10.0, scv_l = 8.0;
  const double sla_short = 8.0;      // mean short response must stay below this
  const double max_penalty = 0.10;   // longs may lose at most 10% vs Dedicated

  const SystemConfig probe = SystemConfig::paper_setup(0.1, rho_l, mean_s, mean_l, scv_l);
  const double dedicated_long = mg1::pk_response(probe.lambda_long, probe.long_size->moments());

  std::cout << "SLA: E[T_S] <= " << sla_short << ", long penalty <= " << 100 * max_penalty
            << "% (vs dedicated long host " << dedicated_long << ")\n\n";

  Table t({"policy", "max rho_S meeting SLA", "E[T_S] there", "long penalty there"});
  for (const Policy p : {Policy::kDedicated, Policy::kCsId, Policy::kCsCq}) {
    const auto ok = [&](double rho_s) {
      const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, mean_s, mean_l, scv_l);
      if (!is_stable(p, c)) return false;
      try {
        const PolicyMetrics m = analyze(p, c);
        const double penalty = (m.longs.mean_response - dedicated_long) / dedicated_long;
        return m.shorts.mean_response <= sla_short && penalty <= max_penalty;
      } catch (const std::domain_error&) {
        return false;
      }
    };
    const double best = bisect_max_load(2.0, ok);
    const SystemConfig c = SystemConfig::paper_setup(best, rho_l, mean_s, mean_l, scv_l);
    const PolicyMetrics m = analyze(p, c);
    t.add_row({policy_label(p), format_cell(best),
               format_cell(m.shorts.mean_response),
               format_cell(100.0 * (m.longs.mean_response - dedicated_long) / dedicated_long) +
                   "%"});
  }
  t.print(std::cout);

  std::cout << "\nReading: cycle stealing converts the long host's idle time into\n"
               "admissible short-job throughput — CS-CQ buys the most headroom.\n";

  // Beyond means: the chain tracks the short-job count exactly, so the
  // matrix-geometric tail gives buffer-sizing numbers directly.
  std::cout << "\nBacklog tail under CS-CQ at the SLA point:\n";
  Table tail({"rho_S", "P(N_S > n) decay", "99th pct of N_S"});
  for (const double rho_s : {0.8, 1.0, 1.2}) {
    const SystemConfig c = SystemConfig::paper_setup(rho_s, rho_l, mean_s, mean_l, scv_l);
    const analysis::CscqResult r = analysis::analyze_cscq(c);
    tail.add_row(
        {rho_s, r.chain.tail_decay_rate(), static_cast<double>(r.chain.level_quantile(0.99))});
  }
  tail.print(std::cout);
  return 0;
}
