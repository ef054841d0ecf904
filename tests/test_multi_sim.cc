#include <gtest/gtest.h>

#include "analysis/cscq.h"
#include "mg1/mg1.h"
#include "mg1/mmc.h"
#include "sim/simulator.h"

namespace csq::sim {
namespace {

// The simulator on k short + m long hosts; per-class loads are totals over
// the partition.
struct MultiHost {
  int k, m;
  SystemConfig workload;
};

MultiHost make(int k, int m, double rho_s_total, double rho_l_total, double mean_l = 1.0,
               double scv_l = 1.0) {
  return {k, m, SystemConfig::paper_setup(rho_s_total, rho_l_total, 1.0, mean_l, scv_l)};
}

SimResult simulate_on(PolicyKind kind, const MultiHost& c, std::size_t n = 500000) {
  SimOptions o;
  o.total_completions = n;
  o.short_hosts = c.k;
  o.long_hosts = c.m;
  return simulate(kind, c.workload, o);
}

// Busy fraction averaged over hosts [lo, hi).
double mean_utilization(const SimResult& r, int lo, int hi) {
  double sum = 0.0;
  for (int s = lo; s < hi; ++s) sum += r.utilization[static_cast<std::size_t>(s)];
  return sum / (hi - lo);
}

TEST(MultiSim, TwoHostCsCqMatchesAnalyticChain) {
  // k = m = 1 must reproduce the analyzed 2-host system.
  const MultiHost c = make(1, 1, 0.9, 0.5);
  const SimResult r = simulate_on(PolicyKind::kCsCq, c, 1000000);
  const analysis::CscqResult a = analysis::analyze_cscq(c.workload);
  EXPECT_NEAR(r.shorts.mean_response, a.metrics.shorts.mean_response,
              0.03 * a.metrics.shorts.mean_response + 2.0 * r.shorts.ci95);
  EXPECT_NEAR(r.longs.mean_response, a.metrics.longs.mean_response,
              0.03 * a.metrics.longs.mean_response + 2.0 * r.longs.ci95);
}

TEST(MultiSim, DedicatedShortPartitionIsMMk) {
  // Two short hosts fed from one central queue = M/M/2.
  const MultiHost c = make(2, 1, 1.4, 0.3);
  const SimResult r = simulate_on(PolicyKind::kDedicated, c, 800000);
  const double expected = mg1::mmc_response(2, c.workload.lambda_short, 1.0);
  EXPECT_NEAR(r.shorts.mean_response, expected, 0.04 * expected);
}

TEST(MultiSim, MoreDonorsHelpShorts) {
  // Fixed overloaded short partition (rho_S = 1.3 on one host); adding
  // donor hosts (each at rho_L = 0.5) adds stealable capacity.
  double prev = 1e100;
  for (int m = 1; m <= 3; ++m) {
    const MultiHost c = make(1, m, 1.3, 0.5 * m);
    const SimResult r = simulate_on(PolicyKind::kCsCq, c, 800000);
    EXPECT_LT(r.shorts.mean_response, prev) << "m=" << m;
    prev = r.shorts.mean_response;
  }
}

TEST(MultiSim, CsCqBeatsCsIdBeatsDedicatedAtScale) {
  const MultiHost c = make(2, 2, 1.8, 1.0, 10.0, 8.0);
  const double ded = simulate_on(PolicyKind::kDedicated, c).shorts.mean_response;
  const double id = simulate_on(PolicyKind::kCsId, c).shorts.mean_response;
  const double cq = simulate_on(PolicyKind::kCsCq, c).shorts.mean_response;
  EXPECT_LT(cq, id);
  EXPECT_LT(id, ded);
}

TEST(MultiSim, UtilizationAccounting) {
  const MultiHost c = make(2, 2, 1.0, 0.8);
  const SimResult r = simulate_on(PolicyKind::kDedicated, c);
  ASSERT_EQ(r.utilization.size(), 4u);
  EXPECT_NEAR(mean_utilization(r, 0, 2), 0.5, 0.02);  // rho_S/k
  EXPECT_NEAR(mean_utilization(r, 2, 4), 0.4, 0.02);  // rho_L/m
}

TEST(MultiSim, WorkConservationAcrossPartitions) {
  // Under CS-CQ the donor partition absorbs overflow shorts, so per-
  // partition utilization mixes classes; total busy work must still equal
  // the offered load (rho_S + rho_L) spread over k + m servers.
  const MultiHost c = make(1, 2, 1.5, 1.2);
  const SimResult r = simulate_on(PolicyKind::kCsCq, c);
  const double total = mean_utilization(r, 0, 3);
  EXPECT_NEAR(total, (1.5 + 1.2) / 3.0, 0.02);
}

TEST(MultiSim, InvalidConfigsThrow) {
  MultiHost c = make(1, 1, 0.5, 0.5);
  c.k = 0;
  EXPECT_THROW((void)simulate_on(PolicyKind::kCsCq, c), std::invalid_argument);
  EXPECT_STREQ(policy_name(PolicyKind::kCsCq), "CS-CQ");
}

}  // namespace
}  // namespace csq::sim
