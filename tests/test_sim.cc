#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "analysis/cscq.h"
#include "core/deadline.h"
#include "core/status.h"
#include "mg1/mg1.h"
#include "mg1/mmc.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace csq::sim {
namespace {

SimOptions fast_opts(std::size_t completions = 400000) {
  SimOptions o;
  o.total_completions = completions;
  return o;
}

TEST(Sim, DedicatedShortsAreMM1) {
  const SystemConfig c = SystemConfig::paper_setup(0.7, 0.5, 1.0, 1.0);
  const SimResult r = simulate(PolicyKind::kDedicated, c, fast_opts());
  const double expected = mg1::mm1_response(c.lambda_short, 1.0);
  EXPECT_NEAR(r.shorts.mean_response, expected, 0.03 * expected);
}

TEST(Sim, DedicatedLongsAreMG1WithHighVariability) {
  const SystemConfig c = SystemConfig::paper_setup(0.3, 0.6, 1.0, 1.0, 8.0);
  const SimResult r = simulate(PolicyKind::kDedicated, c, fast_opts(1500000));
  const double expected = mg1::pk_response(c.lambda_long, c.long_size->moments());
  EXPECT_NEAR(r.longs.mean_response, expected, 0.05 * expected);
}

TEST(Sim, Mg2FcfsWithOneClassIsMM2) {
  // Only shorts arriving: the central FCFS queue is an M/M/2.
  const SystemConfig c = SystemConfig::paper_setup(1.4, 1e-12, 1.0, 1.0);
  const SimResult r = simulate(PolicyKind::kMg2Fcfs, c, fast_opts(600000));
  const double expected = mg1::mmc_response(2, c.lambda_short, 1.0);
  EXPECT_NEAR(r.shorts.mean_response, expected, 0.03 * expected);
}

TEST(Sim, CsCqWithOneClassIsAlsoMM2) {
  // CS-CQ degenerates to M/M/2 when no longs ever arrive.
  const SystemConfig c = SystemConfig::paper_setup(1.4, 1e-12, 1.0, 1.0);
  const SimResult r = simulate(PolicyKind::kCsCq, c, fast_opts(600000));
  const double expected = mg1::mmc_response(2, c.lambda_short, 1.0);
  EXPECT_NEAR(r.shorts.mean_response, expected, 0.03 * expected);
}

TEST(Sim, UtilizationMatchesOfferedLoad) {
  const SystemConfig c = SystemConfig::paper_setup(0.6, 0.4, 1.0, 10.0);
  const SimResult r = simulate(PolicyKind::kDedicated, c, fast_opts());
  EXPECT_NEAR(r.utilization[0], 0.6, 0.02);
  EXPECT_NEAR(r.utilization[1], 0.4, 0.03);
}

TEST(Sim, CsCqKeepsAtMostOneServerOnLongs) {
  // Long utilization under CS-CQ equals rho_L (longs are never parallel),
  // so server utilizations sum to rho_S + rho_L when stable.
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0);
  const SimResult r = simulate(PolicyKind::kCsCq, c, fast_opts(800000));
  EXPECT_NEAR(r.utilization[0] + r.utilization[1], 1.4, 0.02);
}

TEST(Sim, DeterministicUnderSeed) {
  const SystemConfig c = SystemConfig::paper_setup(1.0, 0.5, 1.0, 1.0);
  SimOptions o = fast_opts(100000);
  const SimResult a = simulate(PolicyKind::kCsCq, c, o);
  const SimResult b = simulate(PolicyKind::kCsCq, c, o);
  EXPECT_DOUBLE_EQ(a.shorts.mean_response, b.shorts.mean_response);
  o.seed += 1;
  const SimResult d = simulate(PolicyKind::kCsCq, c, o);
  EXPECT_NE(a.shorts.mean_response, d.shorts.mean_response);
}

TEST(Sim, ConfidenceIntervalCoversAnalyticMM1) {
  const SystemConfig c = SystemConfig::paper_setup(0.8, 0.2, 1.0, 1.0);
  const SimResult r = simulate(PolicyKind::kDedicated, c, fast_opts(800000));
  const double expected = mg1::mm1_response(c.lambda_short, 1.0);
  EXPECT_GT(r.shorts.ci95, 0.0);
  EXPECT_NEAR(r.shorts.mean_response, expected, 3.0 * r.shorts.ci95);
}

TEST(Sim, SjfPrioritizesSmallJobs) {
  const SystemConfig c = SystemConfig::paper_setup(0.8, 0.6, 1.0, 10.0);
  const SimResult sjf = simulate(PolicyKind::kMg2Sjf, c, fast_opts());
  const SimResult fcfs = simulate(PolicyKind::kMg2Fcfs, c, fast_opts());
  EXPECT_LT(sjf.shorts.mean_response, fcfs.shorts.mean_response);
}

TEST(Sim, InvalidOptionsThrow) {
  const SystemConfig c = SystemConfig::paper_setup(0.5, 0.5, 1.0, 1.0);
  SimOptions o;
  o.total_completions = 10;
  EXPECT_THROW((void)simulate(PolicyKind::kCsCq, c, o), std::invalid_argument);
  SystemConfig bad = c;
  bad.short_size = nullptr;
  EXPECT_THROW((void)simulate(PolicyKind::kCsCq, bad, fast_opts()), std::invalid_argument);

  // Each row breaks one option; the engine's constructor must reject it.
  const struct {
    const char* what;
    void (*mutate)(SimOptions&);
  } rows[] = {
      {"negative warmup_fraction", [](SimOptions& x) { x.warmup_fraction = -0.1; }},
      {"NaN warmup_fraction",
       [](SimOptions& x) { x.warmup_fraction = std::numeric_limits<double>::quiet_NaN(); }},
      {"warmup_fraction = 1", [](SimOptions& x) { x.warmup_fraction = 1.0; }},
      {"NaN server speed",
       [](SimOptions& x) { x.server_speeds = {1.0, std::numeric_limits<double>::quiet_NaN()}; }},
      {"no short hosts", [](SimOptions& x) { x.short_hosts = 0; }},
      {"negative long hosts", [](SimOptions& x) { x.long_hosts = -1; }},
      {"speeds for 3 of 2 hosts", [](SimOptions& x) { x.server_speeds = {1.0, 1.0, 1.0}; }},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.what);
    SimOptions x = fast_opts();
    row.mutate(x);
    EXPECT_THROW((void)simulate(PolicyKind::kCsCq, c, x), InvalidInputError);
  }
}

// --- Budget: the event loop polls SimOptions::budget ------------------------

// Unbounded, this run takes ~10 s (~100 ns per completion), so a poll that
// stops working fails the 1 s bounds below instead of passing slowly.
constexpr std::size_t kLongRun = 100000000;

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(SimBudget, ExpiredBudgetThrowsBeforeTheRunFinishes) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0);
  SimOptions o = fast_opts(kLongRun);
  o.budget = RunBudget::with_timeout_ms(0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)simulate(PolicyKind::kCsCq, c, o), DeadlineExceededError);
  EXPECT_LT(elapsed_s(t0), 1.0);
}

TEST(SimBudget, TokenFiredFromAnotherThreadStopsALongRun) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0);
  const CancelToken token;
  SimOptions o = fast_opts(kLongRun);
  o.budget = RunBudget().with_token(token);
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)simulate(PolicyKind::kJiq, c, o), CancelledError);
  canceller.join();
  EXPECT_LT(elapsed_s(t0), 1.0);
}

TEST(SimBudget, FarDeadlineRunIsBitIdenticalToAnUnbudgetedRun) {
  // The poll reads the clock and the token, never the RNG: a run that
  // finishes under a budget is the run without one, bit for bit.
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 4.0);
  const SimOptions plain = fast_opts(100000);
  SimOptions budgeted = plain;
  budgeted.budget = RunBudget::with_timeout_ms(1e9).with_token(CancelToken{});
  for (const PolicyKind kind : {PolicyKind::kCsCq, PolicyKind::kStealHalf}) {
    SCOPED_TRACE(policy_name(kind));
    const SimResult a = simulate(kind, c, plain);
    const SimResult b = simulate(kind, c, budgeted);
    EXPECT_EQ(a.arrival_hash, b.arrival_hash);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(std::memcmp(&a.shorts.mean_response, &b.shorts.mean_response, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.longs.mean_response, &b.longs.mean_response, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.sim_time, &b.sim_time, sizeof(double)), 0);
  }
}

TEST(Sim, PolicyNames) {
  EXPECT_STREQ(policy_name(PolicyKind::kCsCq), "CS-CQ");
  EXPECT_STREQ(policy_name(PolicyKind::kMg2Sjf), "M/G/2-SJF");
}

TEST(Stats, WelfordMatchesDirectComputation) {
  Welford w;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) w.add(x);
  EXPECT_DOUBLE_EQ(w.mean(), 2.5);
  EXPECT_NEAR(w.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(w.count(), 4u);
}

TEST(Stats, BatchMeansCiShrinksWithSamples) {
  dist::Rng rng = dist::Rng(1234);
  std::exponential_distribution<double> exp_dist(1.0);
  BatchMeans small(10), large(10);
  for (int i = 0; i < 1000; ++i) small.add(exp_dist(rng));
  for (int i = 0; i < 100000; ++i) large.add(exp_dist(rng));
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
  EXPECT_NEAR(large.mean(), 1.0, 3.0 * large.ci95_halfwidth() + 0.02);
}

TEST(Stats, TooFewSamplesGiveZeroCi) {
  BatchMeans b(20);
  for (int i = 0; i < 10; ++i) b.add(1.0);
  EXPECT_DOUBLE_EQ(b.ci95_halfwidth(), 0.0);
  EXPECT_THROW(BatchMeans{1}, std::invalid_argument);
}

TEST(Stats, StudentTQuantiles) {
  EXPECT_NEAR(student_t_975(1), 12.71, 1e-9);
  EXPECT_NEAR(student_t_975(19), 2.09, 1e-9);
  EXPECT_NEAR(student_t_975(1000), 1.96, 1e-9);
}

// --- k short + m long hosts ----------------------------------------------------

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
}  // namespace csq::sim {
