// The determinism contract of the parallel layers: sweeps and simulation
// replications (on 1 + 1 and on k + m hosts) must be BIT-identical for every
// thread count (same seeds, same grids). See docs/performance.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/sweep.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace csq {
namespace {

// Bit-level equality that treats NaN == NaN (unstable sweep cells).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 || (std::isnan(a) && std::isnan(b));
}

void expect_rows_identical(const std::vector<SweepRow>& a, const std::vector<SweepRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i].x, b[i].x)) << "row " << i;
    EXPECT_TRUE(same_bits(a[i].dedicated_short, b[i].dedicated_short)) << "row " << i;
    EXPECT_TRUE(same_bits(a[i].csid_short, b[i].csid_short)) << "row " << i;
    EXPECT_TRUE(same_bits(a[i].cscq_short, b[i].cscq_short)) << "row " << i;
    EXPECT_TRUE(same_bits(a[i].dedicated_long, b[i].dedicated_long)) << "row " << i;
    EXPECT_TRUE(same_bits(a[i].csid_long, b[i].csid_long)) << "row " << i;
    EXPECT_TRUE(same_bits(a[i].cscq_long, b[i].cscq_long)) << "row " << i;
  }
}

TEST(SweepDeterminism, RhoShortSweepIdenticalAcrossThreadCounts) {
  // Includes points beyond the Dedicated and CS-ID frontiers (NaN cells).
  const std::vector<double> grid = linspace(0.1, 1.45, 12);
  SweepOptions seq;  // threads = 1, inline
  const auto baseline = sweep_rho_short(0.5, 1.0, 1.0, 8.0, grid, seq);
  for (int threads : {2, 8}) {
    SweepOptions par;
    par.threads = threads;
    expect_rows_identical(baseline, sweep_rho_short(0.5, 1.0, 1.0, 8.0, grid, par));
  }
}

TEST(SweepDeterminism, RhoLongSweepIdenticalAcrossThreadCounts) {
  // Strictly inside the rho_L stability range (0, 1).
  const std::vector<double> grid = {0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.9};
  const auto baseline = sweep_rho_long(0.9, 1.0, 1.0, 1.0, grid, {});
  SweepOptions par;
  par.threads = 8;
  expect_rows_identical(baseline, sweep_rho_long(0.9, 1.0, 1.0, 1.0, grid, par));
}

TEST(SweepDeterminism, UnsolvablePointBecomesNaNRowNotACrash) {
  // rho_S exactly at the CS-CQ frontier (2 - rho_L): is_stable() lets it
  // through but the solve must fail — the row keeps NaN shorts columns and
  // the rest of the sweep still evaluates.
  const std::vector<double> grid = {0.5, 1.5, 0.9};
  for (int threads : {1, 4}) {
    SweepOptions opts;
    opts.threads = threads;
    const auto rows = sweep_rho_short(0.5, 1.0, 1.0, 1.0, grid, opts);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_FALSE(std::isnan(rows[0].cscq_short));
    EXPECT_TRUE(std::isnan(rows[1].cscq_short));
    EXPECT_FALSE(std::isnan(rows[2].cscq_short));
  }
}

TEST(SimDeterminism, ReplicationsIdenticalAcrossThreadCounts) {
  const SystemConfig cfg = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 8.0);
  sim::SimOptions opts;
  opts.total_completions = 20000;
  sim::ReplicationOptions seq;
  seq.replications = 6;
  seq.threads = 1;
  const sim::ReplicatedResult baseline =
      sim::simulate_replications(sim::PolicyKind::kCsCq, cfg, opts, seq);
  ASSERT_EQ(baseline.replications.size(), 6u);
  for (int threads : {2, 8}) {
    sim::ReplicationOptions par = seq;
    par.threads = threads;
    const sim::ReplicatedResult r =
        sim::simulate_replications(sim::PolicyKind::kCsCq, cfg, opts, par);
    ASSERT_EQ(r.replications.size(), baseline.replications.size());
    for (std::size_t i = 0; i < r.replications.size(); ++i) {
      EXPECT_TRUE(same_bits(r.replications[i].shorts.mean_response,
                            baseline.replications[i].shorts.mean_response));
      EXPECT_TRUE(same_bits(r.replications[i].longs.mean_response,
                            baseline.replications[i].longs.mean_response));
      EXPECT_TRUE(same_bits(r.replications[i].sim_time, baseline.replications[i].sim_time));
    }
    EXPECT_TRUE(same_bits(r.shorts.mean_response, baseline.shorts.mean_response));
    EXPECT_TRUE(same_bits(r.shorts.ci95, baseline.shorts.ci95));
  }
}

TEST(SimDeterminism, SubstreamsAreIndependentPerReplication) {
  // Different replication indices must see genuinely different randomness.
  const SystemConfig cfg = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 1.0);
  sim::SimOptions opts;
  opts.total_completions = 10000;
  sim::ReplicationOptions ropts;
  ropts.replications = 4;
  const auto r = sim::simulate_replications(sim::PolicyKind::kCsCq, cfg, opts, ropts);
  for (std::size_t i = 1; i < r.replications.size(); ++i)
    EXPECT_NE(r.replications[i].shorts.mean_response,
              r.replications[0].shorts.mean_response);
  // And the aggregate CI over replications is positive (spread exists).
  EXPECT_GT(r.shorts.ci95, 0.0);
}

TEST(SimDeterminism, SplitSeedIsDeterministicAndWellSpread) {
  EXPECT_EQ(sim::split_seed(42, 0), sim::split_seed(42, 0));
  EXPECT_NE(sim::split_seed(42, 0), sim::split_seed(42, 1));
  EXPECT_NE(sim::split_seed(42, 0), sim::split_seed(43, 0));
  // Adjacent keys differ in many bits (no low-bit lattice structure).
  const std::uint64_t x = sim::split_seed(7, 100) ^ sim::split_seed(7, 101);
  int bits = 0;
  for (std::uint64_t v = x; v; v >>= 1) bits += static_cast<int>(v & 1);
  EXPECT_GE(bits, 16);
}

TEST(MultiSimDeterminism, ReplicationsIdenticalAcrossThreadCounts) {
  const SystemConfig c = SystemConfig::paper_setup(0.9, 0.5, 1.0, 1.0, 1.0);
  sim::SimOptions opts;
  opts.total_completions = 20000;
  opts.short_hosts = 2;
  opts.long_hosts = 2;
  sim::ReplicationOptions seq;
  seq.replications = 4;
  seq.threads = 1;
  const auto baseline = sim::simulate_replications(sim::PolicyKind::kCsCq, c, opts, seq);
  sim::ReplicationOptions par = seq;
  par.threads = 8;
  const auto r = sim::simulate_replications(sim::PolicyKind::kCsCq, c, opts, par);
  ASSERT_EQ(r.replications.size(), baseline.replications.size());
  for (std::size_t i = 0; i < r.replications.size(); ++i) {
    EXPECT_TRUE(same_bits(r.replications[i].shorts.mean_response,
                          baseline.replications[i].shorts.mean_response));
    EXPECT_TRUE(same_bits(r.replications[i].longs.mean_response,
                          baseline.replications[i].longs.mean_response));
  }
}

TEST(Replications, AggregateMatchesHandComputedMeanAndCi) {
  std::vector<sim::ClassStats> reps(4);
  const double means[4] = {1.0, 2.0, 3.0, 4.0};
  for (int i = 0; i < 4; ++i) {
    reps[static_cast<std::size_t>(i)].completions = 10;
    reps[static_cast<std::size_t>(i)].mean_response = means[i];
  }
  const sim::ClassStats agg = sim::aggregate_replications(reps);
  EXPECT_EQ(agg.completions, 40u);
  EXPECT_DOUBLE_EQ(agg.mean_response, 2.5);
  // sample sd = sqrt(5/3); CI = t(0.975, 3 df) * sd / 2.
  EXPECT_NEAR(agg.ci95, 3.18 * std::sqrt(5.0 / 3.0) / 2.0, 1e-12);
}

}  // namespace
}  // namespace csq
