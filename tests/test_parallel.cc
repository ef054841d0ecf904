// Shared-cursor worker pool, driven through the parallel_for/parallel_map
// facade: every index exactly once, concurrent submitters, facade ordering,
// exception isolation, the pool.tasks.executed counter, and the per-thread
// QBD scratch the pool's workers carry from job to job. This file also
// builds as the dedicated `csq_parallel_tests` binary so a ThreadSanitizer
// configuration (-DCSQ_TSAN=ON) can gate just the concurrency layer via
// `ctest -L parallel`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/cscq.h"
#include "analysis/csid.h"
#include "core/config.h"
#include "core/sweep.h"
#include "obs/obs.h"
#include "parallel/task_pool.h"

namespace csq::par {
namespace {

TEST(TaskPool, StartStopRepeatedly) {
  // Pools of several sizes start on first use and are reused, interleaved,
  // round after round.
  for (int round = 0; round < 3; ++round)
    for (int threads : {1, 2, 4}) {
      std::atomic<int> hits{0};
      parallel_for(100, threads, [&](std::size_t) { hits.fetch_add(1); });
      EXPECT_EQ(hits.load(), 100);
    }
}

TEST(TaskPool, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for(kN, 4, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(TaskPool, SurvivesConcurrentJobsUnderContention) {
  // Several submitter threads race many jobs with skewed per-index costs
  // through one shared pool: exercises the job FIFO, retirement of spent
  // jobs while other workers still hold them, and sleep/wake.
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 8;
  constexpr std::size_t kN = 400;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s)
    submitters.emplace_back([&] {
      for (int j = 0; j < kJobsEach; ++j)
        parallel_for(kN, 4, [&](std::size_t i) {
          // Skew: index 0 busy-spins while the other workers drain the rest.
          volatile std::uint64_t sink = 0;
          const std::uint64_t spin = i == 0 ? 20000 : 20;
          for (std::uint64_t k = 0; k < spin; ++k) sink = sink + k;
          total.fetch_add(1);
        });
    });
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kSubmitters) * kJobsEach * kN);
}

TEST(TaskPool, ExecutedCounterAdvancesByNPerJob) {
  // pool.tasks.executed counts indices run on pool workers: exactly n per
  // job, whatever the schedule.
  if (!obs::compiled_in()) GTEST_SKIP() << "obs counters compiled out (-DCSQ_OBS=OFF)";
  obs::Counter& executed = obs::Registry::instance().counter<obs::Name::kPoolTasksExecuted>();
  for (std::size_t n : {2, 3, 2000}) {
    const std::int64_t before = executed.value();
    parallel_for(n, 4, [](std::size_t i) {
      volatile std::uint64_t sink = 0;
      const std::uint64_t spin = i % 97 == 0 ? 5000 : 10;
      for (std::uint64_t k = 0; k < spin; ++k) sink = sink + k;
    });
    EXPECT_EQ(executed.value() - before, static_cast<std::int64_t>(n)) << "n=" << n;
  }
}

TEST(ParallelForFacade, InlineAndPooledAgree) {
  for (int threads : {1, 2, 8}) {
    std::vector<int> out(257, -1);
    parallel_for(out.size(), threads, [&](std::size_t i) { out[i] = static_cast<int>(i) * 3; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ParallelMap, PreservesIndexOrderForEveryThreadCount) {
  const auto square = [](std::size_t i) { return static_cast<double>(i * i); };
  const auto seq = parallel_map(300, 1, square);
  for (int threads : {2, 4, 8}) {
    const auto par = parallel_map(300, threads, square);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) EXPECT_EQ(par[i], seq[i]) << "i=" << i;
  }
}

TEST(ParallelFor, FirstExceptionPropagatesAfterAllIndicesRan) {
  for (int threads : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      parallel_for(100, threads, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 17) throw std::runtime_error("index 17 failed");
      });
      FAIL() << "expected the index-17 exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 17 failed");
    }
    // Per-index isolation: the other 99 indices still ran.
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ParallelFor, PoolRemainsUsableAfterAnException) {
  EXPECT_THROW(parallel_for(10, 2, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  std::atomic<int> hits{0};
  parallel_for(50, 2, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 50);
}

TEST(ParallelFor, ZeroAndSingleIndexEdgeCases) {
  int hits = 0;
  parallel_for(0, 4, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits, 0);
  parallel_for(1, 4, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits, 1);
}

TEST(ThreadsResolution, ZeroMeansHardwareAndNegativeClamps) {
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_EQ(resolve_threads(-5), 1);
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_GE(hardware_threads(), 1);
}

// Bit-level equality that treats NaN == NaN (unstable sweep cells).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0 || (std::isnan(a) && std::isnan(b));
}

TEST(ThreadScratch, WarmPoolSweepMatchesFreshInlineSweepBitForBit) {
  // Every worker of the 4-thread pool first solves a different chain (CS-ID
  // and two-moment CS-CQ fits, whose QBD shapes differ from the sweep's), so
  // the sweep below runs entirely on dirty per-thread solver scratch. Each
  // body holds its worker until all four have claimed an index, which makes
  // the four indices land on four distinct workers.
  constexpr int kThreads = 4;
  std::mutex mu;
  std::set<std::thread::id> warmed;
  std::atomic<int> arrived{0};
  parallel_for(kThreads, kThreads, [&](std::size_t i) {
    const SystemConfig c =
        SystemConfig::paper_setup(0.3 + 0.1 * static_cast<double>(i), 0.4, 1.0, 1.0);
    analysis::CsidOptions csid;
    analysis::CscqOptions cscq;
    csid.busy_period_moments = cscq.busy_period_moments = 2;
    if (i % 2 == 0)
      (void)analysis::analyze_csid(c, csid);
    else
      (void)analysis::analyze_cscq(c, cscq);
    {
      const std::lock_guard<std::mutex> lock(mu);
      warmed.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load() < kThreads && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
  });
  ASSERT_EQ(warmed.size(), static_cast<std::size_t>(kThreads));

  const std::vector<double> grid = linspace(0.1, 1.45, 8);
  SweepOptions pooled;
  pooled.threads = kThreads;
  const std::vector<SweepRow> warm = sweep_rho_short(0.5, 1.0, 1.0, 8.0, grid, pooled);
  std::vector<SweepRow> fresh;
  std::thread([&] { fresh = sweep_rho_short(0.5, 1.0, 1.0, 8.0, grid, {}); }).join();

  ASSERT_EQ(warm.size(), fresh.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(same_bits(warm[i].csid_short, fresh[i].csid_short));
    EXPECT_TRUE(same_bits(warm[i].cscq_short, fresh[i].cscq_short));
    EXPECT_TRUE(same_bits(warm[i].csid_long, fresh[i].csid_long));
    EXPECT_TRUE(same_bits(warm[i].cscq_long, fresh[i].cscq_long));
    EXPECT_EQ(warm[i].cscq_status, fresh[i].cscq_status);
  }
}

}  // namespace
}  // namespace csq::par
