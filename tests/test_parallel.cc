// Work-stealing pool: lifecycle, stealing under contention, facade
// ordering, and exception isolation. This file also builds as the dedicated
// `csq_parallel_tests` binary so a ThreadSanitizer configuration
// (-DCSQ_TSAN=ON) can gate just the concurrency layer via `ctest -L
// parallel`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/task_pool.h"

namespace csq::par {
namespace {

TEST(MpscChannel, SingleProducerIsFifoAndBoundedByCapacity) {
  MpscChannel<int> ch(3);
  EXPECT_FALSE(ch.maybe_nonempty());
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_TRUE(ch.try_push(2));
  EXPECT_TRUE(ch.try_push(3));
  EXPECT_FALSE(ch.try_push(4)) << "capacity 3 must reject a fourth value";
  EXPECT_TRUE(ch.maybe_nonempty());
  int v = 0;
  EXPECT_TRUE(ch.try_pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(ch.try_push(4)) << "pop frees the slot for the next lap";
  EXPECT_TRUE(ch.try_pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(ch.try_pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_TRUE(ch.try_pop(v));
  EXPECT_EQ(v, 4);
  EXPECT_FALSE(ch.try_pop(v));
  EXPECT_FALSE(ch.maybe_nonempty());
}

TEST(MpscChannel, ManyProducersLoseNoValues) {
  // 4 producers x 250 values through a capacity-16 channel; the consumer
  // drains concurrently. Every pushed value must arrive exactly once.
  constexpr int kProducers = 4;
  constexpr int kEach = 250;
  MpscChannel<int> ch(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ch, p] {
      for (int k = 0; k < kEach; ++k) {
        const int value = p * kEach + k;
        while (!ch.try_push(value)) std::this_thread::yield();
      }
    });
  std::vector<int> seen(kProducers * kEach, 0);
  int drained = 0;
  while (drained < kProducers * kEach) {
    int v = -1;
    if (ch.try_pop(v)) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, kProducers * kEach);
      ++seen[static_cast<std::size_t>(v)];
      ++drained;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  for (int count : seen) EXPECT_EQ(count, 1);
  // Per-producer FIFO is the Vyukov guarantee consumers rely on for the
  // mailbox (a victim answers requests in arrival order per requester).
  int v = -1;
  EXPECT_FALSE(ch.try_pop(v));
}

TEST(SpscSlot, RendezvousHoldsExactlyOneValue) {
  SpscSlot<int> slot;
  int v = 0;
  EXPECT_FALSE(slot.try_pop(v)) << "empty slot must decline";
  EXPECT_TRUE(slot.try_push(7));
  EXPECT_FALSE(slot.try_push(8)) << "a second push before the pop must fail";
  EXPECT_TRUE(slot.try_pop(v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(slot.try_pop(v));
  EXPECT_TRUE(slot.try_push(9)) << "slot is reusable after a pop";
  EXPECT_TRUE(slot.try_pop(v));
  EXPECT_EQ(v, 9);
}

TEST(TaskPool, StartStopRepeatedly) {
  for (int round = 0; round < 3; ++round)
    for (int threads : {1, 2, 4}) {
      TaskPool pool(threads);
      EXPECT_EQ(pool.threads(), threads);
      std::atomic<int> hits{0};
      pool.parallel_for(100, [&](std::size_t) { hits.fetch_add(1); });
      EXPECT_EQ(hits.load(), 100);
    }
}

TEST(TaskPool, EveryIndexRunsExactlyOnce) {
  TaskPool pool(4);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << "index " << i;
}

TEST(TaskPool, SurvivesConcurrentJobsUnderContention) {
  // Several submitter threads race many jobs with skewed per-index costs
  // through one pool: exercises inject, steal, suspend and wake paths.
  TaskPool pool(4);
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 8;
  constexpr std::size_t kN = 400;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s)
    submitters.emplace_back([&] {
      for (int j = 0; j < kJobsEach; ++j)
        pool.parallel_for(kN, [&](std::size_t i) {
          // Skew: index 0 busy-spins so other workers must steal the rest.
          volatile std::uint64_t sink = 0;
          const std::uint64_t spin = i == 0 ? 20000 : 20;
          for (std::uint64_t k = 0; k < spin; ++k) sink = sink + k;
          total.fetch_add(1);
        });
    });
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kSubmitters) * kJobsEach * kN);
  const PoolStats stats = pool.stats();
  EXPECT_GT(stats.tasks_executed, 0u);
}

TEST(TaskPool, StatsCountWorkAndSometimesSteals) {
  TaskPool pool(2);
  pool.parallel_for(1000, [](std::size_t) {});
  const PoolStats s = pool.stats();
  EXPECT_GT(s.tasks_executed, 0u);
  // steals is schedule-dependent (may be 0 on a loaded 1-core host); just
  // assert the counter is readable and consistent with execution.
  EXPECT_LE(s.steals, s.tasks_executed);
}

TEST(TaskPool, ChannelProtocolInvariantsHoldUnderSkew) {
  // A skewed workload forces idle workers through the request/reply
  // protocol. Whatever the schedule, every granted batch was preceded by a
  // posted request on the same worker, so steals can never exceed
  // steal_requests; declines are a subset of answered requests. With
  // grain=1 every index is exactly one leaf task, so tasks_executed is the
  // one deterministic channel-pool number: it counts indices, not schedule.
  TaskPool pool(4);
  const PoolStats before = pool.stats();
  constexpr std::size_t kN = 2000;
  std::atomic<std::uint64_t> total{0};
  pool.parallel_for(kN, [&](std::size_t i) {
    volatile std::uint64_t sink = 0;
    const std::uint64_t spin = i % 97 == 0 ? 5000 : 10;
    for (std::uint64_t k = 0; k < spin; ++k) sink = sink + k;
    total.fetch_add(1);
  });
  EXPECT_EQ(total.load(), kN);
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.tasks_executed - before.tasks_executed, kN);
  EXPECT_LE(after.steals, after.steal_requests);
  EXPECT_GE(after.steal_requests, before.steal_requests);
  EXPECT_GE(after.declines, before.declines);
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
  TaskPool pool(2);
  EXPECT_THROW(pool.parallel_for(10, [](std::size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  std::atomic<int> hits{0};
  pool.parallel_for(50, [&](std::size_t) { hits.fetch_add(1); });
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

}  // namespace
}  // namespace csq::par
