// Thread pool: correctness of work partitioning, nesting, determinism of
// results (not ordering).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "math/parallel.hpp"

namespace mm = maps::math;

TEST(Parallel, CoversWholeRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  mm::parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
  bool called = false;
  mm::parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, ChunkedSumMatchesSerial) {
  std::vector<double> x(10000);
  std::iota(x.begin(), x.end(), 0.0);
  std::atomic<long long> sum{0};
  mm::parallel_for_chunked(0, x.size(), [&](std::size_t b, std::size_t e) {
    long long local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<long long>(x[i]);
    sum += local;
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

TEST(Parallel, NestedCallsRunSerially) {
  // A parallel_for inside a worker must not deadlock.
  std::atomic<int> total{0};
  mm::parallel_for(0, 8, [&](std::size_t) {
    mm::parallel_for(0, 8, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(Parallel, SequentialCallsReuseThePool) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    mm::parallel_for(0, 64, [&](std::size_t) { count++; });
    ASSERT_EQ(count.load(), 64) << "round " << round;
  }
}

TEST(Parallel, ScopedWorkerThreadRunsInlineThenRestores) {
  ASSERT_FALSE(mm::ThreadPool::is_worker_thread());
  {
    mm::ScopedWorkerThread serial;
    EXPECT_TRUE(mm::ThreadPool::is_worker_thread());
    const auto caller = std::this_thread::get_id();
    std::atomic<int> elsewhere{0};
    mm::parallel_for(0, 64, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) elsewhere++;
    });
    EXPECT_EQ(elsewhere.load(), 0);
  }
  EXPECT_FALSE(mm::ThreadPool::is_worker_thread());
  std::atomic<int> count{0};
  mm::parallel_for(0, 64, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 64);
}

TEST(Parallel, NumThreadsPositive) { EXPECT_GE(mm::num_threads(), 1u); }
