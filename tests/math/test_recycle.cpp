// Block recycler (math/recycle.hpp): exact-size reuse, misses on other
// sizes, the held + live <= peak bound, thread safety, zeroed vectors on
// dirtied blocks, and ASan poisoning of free blocks.
//
// The recycler is process-wide, so each test uses byte sizes no other test
// in this binary allocates and reads counters as deltas.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "math/recycle.hpp"
#include "math/rng.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace mm = maps::math;

namespace {

/// A recycled-class size unique to one test: the floor plus `pages` pages
/// plus an odd tail.
constexpr std::size_t unique_size(std::size_t pages) {
  return mm::kRecycleMinBytes + pages * 4096 + 24;
}

}  // namespace

TEST(Recycle, ReleasedBlockGoesToTheNextRequestOfTheSameSize) {
  constexpr std::size_t kBytes = unique_size(3);
  void* a = mm::recycle_acquire(kBytes);
  mm::recycle_release(a, kBytes);
  const auto before = mm::recycle_stats();
  void* b = mm::recycle_acquire(kBytes);
  const auto after = mm::recycle_stats();
  EXPECT_EQ(b, a);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(before.held_bytes - after.held_bytes, kBytes);
  EXPECT_EQ(after.live_bytes - before.live_bytes, kBytes);
  mm::recycle_release(b, kBytes);
}

TEST(Recycle, RequestOfAnotherSizeMisses) {
  constexpr std::size_t kBytes = unique_size(5);
  void* a = mm::recycle_acquire(kBytes);
  mm::recycle_release(a, kBytes);
  const auto before = mm::recycle_stats();
  void* b = mm::recycle_acquire(kBytes + 64);
  const auto after = mm::recycle_stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits, before.hits);
  mm::recycle_release(b, kBytes + 64);
}

TEST(Recycle, SmallRequestsBypassTheFreeList) {
  const auto before = mm::recycle_stats();
  void* p = mm::recycle_acquire(mm::kRecycleMinBytes - 1);
  mm::recycle_release(p, mm::kRecycleMinBytes - 1);
  const auto after = mm::recycle_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.held_bytes, before.held_bytes);
}

TEST(Recycle, HeldPlusLiveNeverExceedsThePeak) {
  const std::size_t sizes[] = {unique_size(7), unique_size(9), unique_size(40),
                               unique_size(100)};
  mm::Rng rng(20261019);
  std::vector<std::pair<void*, std::size_t>> held;
  const auto check = [](int step) {
    const auto s = mm::recycle_stats();
    ASSERT_LE(s.held_bytes + s.live_bytes, s.peak_bytes) << "after call " << step;
    ASSERT_LE(s.live_bytes, s.peak_bytes) << "after call " << step;
  };
  for (int step = 0; step < 3000; ++step) {
    if (held.empty() || (held.size() < 16 && rng.bernoulli(0.55))) {
      const std::size_t bytes = sizes[rng.randint(0, 3)];
      held.emplace_back(mm::recycle_acquire(bytes), bytes);
    } else {
      const auto k = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(held.size()) - 1));
      mm::recycle_release(held[k].first, held[k].second);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    }
    check(step);
  }
  for (const auto& [p, bytes] : held) {
    mm::recycle_release(p, bytes);
    check(-1);
  }
}

TEST(Recycle, ConcurrentThreadsEndWithBalancedCounts) {
  constexpr int kThreads = 4, kRounds = 400;
  const std::size_t sizes[] = {unique_size(11), unique_size(13), unique_size(17)};
  const auto before = mm::recycle_stats();
  std::vector<std::thread> threads;
  std::vector<int> corrupted(kThreads, 0);
  std::vector<std::uint64_t> acquires(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      mm::Rng rng(100 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<unsigned char*, std::size_t>> mine;
      for (int r = 0; r < kRounds; ++r) {
        if (mine.size() < 3 && (mine.empty() || rng.bernoulli(0.6))) {
          const std::size_t bytes = sizes[rng.randint(0, 2)];
          auto* p = static_cast<unsigned char*>(mm::recycle_acquire(bytes));
          // Stamp the block: a block handed to two threads at once shows up
          // as a foreign stamp (and as a race under TSan).
          std::memset(p, t + 1, bytes);
          mine.emplace_back(p, bytes);
          ++acquires[static_cast<std::size_t>(t)];
        } else {
          const auto [p, bytes] = mine.back();
          mine.pop_back();
          corrupted[static_cast<std::size_t>(t)] +=
              p[0] != t + 1 || p[bytes / 2] != t + 1 || p[bytes - 1] != t + 1;
          mm::recycle_release(p, bytes);
        }
      }
      for (const auto& [p, bytes] : mine) mm::recycle_release(p, bytes);
    });
  }
  for (auto& th : threads) th.join();
  const auto after = mm::recycle_stats();
  EXPECT_EQ(std::count(corrupted.begin(), corrupted.end(), 0), kThreads);
  std::uint64_t total = 0;
  for (const std::uint64_t n : acquires) total += n;
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses), total);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_LE(after.held_bytes + after.live_bytes, after.peak_bytes);
  EXPECT_GT(after.hits - before.hits, 0u);
  EXPECT_GT(after.misses - before.misses, 0u);
}

TEST(Recycle, VectorOnADirtiedBlockReadsZeros) {
  constexpr std::size_t kCount = unique_size(21) / sizeof(float);
  {
    mm::RecycledVector<float> dirty(kCount);
    std::fill(dirty.begin(), dirty.end(), 7.5f);
  }
  const auto before = mm::recycle_stats();
  mm::RecycledVector<float> fresh(kCount);
  EXPECT_EQ(mm::recycle_stats().hits - before.hits, 1u);  // the dirtied block
  EXPECT_EQ(std::count(fresh.begin(), fresh.end(), 0.0f),
            static_cast<std::ptrdiff_t>(kCount));
}

#if defined(__SANITIZE_ADDRESS__)
TEST(Recycle, FreeBlocksArePoisonedUnderAsan) {
  constexpr std::size_t kBytes = unique_size(23);
  auto* p = static_cast<char*>(mm::recycle_acquire(kBytes));
  EXPECT_FALSE(__asan_address_is_poisoned(p + kBytes / 2));
  mm::recycle_release(p, kBytes);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + kBytes - 1));
  auto* q = static_cast<char*>(mm::recycle_acquire(kBytes));
  ASSERT_EQ(q, p);
  EXPECT_FALSE(__asan_address_is_poisoned(q + kBytes - 1));
  mm::recycle_release(q, kBytes);
}
#endif
