// Runtime primitives: Future/Promise, TaskQueue, ShardPlan partitioning and
// the shard manifest format.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>

#include "math/parallel.hpp"
#include "runtime/future.hpp"
#include "runtime/shard.hpp"
#include "runtime/task_queue.hpp"

namespace rt = maps::runtime;

TEST(Future, DeliversValueAndReady) {
  rt::Promise<int> p;
  auto f = p.future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.wait_for_ms(0));
  p.set_value(42);
  EXPECT_TRUE(f.wait_for_ms(0));
  EXPECT_EQ(f.get(), 42);
}

TEST(Future, PropagatesException) {
  rt::Promise<int> p;
  auto f = p.future();
  p.set_exception(std::make_exception_ptr(maps::MapsError("boom")));
  EXPECT_TRUE(f.wait_for_ms(0));
  EXPECT_THROW(f.get(), maps::MapsError);
}

TEST(Future, CopiesShareState) {
  rt::Promise<std::string> p;
  auto f1 = p.future();
  auto f2 = f1;
  p.set_value("shared");
  EXPECT_TRUE(f2.wait_for_ms(0));
  EXPECT_EQ(f2.get(), "shared");
}

TEST(TaskQueue, RunsSubmittedTasks) {
  rt::TaskQueue q(3);
  EXPECT_EQ(q.worker_count(), 3u);
  std::vector<rt::Future<int>> futures;
  for (int k = 0; k < 20; ++k) {
    futures.push_back(q.submit([k] { return k * k; }));
  }
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(futures[static_cast<std::size_t>(k)].get(), k * k);
  }
}

TEST(TaskQueue, PropagatesTaskException) {
  rt::TaskQueue q(1);
  auto f = q.submit([]() -> int { throw maps::MapsError("task failed"); });
  EXPECT_THROW(f.get(), maps::MapsError);
}

TEST(TaskQueue, NestedParallelForRunsSerially) {
  // Tasks on queue workers must be able to call library code that uses the
  // global pool: the nested parallel_for runs inline on the worker.
  rt::TaskQueue q(2);
  auto f = q.submit([] {
    EXPECT_TRUE(maps::math::ThreadPool::is_worker_thread());
    std::vector<int> out(64, 0);
    maps::math::parallel_for(0, out.size(),
                             [&](std::size_t i) { out[i] = static_cast<int>(i); });
    return std::accumulate(out.begin(), out.end(), 0);
  });
  EXPECT_EQ(f.get(), 63 * 64 / 2);
}

TEST(TaskQueue, SharedInstanceWorks) {
  auto f = rt::TaskQueue::shared().submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ShardPlan, PartitionCoversAndDisjoint) {
  const std::size_t total = 23;
  std::set<std::size_t> seen;
  for (int i = 0; i < 4; ++i) {
    rt::ShardPlan plan{i, 4};
    for (const auto p : plan.owned(total)) {
      EXPECT_TRUE(plan.owns(p));
      EXPECT_TRUE(seen.insert(p).second) << "position owned twice";
    }
  }
  EXPECT_EQ(seen.size(), total);
}

TEST(ShardPlan, ParseAndValidate) {
  const auto plan = rt::ShardPlan::parse("2/5");
  EXPECT_EQ(plan.index, 2);
  EXPECT_EQ(plan.count, 5);
  EXPECT_THROW(rt::ShardPlan::parse("5/5"), maps::MapsError);
  EXPECT_THROW(rt::ShardPlan::parse("x/3"), maps::MapsError);
  EXPECT_THROW(rt::ShardPlan::parse("3"), maps::MapsError);
  EXPECT_THROW((rt::ShardPlan{-1, 2}).validate(), maps::MapsError);
}

TEST(ShardManifest, JsonRoundTrip) {
  rt::ShardManifest m;
  m.dataset_name = "bending/random";
  m.shard_index = 1;
  m.shard_count = 3;
  m.patterns_total = 12;
  m.samples_per_pattern = 2;
  m.phases = 2;
  m.completed.push_back({0, 4, 1000});
  m.completed.push_back({1, 7, 2500});
  m.done = true;

  const std::string path =
      std::string(::testing::TempDir()) + "/maps_manifest_rt.json";
  m.save(path);
  const auto loaded = rt::ShardManifest::load(path);
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.dataset_name, m.dataset_name);
  EXPECT_EQ(loaded.shard_index, 1);
  EXPECT_EQ(loaded.shard_count, 3);
  EXPECT_EQ(loaded.patterns_total, 12u);
  EXPECT_EQ(loaded.samples_per_pattern, 2u);
  EXPECT_EQ(loaded.phases, 2);
  EXPECT_TRUE(loaded.done);
  ASSERT_EQ(loaded.completed.size(), 2u);
  EXPECT_TRUE(loaded.is_completed(0, 4));
  EXPECT_TRUE(loaded.is_completed(1, 7));
  EXPECT_FALSE(loaded.is_completed(0, 7));
  EXPECT_EQ(loaded.committed_bytes(), 2500u);
}

TEST(ShardPaths, NameShardFiles) {
  EXPECT_EQ(rt::shard_part_path("out.mapsd", 0, 2), "out.mapsd.shard-0-of-2.part");
  EXPECT_EQ(rt::shard_manifest_path("out.mapsd", 1, 2),
            "out.mapsd.shard-1-of-2.manifest.json");
  EXPECT_EQ(rt::shard_journal_path("out.mapsd", 1, 2),
            "out.mapsd.shard-1-of-2.journal");
}

TEST(ShardJournal, KillAndResumeAtAFewHundredPatterns) {
  // The O(n) commit protocol at shard scale: a base manifest plus several
  // hundred journaled commits, a kill that tears the trailing line mid-
  // append, then resume. The torn line must be dropped, everything before it
  // adopted in file order, and compaction must fold the journal back into an
  // atomically rewritten manifest.
  const std::string dir = std::string(::testing::TempDir());
  const std::string manifest_path = dir + "/maps_journal.manifest.json";
  const std::string journal_path = dir + "/maps_journal.journal";
  std::filesystem::remove(manifest_path);
  std::filesystem::remove(journal_path);

  rt::ShardManifest base;
  base.dataset_name = "bending/random";
  base.patterns_total = 400;
  base.samples_per_pattern = 1;
  base.save(manifest_path);

  constexpr int kPatterns = 300;
  {
    rt::ShardJournal journal(journal_path);
    for (int p = 0; p < kPatterns; ++p) {
      journal.append({0, static_cast<std::uint64_t>(p),
                      static_cast<std::uint64_t>(100 * (p + 1))});
    }
  }
  // "Kill" mid-append: a torn, unparseable trailing line.
  {
    std::ofstream torn(journal_path, std::ios::binary | std::ios::app);
    torn << "{\"phase\":0,\"patt";
  }

  auto resumed = rt::ShardManifest::load(manifest_path);
  EXPECT_EQ(resumed.absorb_journal(journal_path), static_cast<std::size_t>(kPatterns));
  ASSERT_EQ(resumed.completed.size(), static_cast<std::size_t>(kPatterns));
  // File order preserved: committed_bytes is the last complete commit.
  EXPECT_EQ(resumed.committed_bytes(), static_cast<std::uint64_t>(100 * kPatterns));
  EXPECT_TRUE(resumed.is_completed(0, 0));
  EXPECT_TRUE(resumed.is_completed(0, kPatterns - 1));
  EXPECT_FALSE(resumed.is_completed(0, kPatterns));

  // Compaction folds the journal into the manifest and truncates it; a
  // subsequent load needs no journal replay.
  {
    rt::ShardJournal journal(journal_path);
    journal.compact(resumed, manifest_path);
  }
  EXPECT_EQ(std::filesystem::file_size(journal_path), 0u);
  auto compacted = rt::ShardManifest::load(manifest_path);
  EXPECT_EQ(compacted.completed.size(), static_cast<std::size_t>(kPatterns));
  EXPECT_EQ(compacted.absorb_journal(journal_path), 0u);

  // A crashed compaction (manifest rewritten, journal not yet truncated)
  // must not double-count: absorbing a stale journal over the compacted
  // manifest adopts nothing new.
  {
    rt::ShardJournal journal(journal_path);
    for (int p = 0; p < 5; ++p) {
      journal.append({0, static_cast<std::uint64_t>(p),
                      static_cast<std::uint64_t>(100 * (p + 1))});
    }
  }
  auto healed = rt::ShardManifest::load(manifest_path);
  EXPECT_EQ(healed.absorb_journal(journal_path), 0u);
  EXPECT_EQ(healed.completed.size(), static_cast<std::size_t>(kPatterns));

  std::filesystem::remove(manifest_path);
  std::filesystem::remove(journal_path);
}
