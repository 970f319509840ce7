// Deterministic fault injection (runtime/fault.hpp), deadline propagation
// (runtime/deadline.hpp), and the shard journal/manifest I/O retry paths
// they were built to test, down to the write primitive behind them
// (runtime/durable.hpp): retry counts, rollback, truncation in place,
// replay, and an atomic write that never renames a file whose close failed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "runtime/deadline.hpp"
#include "runtime/durable.hpp"
#include "runtime/fault.hpp"
#include "runtime/shard.hpp"

namespace fs = std::filesystem;
namespace rt = maps::runtime;
namespace durable = maps::runtime::durable;
namespace fault = maps::runtime::fault;

namespace {

// Arms exactly `spec` for the test's scope (clearing anything the chaos CI
// leg armed through MAPS_FAULTS), then restores the environment's spec so
// later tests in this binary still run under the ambient chaos config.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    fault::disarm_all();
    if (!spec.empty()) fault::arm_from_spec(spec);
  }
  ~FaultGuard() {
    fault::disarm_all();
    if (const char* env = std::getenv("MAPS_FAULTS")) {
      if (env[0] != '\0') fault::arm_from_spec(env);
    }
  }
};

std::uint64_t fires_of(const std::string& name) {
  for (const auto& p : fault::stats()) {
    if (p.name == name) return p.fires;
  }
  return 0;
}

std::uint64_t hits_of(const std::string& name) {
  for (const auto& p : fault::stats()) {
    if (p.name == name) return p.hits;
  }
  return 0;
}

}  // namespace

TEST(Fault, UnarmedPointIsSilent) {
  FaultGuard guard("");
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::point("solver.factorize"));
  EXPECT_EQ(fault::total_fires(), 0u);
}

TEST(Fault, ThrowActionFiresEveryHit) {
  FaultGuard guard("x.throw=throw");
  EXPECT_TRUE(fault::armed());
  EXPECT_THROW(fault::point("x.throw"), fault::FaultInjected);
  EXPECT_THROW(fault::point("x.throw"), fault::FaultInjected);
  EXPECT_FALSE(fault::point("x.other"));  // unarmed sibling unaffected
  EXPECT_EQ(fires_of("x.throw"), 2u);
  EXPECT_EQ(hits_of("x.throw"), 2u);
}

TEST(Fault, FaultInjectedIsAMapsError) {
  FaultGuard guard("x=throw");
  EXPECT_THROW(fault::point("x"), maps::MapsError);
}

TEST(Fault, NthTriggerFiresExactlyOnce) {
  FaultGuard guard("x=throw@nth:3");
  EXPECT_FALSE(fault::point("x"));
  EXPECT_FALSE(fault::point("x"));
  EXPECT_THROW(fault::point("x"), fault::FaultInjected);
  for (int k = 0; k < 10; ++k) EXPECT_FALSE(fault::point("x"));
  EXPECT_EQ(fires_of("x"), 1u);
  EXPECT_EQ(hits_of("x"), 13u);
}

TEST(Fault, EveryTriggerFiresPeriodically) {
  FaultGuard guard("x=io@every:4");
  int fired = 0;
  for (int k = 1; k <= 12; ++k) {
    if (fault::point("x")) ++fired;
  }
  EXPECT_EQ(fired, 3);  // hits 4, 8, 12
  EXPECT_EQ(fires_of("x"), 3u);
}

TEST(Fault, ProbabilityTriggerIsDeterministic) {
  const auto run = [] {
    std::string pattern;
    for (int k = 0; k < 64; ++k) pattern += fault::point("x") ? '1' : '0';
    return pattern;
  };
  std::string first, second, other_seed;
  {
    FaultGuard guard("x=io@p:0.5,seed:7");
    first = run();
  }
  {
    FaultGuard guard("x=io@p:0.5,seed:7");
    second = run();
  }
  {
    FaultGuard guard("x=io@p:0.5,seed:8");
    other_seed = run();
  }
  EXPECT_EQ(first, second);  // same seed, same hit order => same sequence
  EXPECT_NE(first, other_seed);
  EXPECT_NE(first.find('1'), std::string::npos);  // p=0.5 actually fires
  EXPECT_NE(first.find('0'), std::string::npos);  // ... and actually skips
}

TEST(Fault, ProbabilityExtremes) {
  {
    FaultGuard guard("x=io@p:1");
    for (int k = 0; k < 8; ++k) EXPECT_TRUE(fault::point("x"));
  }
  {
    FaultGuard guard("x=io@p:0");
    for (int k = 0; k < 8; ++k) EXPECT_FALSE(fault::point("x"));
  }
}

TEST(Fault, StallActionDelays) {
  FaultGuard guard("x=stall:30@nth:1");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(fault::point("x"));  // stalls, then continues
  const double elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 25.0);
  EXPECT_FALSE(fault::point("x"));  // nth:1 already spent: no stall
}

TEST(Fault, MultiEntrySpecAndOverwrite) {
  FaultGuard guard("a=throw@nth:1;b=io;a=io@every:2");
  // Later entries overwrite earlier ones of the same name.
  EXPECT_FALSE(fault::point("a"));
  EXPECT_TRUE(fault::point("a"));
  EXPECT_TRUE(fault::point("b"));
}

TEST(Fault, MalformedSpecsRejectedAtomically) {
  FaultGuard guard("");
  EXPECT_THROW(fault::arm_from_spec("noequals"), maps::MapsError);
  EXPECT_THROW(fault::arm_from_spec("x="), maps::MapsError);
  EXPECT_THROW(fault::arm_from_spec("x=explode"), maps::MapsError);
  EXPECT_THROW(fault::arm_from_spec("x=stall:"), maps::MapsError);
  EXPECT_THROW(fault::arm_from_spec("x=throw@sometimes"), maps::MapsError);
  EXPECT_THROW(fault::arm_from_spec("x=throw@nth:0"), maps::MapsError);
  EXPECT_THROW(fault::arm_from_spec("x=io@p:1.5"), maps::MapsError);
  // A malformed tail must not leave the valid head armed.
  EXPECT_THROW(fault::arm_from_spec("ok=throw;bad=?"), maps::MapsError);
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::point("ok"));
}

TEST(Fault, ScopedFaultsDisarmsOnExit) {
  fault::disarm_all();
  {
    fault::ScopedFaults scoped("x=throw");
    EXPECT_TRUE(fault::armed());
  }
  EXPECT_FALSE(fault::armed());
  if (const char* env = std::getenv("MAPS_FAULTS")) {
    if (env[0] != '\0') fault::arm_from_spec(env);  // restore ambient chaos
  }
}

// --- journal / manifest I/O retry paths ------------------------------------

namespace {

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("maps_fault_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
  std::string file(const char* name) const { return (path / name).string(); }
};

std::string read_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

int count_lines(const std::string& path) {
  std::ifstream is(path);
  int n = 0;
  std::string line;
  while (std::getline(is, line)) ++n;
  return n;
}

}  // namespace

TEST(FaultRetry, JournalAppendSurvivesTransientFailure) {
  TempDir dir;
  FaultGuard guard("journal.append=io@nth:1");
  rt::ShardJournal journal(dir.file("j.journal"));
  journal.append({0, 1, 100});  // first write fails once, retry lands it
  journal.append({0, 2, 200});
  journal.close();
  EXPECT_EQ(count_lines(dir.file("j.journal")), 2);
  EXPECT_EQ(fires_of("journal.append"), 1u);

  // The retried journal must still absorb cleanly (no torn/glued lines).
  rt::ShardManifest manifest;
  EXPECT_EQ(manifest.absorb_journal(dir.file("j.journal")), 2u);
  EXPECT_TRUE(manifest.is_completed(0, 1));
  EXPECT_TRUE(manifest.is_completed(0, 2));
}

TEST(FaultRetry, JournalAppendExhaustsAttempts) {
  TempDir dir;
  FaultGuard guard("journal.append=io");  // every attempt fails
  rt::ShardJournal journal(dir.file("j.journal"));
  EXPECT_THROW(journal.append({0, 1, 100}), maps::MapsError);
  EXPECT_EQ(fires_of("journal.append"), 3u);  // 3 attempts, then surface
}

TEST(FaultRetry, ManifestSaveSurvivesTransientFailure) {
  TempDir dir;
  FaultGuard guard("manifest.save=io@nth:1");
  rt::ShardManifest manifest;
  manifest.dataset_name = "d";
  manifest.shard_index = 0;
  manifest.shard_count = 1;
  manifest.completed.push_back({0, 7, 42});
  manifest.save(dir.file("m.json"));
  EXPECT_EQ(fires_of("manifest.save"), 1u);
  const auto loaded = rt::ShardManifest::load(dir.file("m.json"));
  EXPECT_TRUE(loaded.is_completed(0, 7));
}

TEST(FaultRetry, ManifestSaveExhaustsAttempts) {
  TempDir dir;
  FaultGuard guard("manifest.save=io");
  rt::ShardManifest manifest;
  manifest.dataset_name = "d";
  manifest.shard_index = 0;
  manifest.shard_count = 1;
  EXPECT_THROW(manifest.save(dir.file("m.json")), maps::MapsError);
}

TEST(FaultRetry, JournalCompactSurvivesTransientFailure) {
  TempDir dir;
  rt::ShardJournal journal(dir.file("j.journal"));
  journal.append({0, 1, 100});
  rt::ShardManifest manifest;
  manifest.dataset_name = "d";
  manifest.shard_index = 0;
  manifest.shard_count = 1;
  manifest.completed.push_back({0, 1, 100});
  {
    FaultGuard guard("journal.compact=io@nth:1");
    journal.compact(manifest, dir.file("m.json"));
    EXPECT_EQ(fires_of("journal.compact"), 1u);
  }
  EXPECT_EQ(count_lines(dir.file("j.journal")), 0);  // truncated after retry
  journal.append({0, 2, 200});                       // still usable
  journal.close();
  EXPECT_EQ(count_lines(dir.file("j.journal")), 1);
}

TEST(Durable, AtomicWriteCountsRetriesAndKeepsTheOldFileOnFailure) {
  TempDir dir;
  const std::string path = dir.file("m.json");
  {
    FaultGuard guard("manifest.save=io@nth:1");
    int retries = 0;
    durable::atomic_write(path, "{}\n", "manifest.save", &retries);
    EXPECT_EQ(retries, 1);
  }
  FaultGuard guard("manifest.save=io");
  int retries = 0;
  EXPECT_THROW(durable::atomic_write(path, "[]\n", "manifest.save", &retries),
               maps::MapsError);
  EXPECT_EQ(retries, 2);  // 3 attempts; counted although the last one threw
  EXPECT_EQ(read_all(path), "{}\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(Durable, FailedAppendLeavesOnlyCommittedLines) {
  TempDir dir;
  durable::LineLog log(dir.file("j.journal"));
  FaultGuard guard("journal.append=io@nth:2");
  int retries = 0;
  log.append("first", "journal.append", &retries);
  log.append("second", "journal.append", &retries);  // fails once, then lands
  EXPECT_EQ(retries, 1);
  fault::arm_from_spec("journal.append=io");
  EXPECT_THROW(log.append("lost", "journal.append"), maps::MapsError);
  fault::disarm_all();
  log.append("third", "journal.append");
  log.close();
  EXPECT_EQ(read_all(dir.file("j.journal")), "first\nsecond\nthird\n");
}

TEST(Durable, TruncateEmptiesTheLogInPlace) {
  TempDir dir;
  durable::LineLog log(dir.file("j.journal"));
  FaultGuard guard("");
  log.append("a", "journal.append");
  log.truncate("journal.compact");
  // The next append's committed size is 0, not the old end: its failed
  // first attempt must roll back to an empty file.
  fault::arm_from_spec("journal.append=io@nth:1");
  log.append("b", "journal.append");
  log.close();
  EXPECT_EQ(read_all(dir.file("j.journal")), "b\n");
}

TEST(Durable, ReplayStopsAtTheFirstRejectedLine) {
  TempDir dir;
  {
    std::ofstream os(dir.file("j.journal"), std::ios::binary);
    os << "1\n\n2\ntorn\n3\n";
  }
  std::vector<int> seen;
  const auto consume = [&](const std::string& line) { seen.push_back(std::stoi(line)); };
  durable::replay(dir.file("j.journal"), consume);
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
  seen.clear();
  durable::replay(dir.file("missing.journal"), consume);
  EXPECT_TRUE(seen.empty());
}

TEST(Durable, ManifestSaveNeverRenamesAFileWhoseCloseFailed) {
  // `<path>.tmp` links to /dev/full: the write sits in the stream buffer and
  // fails only when fclose flushes it. The save must not rename the link
  // over the manifest; its retry writes a regular file.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FaultGuard guard("");
  TempDir dir;
  const std::string path = dir.file("m.json");
  rt::ShardManifest manifest;
  manifest.dataset_name = "d";
  manifest.completed.push_back({0, 7, 42});
  fs::create_symlink("/dev/full", path + ".tmp");
  manifest.save(path);
  // Check before reading anything: reading /dev/full never ends.
  ASSERT_FALSE(fs::is_symlink(path));
  ASSERT_TRUE(fs::is_regular_file(path));
  EXPECT_TRUE(rt::ShardManifest::load(path).is_completed(0, 7));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// --- deadline propagation ---------------------------------------------------

TEST(Deadline, NoGuardMeansNoDeadline) {
  EXPECT_EQ(rt::current_deadline_ms(), 0.0);
  EXPECT_FALSE(rt::deadline_expired());
  EXPECT_NO_THROW(rt::check_deadline("test"));
}

TEST(Deadline, ExpiredGuardThrowsWithContext) {
  rt::DeadlineGuard guard(rt::now_steady_ms() - 1.0);  // already past
  EXPECT_TRUE(rt::deadline_expired());
  try {
    rt::check_deadline("unit.test");
    FAIL() << "check_deadline should have thrown";
  } catch (const rt::DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("unit.test"), std::string::npos);
  }
}

TEST(Deadline, FutureGuardPasses) {
  rt::DeadlineGuard guard(rt::now_steady_ms() + 60000.0);
  EXPECT_FALSE(rt::deadline_expired());
  EXPECT_NO_THROW(rt::check_deadline("test"));
}

TEST(Deadline, GuardsNestByTightening) {
  const double outer = rt::now_steady_ms() + 60000.0;
  rt::DeadlineGuard g1(outer);
  EXPECT_EQ(rt::current_deadline_ms(), outer);
  {
    const double inner = outer - 30000.0;
    rt::DeadlineGuard g2(inner);
    EXPECT_EQ(rt::current_deadline_ms(), inner);
    {
      // An inner guard can only tighten: a looser deadline is ignored.
      rt::DeadlineGuard g3(outer);
      EXPECT_EQ(rt::current_deadline_ms(), inner);
    }
    EXPECT_EQ(rt::current_deadline_ms(), inner);
  }
  EXPECT_EQ(rt::current_deadline_ms(), outer);
}

TEST(Deadline, ZeroIsNoOp) {
  rt::DeadlineGuard guard(0.0);
  EXPECT_EQ(rt::current_deadline_ms(), 0.0);
  EXPECT_NO_THROW(rt::check_deadline("test"));
}
