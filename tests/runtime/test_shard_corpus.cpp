// Hostile shard files: crafted manifests whose counts once wrapped, exhausted
// memory or overflowed a narrowing cast in merge_shards, and a seeded
// mutation corpus (tests/json_mutants.hpp) over a valid shard manifest and a
// valid shard journal. Every input must end in MapsError or a valid state,
// never a signal or another exception type.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <utility>

#include "../json_mutants.hpp"
#include "core/data/dataset.hpp"
#include "io/json.hpp"
#include "runtime/datagen.hpp"

namespace md = maps::data;
namespace mio = maps::io;
namespace rt = maps::runtime;

namespace {

/// A tiny but complete sample (2x2 grids), about 600 bytes on disk.
md::SampleRecord tiny_sample(std::uint64_t pattern_id) {
  md::SampleRecord s;
  s.device = "tiny";
  s.excitation = "e0";
  s.strategy = "test";
  s.pattern_id = pattern_id;
  s.eps = maps::math::RealGrid(2, 2, 2.25);
  s.J = maps::math::CplxGrid(2, 2);
  s.Ez = maps::math::CplxGrid(2, 2);
  s.adj_J = maps::math::CplxGrid(2, 2);
  s.lambda_fwd = maps::math::CplxGrid(2, 2);
  s.grad_eps = maps::math::RealGrid(2, 2, 0.0);
  s.density = maps::math::RealGrid(2, 2, 0.5);
  s.transmissions = {0.5};
  return s;
}

/// One finished single-shard run of two one-sample patterns:
/// `<output>.shard-0-of-1.part` holds both samples and `manifest()` is the
/// matching manifest document.
class ShardFiles {
 public:
  explicit ShardFiles(const std::string& name)
      : output_(std::string(::testing::TempDir()) + "/maps_corpus_" + name + ".mapsd") {
    std::ofstream part(rt::shard_part_path(output_, 0, 1), std::ios::binary | std::ios::trunc);
    for (std::uint64_t p = 0; p < 2; ++p) {
      md::write_sample(part, tiny_sample(p));
      part.flush();
      manifest_.completed.push_back({0, p, static_cast<std::uint64_t>(part.tellp())});
    }
    manifest_.dataset_name = "tiny/test";
    manifest_.patterns_total = 2;
    manifest_.samples_per_pattern = 1;
    manifest_.done = true;
  }
  ~ShardFiles() {
    std::filesystem::remove(rt::shard_part_path(output_, 0, 1));
    std::filesystem::remove(manifest_path());
  }

  const std::string& output() const { return output_; }
  std::string manifest_path() const { return rt::shard_manifest_path(output_, 0, 1); }
  mio::JsonValue manifest() const { return manifest_.to_json(); }

  void write_manifest(const std::string& text) const {
    std::ofstream os(manifest_path(), std::ios::binary | std::ios::trunc);
    os << text;
  }

 private:
  std::string output_;
  rt::ShardManifest manifest_;
};

/// The invariants ShardManifest::from_json promises.
void expect_valid(const rt::ShardManifest& m, const std::string& input) {
  EXPECT_GE(m.shard_count, 1) << input;
  EXPECT_GE(m.shard_index, 0) << input;
  EXPECT_LT(m.shard_index, m.shard_count) << input;
  EXPECT_GE(m.phases, 1) << input;
  for (const auto& e : m.completed) EXPECT_GE(e.phase, 0) << input;
}

}  // namespace

TEST(MergeShards, RejectsASampleCountThatWraps) {
  // 2^32 patterns x 2^32 samples wraps to 0 in 64 bits: a dataset sized
  // from the wrapped product would be scattered into past its end.
  ShardFiles files("wrap");
  auto doc = files.manifest();
  doc["patterns_total"] = 4294967296.0;
  doc["samples_per_pattern"] = 4294967296.0;
  files.write_manifest(doc.dump());
  EXPECT_THROW(rt::merge_shards(files.output(), 1, false), maps::MapsError);
}

TEST(MergeShards, RejectsMoreSamplesThanThePartFilesHold) {
  // 2^40 samples cannot fit in a ~1 KB part file: reject the count before
  // sizing a dataset for it.
  ShardFiles files("huge");
  auto doc = files.manifest();
  doc["patterns_total"] = 1099511627776.0;
  files.write_manifest(doc.dump());
  EXPECT_THROW(rt::merge_shards(files.output(), 1, false), maps::MapsError);
}

TEST(MergeShards, RejectsNegativePhases) {
  // A negative phase count must not reach the sample count.
  ShardFiles files("phases");
  auto doc = files.manifest();
  doc["phases"] = -1;
  files.write_manifest(doc.dump());
  EXPECT_THROW(rt::merge_shards(files.output(), 1, false), maps::MapsError);
}

TEST(MergeShards, RejectsRecordLengthsLargerThanThePartFile) {
  // merge_shards reads .part files through data::read_sample, which bounds
  // every length it reads by the bytes left: the device string's length
  // (2^44) and eps's nx (2^40, then -3) must fail as MapsError.
  ShardFiles files("lengths");
  files.write_manifest(files.manifest().dump());
  const std::string part = rt::shard_part_path(files.output(), 0, 1);
  std::string good;
  {
    std::ifstream is(part, std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  const md::SampleRecord s = tiny_sample(0);
  const std::size_t eps_nx =
      3 * 8 + s.device.size() + s.excitation.size() + s.strategy.size() + 5 * 8;
  const std::pair<std::size_t, std::uint64_t> crafted[] = {
      {0, std::uint64_t{1} << 44},
      {eps_nx, std::uint64_t{1} << 40},
      {eps_nx, static_cast<std::uint64_t>(-3)}};
  for (const auto& [at, value] : crafted) {
    std::string bytes = good;
    std::memcpy(&bytes[at], &value, sizeof(value));
    std::ofstream(part, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_THROW(rt::merge_shards(files.output(), 1, false), maps::MapsError) << at;
  }
  std::ofstream(part, std::ios::binary | std::ios::trunc) << good;
  EXPECT_EQ(rt::merge_shards(files.output(), 1, false).size(), 2u);
}

TEST(ShardManifest, FromJsonRejectsOutOfRangeFields) {
  const ShardFiles files("fields");
  const auto rejects = [&](const std::function<void(mio::JsonValue&)>& edit) {
    auto doc = files.manifest();
    edit(doc);
    EXPECT_THROW(rt::ShardManifest::from_json(doc), maps::MapsError) << doc.dump();
  };
  rejects([](mio::JsonValue& d) { d["patterns_total"] = -1; });
  rejects([](mio::JsonValue& d) { d["samples_per_pattern"] = -2; });
  rejects([](mio::JsonValue& d) { d["phases"] = 0; });
  rejects([](mio::JsonValue& d) { d["phases"] = 4294967296.0; });  // beyond int
  rejects([](mio::JsonValue& d) { d["shard"]["count"] = 0; });
  rejects([](mio::JsonValue& d) { d["shard"]["index"] = -1; });
  rejects([](mio::JsonValue& d) { d["shard"]["index"] = 1; });  // == count
  rejects([](mio::JsonValue& d) { d["completed"].as_array()[0]["phase"] = -1; });
  rejects([](mio::JsonValue& d) { d["completed"].as_array()[1]["pattern"] = -3; });
  EXPECT_NO_THROW(rt::ShardManifest::from_json(files.manifest()));
}

TEST(ShardCorpus, ManifestMutantsParseToValidManifestsOrThrowMapsError) {
  const ShardFiles files("mutants");
  const std::string seed_doc = files.manifest().dump();
  std::size_t parsed = 0, rejected = 0;
  for (const std::string& m : maps::test::json_mutants(seed_doc, 3000, 41)) {
    try {
      expect_valid(rt::ShardManifest::from_json(mio::json_parse(m)), m);
      ++parsed;
    } catch (const maps::MapsError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-MapsError " << e.what() << " on: " << m;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ShardCorpus, MergeOfMutatedManifestsThrowsMapsErrorOrMerges) {
  // Each mutant replaces the manifest next to the valid part file. Mutants
  // that leave the counts and entries intact merge, which also shows that
  // the fixture the MergeShards cases edit is mergeable.
  const ShardFiles files("merge");
  const std::string seed_doc = files.manifest().dump();
  std::size_t merged = 0, rejected = 0;
  for (const std::string& m : maps::test::json_mutants(seed_doc, 1500, 43)) {
    files.write_manifest(m);
    try {
      const auto ds = rt::merge_shards(files.output(), 1, false);
      const auto mf = rt::ShardManifest::load(files.manifest_path());
      EXPECT_EQ(ds.size(), mf.patterns_total * mf.samples_per_pattern *
                               static_cast<std::uint64_t>(mf.phases))
          << m;
      ++merged;
    } catch (const maps::MapsError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-MapsError " << e.what() << " on: " << m;
    }
  }
  EXPECT_GT(merged, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ShardCorpus, JournalMutantsReplayToAValidPrefix) {
  // A journal of three commits after a manifest that already holds one; the
  // first journal line repeats it (a compaction that crashed before the
  // truncate). Replay adopts a prefix of valid, new, distinct entries.
  const std::string path = std::string(::testing::TempDir()) + "/maps_corpus.journal";
  std::filesystem::remove(path);
  {
    rt::ShardJournal journal(path);
    journal.append({0, 0, 600});
    journal.append({0, 1, 1200});
    journal.append({1, 0, 1800});
  }
  std::string seed_doc;
  {
    std::ifstream is(path, std::ios::binary);
    seed_doc.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  std::size_t adopted_total = 0;
  for (const std::string& m : maps::test::json_mutants(seed_doc, 3000, 47)) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << m;
    }
    rt::ShardManifest manifest;
    manifest.completed.push_back({0, 0, 600});
    std::size_t adopted = 0;
    try {
      adopted = manifest.absorb_journal(path);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "journal replay threw " << e.what() << " on: " << m;
      continue;
    }
    adopted_total += adopted;
    ASSERT_EQ(manifest.completed.size(), 1 + adopted) << m;
    std::set<std::pair<int, std::uint64_t>> seen;
    for (const auto& e : manifest.completed) {
      EXPECT_GE(e.phase, 0) << m;
      EXPECT_TRUE(seen.insert({e.phase, e.pattern}).second) << "duplicate entry: " << m;
    }
  }
  EXPECT_GT(adopted_total, 0u);
  std::filesystem::remove(path);
}
