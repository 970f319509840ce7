// End-to-end datagen pipeline: equivalence with the reference path,
// shard-merge byte identity, resume after an injected failure, and the
// multi-fidelity phase lineup.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/data/generator.hpp"
#include "runtime/datagen.hpp"

namespace md = maps::data;
namespace mdev = maps::devices;
namespace rt = maps::runtime;
using maps::index_t;

namespace {

const mdev::DeviceProblem& bend() {
  static const mdev::DeviceProblem dev = mdev::make_device(mdev::DeviceKind::Bend);
  return dev;
}

md::PatternSet bend_patterns(int n, unsigned seed = 5) {
  md::SamplerOptions opt;
  opt.strategy = md::SamplingStrategy::Random;
  opt.num_patterns = n;
  opt.seed = seed;
  return md::sample_patterns(bend(), mdev::DeviceKind::Bend, opt);
}

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/maps_dgp_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

double field_rel_err(const maps::math::CplxGrid& a, const maps::math::CplxGrid& b) {
  double num = 0.0, den = 0.0;
  for (index_t n = 0; n < a.size(); ++n) {
    num += std::norm(a[n] - b[n]);
    den += std::norm(a[n]);
  }
  return std::sqrt(num / std::max(den, 1e-300));
}

void remove_shard_files(const std::string& output, int count) {
  namespace fs = std::filesystem;
  fs::remove(output);
  for (int i = 0; i < count; ++i) {
    fs::remove(rt::shard_part_path(output, i, count));
    fs::remove(rt::shard_manifest_path(output, i, count));
  }
}

}  // namespace

TEST(DatagenPipeline, MatchesReferencePath) {
  const auto ps = bend_patterns(4);
  const auto ref = md::generate_dataset_reference(bend(), ps);
  rt::DatagenStats stats;
  const std::vector<rt::DatagenPhase> phases = {{&bend(), &ps, 1}};
  const auto pipe = rt::generate_pipelined(phases, ref.name, {}, &stats);

  ASSERT_EQ(pipe.size(), ref.size());
  EXPECT_EQ(stats.patterns, 4u);
  EXPECT_EQ(stats.samples, ref.size());
  EXPECT_EQ(stats.factorizations, 4);  // one prepared operator per pattern
  EXPECT_EQ(stats.solves, 2 * 4);      // forward + adjoint per excitation
  for (std::size_t k = 0; k < ref.size(); ++k) {
    const auto& a = ref.samples[k];
    const auto& b = pipe.samples[k];
    EXPECT_EQ(b.pattern_id, a.pattern_id);
    EXPECT_EQ(b.excitation, a.excitation);
    EXPECT_EQ(b.fidelity, a.fidelity);
    // Both paths ride the same split kernel; the bounds allow rounding-level
    // skew.
    EXPECT_LT(field_rel_err(a.Ez, b.Ez), 1e-10);
    EXPECT_LT(field_rel_err(a.lambda_fwd, b.lambda_fwd), 1e-8);
    ASSERT_EQ(b.transmissions.size(), a.transmissions.size());
    for (std::size_t t = 0; t < a.transmissions.size(); ++t) {
      EXPECT_NEAR(b.transmissions[t], a.transmissions[t],
                  1e-9 + 1e-9 * std::abs(a.transmissions[t]));
    }
  }
}

TEST(DatagenPipeline, ShardedMergeIsByteIdenticalToSingleRun) {
  const auto ps = bend_patterns(5, 9);
  const std::string name = "bending/random";
  const std::vector<rt::DatagenPhase> phases = {{&bend(), &ps, 1}};

  // Single-process pipelined run.
  const std::string single_path = tmp_path("single.mapsd");
  rt::generate_pipelined(phases, name).save(single_path);

  // Three shards, then merge.
  const std::string sharded_path = tmp_path("sharded.mapsd");
  remove_shard_files(sharded_path, 3);
  for (int i = 0; i < 3; ++i) {
    rt::DatagenOptions opts;
    opts.shard = {i, 3};
    rt::generate_sharded(phases, name, sharded_path, opts);
  }
  ASSERT_TRUE(rt::all_shards_done(sharded_path, 3));
  const auto merged = rt::merge_shards(sharded_path, 3);
  EXPECT_EQ(merged.size(), ps.densities.size());

  EXPECT_EQ(slurp(single_path), slurp(sharded_path)) << "merged bytes differ";
  remove_shard_files(sharded_path, 3);
  std::filesystem::remove(single_path);
}

TEST(DatagenPipeline, ResumeSkipsCommittedPatterns) {
  const auto ps = bend_patterns(6, 13);
  const std::string name = "bending/random";
  const std::vector<rt::DatagenPhase> phases = {{&bend(), &ps, 1}};
  const std::string out = tmp_path("resume.mapsd");
  remove_shard_files(out, 1);

  // Clean single-process run for the ground truth bytes.
  const std::string clean = tmp_path("resume_clean.mapsd");
  rt::generate_pipelined(phases, name).save(clean);

  // "Kill" the generation after 2 of 6 patterns committed.
  rt::DatagenOptions crash;
  crash.after_pattern = [](std::size_t done) {
    if (done == 2) throw maps::MapsError("injected kill");
  };
  EXPECT_THROW(rt::generate_sharded(phases, name, out, crash), maps::MapsError);
  {
    // The on-disk commit record is the compacted base manifest plus one
    // journal line per pattern committed since (the O(n) commit protocol).
    auto manifest = rt::ShardManifest::load(rt::shard_manifest_path(out, 0, 1));
    EXPECT_FALSE(manifest.done);
    EXPECT_TRUE(manifest.completed.empty());
    EXPECT_EQ(manifest.absorb_journal(rt::shard_journal_path(out, 0, 1)), 2u);
    EXPECT_EQ(manifest.completed.size(), 2u);
  }

  // Resume: only the 4 missing patterns may be re-simulated.
  rt::DatagenOptions resume;
  resume.resume = true;
  const auto stats = rt::generate_sharded(phases, name, out, resume);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.patterns, 4u);
  EXPECT_EQ(stats.factorizations, 4);

  // The resumed shard merges to the exact clean-run dataset.
  ASSERT_TRUE(rt::all_shards_done(out, 1));
  rt::merge_shards(out, 1);
  EXPECT_EQ(slurp(clean), slurp(out));

  // Resuming a finished shard is a no-op.
  const auto again = rt::generate_sharded(phases, name, out, resume);
  EXPECT_EQ(again.patterns, 0u);
  EXPECT_EQ(again.skipped, 6u);

  remove_shard_files(out, 1);
  std::filesystem::remove(clean);
}

TEST(DatagenPipeline, MultifidelityRidesPipeline) {
  mdev::BuildOptions bo;
  bo.fidelity = 2;
  const auto hi = mdev::make_device(mdev::DeviceKind::Bend, bo);
  const auto ps = bend_patterns(2, 3);

  const auto ds = md::generate_multifidelity(bend(), hi, ps);
  ASSERT_EQ(ds.size(), 4u);
  // Phase-major: low-fidelity block then high-fidelity block, paired ids.
  EXPECT_EQ(ds.samples[0].fidelity, 1);
  EXPECT_EQ(ds.samples[1].fidelity, 1);
  EXPECT_EQ(ds.samples[2].fidelity, 2);
  EXPECT_EQ(ds.samples[3].fidelity, 2);
  EXPECT_EQ(ds.samples[0].nx(), 64);
  EXPECT_EQ(ds.samples[2].nx(), 128);
  EXPECT_EQ(ds.samples[0].pattern_id, ds.samples[2].pattern_id);
  EXPECT_EQ(ds.pattern_ids().size(), 2u);

  // And the labels agree with the reference implementation per phase.
  const auto ref_lo = md::generate_dataset_reference(bend(), ps);
  EXPECT_LT(field_rel_err(ref_lo.samples[0].Ez, ds.samples[0].Ez), 1e-10);
}

TEST(DatagenPipeline, ResumeManifestMismatchIsRejected) {
  const auto ps = bend_patterns(3, 17);
  const std::vector<rt::DatagenPhase> phases = {{&bend(), &ps, 1}};
  const std::string out = tmp_path("mismatch.mapsd");
  remove_shard_files(out, 1);

  rt::DatagenOptions opts;
  rt::generate_sharded(phases, "name-a", out, opts);

  rt::DatagenOptions resume;
  resume.resume = true;
  EXPECT_THROW(rt::generate_sharded(phases, "name-b", out, resume), maps::MapsError);
  remove_shard_files(out, 1);
}

TEST(DatagenPipeline, MemoryBudgetClampsInflightWindow) {
  const auto ps = bend_patterns(3, 23);
  const std::vector<rt::DatagenPhase> phases = {{&bend(), &ps, 1}};

  // Reference: the default (workers + 2) window.
  rt::DatagenStats ref_stats;
  const auto ref = rt::generate_pipelined(phases, "budget-ref", {}, &ref_stats);

  // 1 MB is far below one bend factorization, so the window must clamp to
  // the floor of 1 and say so in the log...
  std::ostringstream log;
  rt::DatagenOptions tight;
  tight.memory_budget_mb = 1;
  tight.log = &log;
  tight.progress_every_s = 0;
  rt::DatagenStats stats;
  const auto ds = rt::generate_pipelined(phases, "budget-ref", tight, &stats);
  EXPECT_NE(log.str().find("memory budget"), std::string::npos) << log.str();
  EXPECT_NE(log.str().find("window at 1"), std::string::npos) << log.str();

  // ...without changing what gets generated.
  EXPECT_EQ(stats.samples, ref_stats.samples);
  ASSERT_EQ(ds.samples.size(), ref.samples.size());
  EXPECT_LT(field_rel_err(ds.samples[0].Ez, ref.samples[0].Ez), 1e-14);

  // A generous budget leaves the window alone (no clamp message).
  std::ostringstream log_wide;
  rt::DatagenOptions wide;
  wide.memory_budget_mb = 64 * 1024;
  wide.log = &log_wide;
  wide.progress_every_s = 0;
  rt::generate_pipelined(phases, "budget-ref", wide, nullptr);
  EXPECT_EQ(log_wide.str().find("memory budget"), std::string::npos)
      << log_wide.str();
}
