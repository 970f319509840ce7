// Checkpoint round trips and mismatch detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "math/rng.hpp"
#include "nn/models.hpp"
#include "nn/serialize.hpp"

namespace mn = maps::nn;
namespace mm = maps::math;
using maps::index_t;

namespace {
std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "/maps_ckpt_" + tag + ".bin";
}

mn::Tensor random_input(unsigned seed) {
  mm::Rng rng(seed);
  mn::Tensor x({1, 3, 8, 8});
  for (index_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}
}  // namespace

TEST(Serialize, RoundTripReproducesOutputs) {
  mn::ModelConfig cfg;
  cfg.kind = mn::ModelKind::Fno;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 3;
  cfg.depth = 2;
  auto m1 = mn::make_model(cfg);
  const auto path = temp_path("roundtrip");
  mn::save_parameters(*m1, path);

  cfg.seed = 999;  // different init
  auto m2 = mn::make_model(cfg);
  auto x = random_input(1);
  auto before = m2->forward(x);
  mn::load_parameters(*m2, path);
  auto after = m2->forward(x);
  auto reference = m1->forward(x);

  double diff_before = 0, diff_after = 0;
  for (index_t i = 0; i < reference.numel(); ++i) {
    diff_before += std::abs(before[i] - reference[i]);
    diff_after += std::abs(after[i] - reference[i]);
  }
  EXPECT_GT(diff_before, 1e-3);
  EXPECT_NEAR(diff_after, 0.0, 1e-9);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsArchitectureMismatch) {
  mn::ModelConfig cfg;
  cfg.kind = mn::ModelKind::Fno;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 3;
  cfg.depth = 2;
  auto m1 = mn::make_model(cfg);
  const auto path = temp_path("mismatch");
  mn::save_parameters(*m1, path);

  cfg.width = 8;  // different shape
  auto m2 = mn::make_model(cfg);
  EXPECT_THROW(mn::load_parameters(*m2, path), maps::MapsError);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  mn::ModelConfig cfg;
  cfg.width = 4;
  cfg.modes = 3;
  cfg.depth = 1;
  auto m = mn::make_model(cfg);
  EXPECT_THROW(mn::load_parameters(*m, "/nonexistent/path/model.bin"), maps::MapsError);
}

TEST(Serialize, SaveReportsAFailedFinalFlush) {
  // A small checkpoint sits in the stream's buffer until close: a save that
  // checked the stream before that returned normally on a full disk.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  mn::ModelConfig cfg;
  cfg.width = 4;
  cfg.modes = 3;
  cfg.depth = 1;
  auto m = mn::make_model(cfg);
  EXPECT_THROW(mn::save_parameters(*m, "/dev/full"), maps::MapsError);
}

TEST(Serialize, MetadataTrailerRoundTrips) {
  mn::ModelConfig cfg;
  cfg.kind = mn::ModelKind::Fno;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 3;
  cfg.depth = 2;
  auto m1 = mn::make_model(cfg);
  const auto path = temp_path("metadata");
  mn::save_parameters(*m1, path,
                      {{"std_eps_lo", 1.0},
                       {"std_eps_hi", 12.25},
                       {"std_field_scale", 0.037125}});

  const auto meta = mn::load_metadata(path);
  ASSERT_EQ(meta.size(), 3u);
  EXPECT_DOUBLE_EQ(meta.at("std_eps_lo"), 1.0);
  EXPECT_DOUBLE_EQ(meta.at("std_eps_hi"), 12.25);
  EXPECT_DOUBLE_EQ(meta.at("std_field_scale"), 0.037125);

  // The trailer is invisible to the parameter loader: weights round-trip
  // exactly as they do from a trailer-free checkpoint.
  auto m2 = mn::make_model(cfg);
  mn::load_parameters(*m2, path);
  auto x = random_input(2);
  auto ref = m1->forward(x);
  auto got = m2->forward(x);
  for (index_t i = 0; i < ref.numel(); ++i) {
    ASSERT_NEAR(got[i], ref[i], 1e-9);
  }
  std::remove(path.c_str());
}

TEST(Serialize, CorruptMetadataTrailerThrowsInsteadOfAllocating) {
  mn::ModelConfig cfg;
  cfg.kind = mn::ModelKind::Fno;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 3;
  cfg.depth = 1;
  auto m = mn::make_model(cfg);
  const auto path = temp_path("corrupt_trailer");
  mn::save_parameters(*m, path);

  // Hand-append a trailer whose key_len claims ~4 GB: load_metadata must
  // reject it against the remaining file size, not std::bad_alloc first.
  const auto append_u32 = [](std::ostream& os, std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    append_u32(os, 0x4D455441u);  // "META"
    append_u32(os, 1u);           // count
    append_u32(os, 0xFFFFFFFFu);  // absurd key_len
  }
  EXPECT_THROW(mn::load_metadata(path), maps::MapsError);

  // Same for a count far beyond what the file could hold.
  mn::save_parameters(*m, path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    append_u32(os, 0x4D455441u);  // "META"
    append_u32(os, 0x10000000u);  // 268M records in an empty trailer
  }
  EXPECT_THROW(mn::load_metadata(path), maps::MapsError);
  std::remove(path.c_str());
}

TEST(Serialize, MetadataAbsentFromLegacyCheckpoint) {
  mn::ModelConfig cfg;
  cfg.kind = mn::ModelKind::Fno;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 3;
  cfg.depth = 1;
  auto m = mn::make_model(cfg);
  const auto path = temp_path("no_metadata");
  mn::save_parameters(*m, path);  // no trailer written
  EXPECT_TRUE(mn::load_metadata(path).empty());
  std::remove(path.c_str());
}
