// Hostile dataset bytes and failing saves: crafted sample records whose
// lengths once ended in std::bad_alloc or std::length_error, a seeded
// byte-mutation corpus over a one-sample .mapsd (tests/json_mutants.hpp's
// generator with a binary insert alphabet), and a save whose final flush
// fails. Every input must end in MapsError or a valid dataset.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../json_mutants.hpp"
#include "core/data/dataset.hpp"

namespace md = maps::data;

namespace {

/// A tiny but complete sample (2x2 grids).
md::SampleRecord tiny_sample() {
  md::SampleRecord s;
  s.device = "tiny";
  s.excitation = "e0";
  s.strategy = "test";
  s.eps = maps::math::RealGrid(2, 2, 2.25);
  s.J = maps::math::CplxGrid(2, 2);
  s.Ez = maps::math::CplxGrid(2, 2);
  s.adj_J = maps::math::CplxGrid(2, 2);
  s.lambda_fwd = maps::math::CplxGrid(2, 2);
  s.grad_eps = maps::math::RealGrid(2, 2, 0.0);
  s.density = maps::math::RealGrid(2, 2, 0.5);
  s.transmissions = {0.5, 0.25};
  return s;
}

std::string record_bytes(const md::SampleRecord& s) {
  std::ostringstream os;
  md::write_sample(os, s);
  return os.str();
}

void put_u64_at(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(&bytes[at], &v, sizeof(v));
}

/// tiny_sample() with one length rewritten. Every value is at least 2^40 as
/// unsigned, so a reader that trusts it asks for terabytes and fails fast.
std::vector<std::pair<std::string, std::string>> crafted_records() {
  const md::SampleRecord s = tiny_sample();
  const std::string good = record_bytes(s);
  // Three length-prefixed strings, then five 8-byte fields, then eps's nx.
  const std::size_t eps_nx =
      3 * 8 + s.device.size() + s.excitation.size() + s.strategy.size() + 5 * 8;
  std::vector<std::pair<std::string, std::string>> out;
  std::string r = good;
  put_u64_at(r, 0, std::uint64_t{1} << 44);
  out.emplace_back("device length 2^44", r);
  r = good;
  put_u64_at(r, eps_nx, std::uint64_t{1} << 40);
  out.emplace_back("eps nx 2^40", r);
  r = good;
  put_u64_at(r, eps_nx, static_cast<std::uint64_t>(-3));
  out.emplace_back("eps nx -3", r);
  return out;
}

/// A .mapsd file image: header plus the given sample records.
std::string mapsd_bytes(const std::string& records, std::uint64_t count) {
  md::Dataset header;
  header.name = "tiny/test";
  const std::string path = ::testing::TempDir() + "/maps_dataset_io_header.mapsd";
  header.save(path);
  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  put_u64_at(bytes, bytes.size() - 8, count);
  return bytes + records;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
}

}  // namespace

TEST(DatasetIo, CraftedRecordsThrowMapsErrorFromReadSample) {
  for (const auto& [what, bytes] : crafted_records()) {
    std::istringstream is(bytes);
    EXPECT_THROW(md::read_sample(is), maps::MapsError) << what;
  }
  std::istringstream is(record_bytes(tiny_sample()));
  const md::SampleRecord back = md::read_sample(is);
  EXPECT_EQ(back.device, "tiny");
  EXPECT_EQ(back.transmissions, (std::vector<double>{0.5, 0.25}));
}

TEST(DatasetIo, CraftedRecordsThrowMapsErrorFromLoad) {
  const std::string path = ::testing::TempDir() + "/maps_dataset_io_crafted.mapsd";
  for (const auto& [what, bytes] : crafted_records()) {
    write_file(path, mapsd_bytes(bytes, 1));
    EXPECT_THROW(md::Dataset::load(path), maps::MapsError) << what;
  }
  // A sample count of 2^40 in a file that holds one sample.
  write_file(path, mapsd_bytes(record_bytes(tiny_sample()), std::uint64_t{1} << 40));
  EXPECT_THROW(md::Dataset::load(path), maps::MapsError);

  write_file(path, mapsd_bytes(record_bytes(tiny_sample()), 1));
  EXPECT_EQ(md::Dataset::load(path).size(), 1u);
  std::filesystem::remove(path);
}

TEST(DatasetIo, MutatedFilesLoadOrThrowMapsError) {
  const std::string seed = mapsd_bytes(record_bytes(tiny_sample()), 1);
  const std::string path = ::testing::TempDir() + "/maps_dataset_io_mutant.mapsd";
  constexpr std::string_view kBinaryInserts("\x00\x01\x02\x10\x7f\x80\xfe\xff", 8);
  std::size_t loaded = 0, rejected = 0;
  for (const std::string& m : maps::test::json_mutants(seed, 2000, 53, kBinaryInserts)) {
    write_file(path, m);
    try {
      const md::Dataset d = md::Dataset::load(path);
      for (const auto& s : d.samples) {
        EXPECT_LE(static_cast<std::size_t>(s.eps.size()) * sizeof(double), m.size());
      }
      ++loaded;
    } catch (const maps::MapsError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-MapsError " << e.what() << " on a " << m.size() << "-byte mutant";
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  std::filesystem::remove(path);
}

TEST(DatasetIo, SaveReportsAFailedFinalFlush) {
  // The last buffer is written only when the stream closes: a save that
  // checked the stream before that returned normally on a full disk.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(md::Dataset{}.save("/dev/full"), maps::MapsError);
}
