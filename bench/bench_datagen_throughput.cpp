// Dataset-generation throughput on the bend benchmark device: the runtime at
// workers = 1 against workers = N (math::num_threads()) on the same binary,
// plus a 2-shard sharded+merged run. Emits BENCH_datagen_throughput.json for
// regression tracking. The run also asserts the runtime's byte guarantees:
// the workers = 1 and workers = N saves are identical, and so is the merged
// shard file.
//
// Each of the two worker legs is the median of kRepetitions runs, taken in
// alternating order so host drift hits both legs alike; the gated ratio
// datagen_workers_vs_single is median(workers = 1) / median(workers = N).
//
// Usage: bench_datagen_throughput [output.json]
//   MAPS_BENCH_PATTERNS  pattern count (default 12)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "io/json.hpp"
#include "math/parallel.hpp"
#include "runtime/datagen.hpp"

namespace {

constexpr int kRepetitions = 5;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

maps::io::JsonValue leg_json(std::size_t patterns, double seconds) {
  maps::io::JsonValue v;
  v["seconds"] = seconds;
  v["patterns_per_s"] = seconds > 0 ? static_cast<double>(patterns) / seconds : 0.0;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maps;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_datagen_throughput.json";
  int n_patterns = 12;
  if (const char* env = std::getenv("MAPS_BENCH_PATTERNS")) {
    n_patterns = std::max(2, std::atoi(env));
  }

  const auto device = devices::make_device(devices::DeviceKind::Bend);
  data::SamplerOptions opt;
  opt.strategy = data::SamplingStrategy::Random;
  opt.num_patterns = n_patterns;
  opt.seed = 7;
  const auto patterns = data::sample_patterns(device, devices::DeviceKind::Bend, opt);
  const std::size_t m = patterns.densities.size();
  const std::size_t workers = math::num_threads();
  const std::string name = "bending/random";
  const std::vector<runtime::DatagenPhase> phases = {{&device, &patterns, 1}};

  const auto tmp = std::filesystem::temp_directory_path();
  const std::string single_path = (tmp / "maps_bench_single.mapsd").string();
  const std::string multi_path = (tmp / "maps_bench_workers.mapsd").string();
  const std::string shard_path = (tmp / "maps_bench_shard.mapsd").string();

  // Warm-up (allocator, page cache, thread start-up) outside the timed legs.
  {
    data::SamplerOptions w = opt;
    w.num_patterns = 2;
    const auto wp = data::sample_patterns(device, devices::DeviceKind::Bend, w);
    runtime::DatagenOptions opts;
    opts.workers = workers;
    (void)runtime::generate_pipelined({{&device, &wp, 1}}, name, opts);
  }

  // Legs 1 and 2: workers = 1 and workers = N, alternating. The saves stay
  // outside the timed region.
  std::vector<double> s_single, s_multi;
  runtime::DatagenStats multi_stats;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool single = (leg == 0) == (rep % 2 == 0);
      runtime::DatagenOptions opts;
      opts.workers = single ? 1 : workers;
      bench::Stopwatch t;
      const auto ds =
          runtime::generate_pipelined(phases, name, opts, single ? nullptr : &multi_stats);
      (single ? s_single : s_multi).push_back(t.seconds());
      if (rep == 0) ds.save(single ? single_path : multi_path);
    }
  }
  const double single_s = median(s_single);
  const double multi_s = median(s_multi);

  // Leg 3: two shards run back-to-back plus the merge — the end-to-end cost
  // of a horizontally sharded run on one host.
  for (int i = 0; i < 2; ++i) {
    std::filesystem::remove(runtime::shard_part_path(shard_path, i, 2));
    std::filesystem::remove(runtime::shard_manifest_path(shard_path, i, 2));
  }
  bench::Stopwatch t_shard;
  for (int i = 0; i < 2; ++i) {
    runtime::DatagenOptions opts;
    opts.shard = {i, 2};
    runtime::generate_sharded(phases, name, shard_path, opts);
  }
  runtime::merge_shards(shard_path, 2);
  const double s_shard = t_shard.seconds();

  const std::string multi_bytes = slurp(multi_path);
  const bool workers_identical = slurp(single_path) == multi_bytes;
  const bool merge_identical = slurp(shard_path) == multi_bytes;
  const double ratio = multi_s > 0 ? single_s / multi_s : 0.0;

  io::JsonValue report;
  report["device"] = "bending";
  report["patterns"] = static_cast<int>(m);
  report["threads"] = static_cast<int>(workers);
  report["repetitions"] = kRepetitions;
  report["single_worker"] = leg_json(m, single_s);
  report["workers"] = leg_json(m, multi_s);
  report["workers"]["solves_per_s"] =
      multi_s > 0 ? static_cast<double>(multi_stats.solves) / multi_s : 0.0;
  report["sharded_2_merged"] = leg_json(m, s_shard);
  report["datagen_workers_vs_single"] = ratio;
  report["workers_byte_identical"] = workers_identical;
  report["merge_byte_identical"] = merge_identical;
  io::json_save(report, out_path);

  const auto spread = [](const std::vector<double>& v) {
    return std::to_string(*std::min_element(v.begin(), v.end())) + "-" +
           std::to_string(*std::max_element(v.begin(), v.end()));
  };
  std::printf("datagen throughput (%zu patterns, median of %d alternating runs)\n", m,
              kRepetitions);
  std::printf("  workers=1  : %.3fs  %.2f patterns/s  (runs %s s)\n", single_s,
              m / single_s, spread(s_single).c_str());
  std::printf("  workers=%zu  : %.3fs  %.2f patterns/s  (runs %s s)  %.2fx  identical=%s\n",
              workers, multi_s, m / multi_s, spread(s_multi).c_str(), ratio,
              workers_identical ? "yes" : "NO");
  std::printf("  2-shard+merge: %.3fs  %.2f patterns/s  merge_identical=%s\n", s_shard,
              m / s_shard, merge_identical ? "yes" : "NO");
  std::printf("  -> %s\n", out_path.c_str());

  for (const std::string& path : {single_path, multi_path, shard_path}) {
    std::filesystem::remove(path);
  }
  for (int i = 0; i < 2; ++i) {
    std::filesystem::remove(runtime::shard_part_path(shard_path, i, 2));
    std::filesystem::remove(runtime::shard_manifest_path(shard_path, i, 2));
  }
  if (!workers_identical || !merge_identical) {
    std::cerr << "FAIL: datagen output bytes differ between runs\n";
    return 1;
  }
  return 0;
}
