// maps_perfbench: the repository benchmark runner.
//
//   maps_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> [--commit <sha>] [--source-digest <hex>]
//   maps_perfbench --selftest <testdata dir>
//
// Prints a build/run stamp, one line per metric, and as the last stdout line
// the result object {"correct", "attempted", "failed", "metrics"}. Exits 0
// only when every output check passed and the run is valid.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_share", "share"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"slo_share", "share"},
    {"throughput_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"client.open.sent", "count"},
    {"client.open.ok", "count"},
    {"client.open.failed", "count"},
    {"client.closed.sent", "count"},
    {"client.closed.ok", "count"},
    {"client.closed.failed", "count"},
    {"client.sched_lag_p99_ms", "ms"},
    {"client.ttfb_ms.p50", "ms"},
    {"client.body_read_ms.p50", "ms"},
    {"net.req_bytes_mean", "bytes"},
    {"net.reply_bytes_mean", "bytes"},
    {"serve.ingress.parse_ms.p50", "ms"},
    {"io.json_parse_us.p50", "us"},
    {"io.json_parse_ns_per_number", "ns"},
    {"serve.wire.parse_request_us.p50", "us"},
    {"serve.wire.encode_us.p50", "us"},
    {"serve.wire.encode_ns_per_number", "ns"},
    {"serve.cache.hit_ratio", "share"},
    {"serve.cache.evictions", "count"},
    {"serve.cache.lookup_ms.p50", "ms"},
    {"serve.request.total_ms.p50", "ms"},
    {"serve.request.total_ms.p99", "ms"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.errors", "count"},
    {"serve.coalesced", "count"},
    {"serve.batch.queue_ms.p50", "ms"},
    {"serve.batch.queue_ms.p99", "ms"},
    {"serve.batch.avg_size", "count"},
    {"serve.batch.deadline_flush_share", "share"},
    {"serve.surrogate.forward_ms.p50", "ms"},
    {"serve.surrogate.forwards", "count"},
    {"nn.forward_ms_per_sample", "ms"},
    {"solver.factorize_ms.p50", "ms"},
    {"solver.solve_ms.p50", "ms"},
    {"solver.refine_ms.p50", "ms"},
    {"solver.factorizations", "count"},
    {"solver.solves", "count"},
    {"solver.refine_iterations", "count"},
    {"solver.refine_fallbacks", "count"},
    {"solver.factor_cache_hit_ratio", "share"},
    {"fdfd.assemble_ms.p50", "ms"},
    {"runtime.commit_interval_ms.p50", "ms"},
    {"runtime.commit_interval_ms.p99", "ms"},
    {"runtime.shard_append_us.p50", "us"},
    {"runtime.shard_bytes_per_pattern", "bytes"},
    {"runtime.pipeline_busy_share", "share"},
    {"jobs.step_ms.p50", "ms"},
    {"jobs.journal_bytes_per_step", "bytes"},
    {"jobs.journal_retries", "count"},
    {"invdes.step_ms.p50", "ms"},
    {"obs.trace_overhead", "ratio"},
    {"unaccounted_share", "share"},
};

std::string cli_path() { return PERFBENCH_CLI_PATH; }

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage() {
  std::cerr << "usage: maps_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--commit <sha>] [--source-digest <hex>]\n"
               "       maps_perfbench --selftest <testdata dir>\n";
  return 2;
}

}  // namespace

int main_impl(int argc, char** argv) {
  RunContext ctx;
  std::string commit = "unknown", source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--selftest") {
      const int failures = run_selftests(next());
      std::cout << "selftest: " << (failures == 0 ? "all passed" : std::to_string(failures) + " failed")
                << "\n";
      return failures == 0 ? 0 : 1;
    } else if (a == "--workload") {
      ctx.workload = next();
    } else if (a == "--seed") {
      ctx.seed = std::stoull(next());
    } else if (a == "--seconds") {
      ctx.seconds = std::stod(next());
    } else if (a == "--trace") {
      ctx.trace = next() == "1";
    } else if (a == "--workdir") {
      ctx.workdir = next();
    } else if (a == "--commit") {
      commit = next();
    } else if (a == "--source-digest") {
      source_digest = next();
    } else {
      return usage();
    }
  }
  if (ctx.workload.empty() || ctx.workdir.empty() || ctx.seconds <= 0.0) return usage();
  ctx.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::remove_all(ctx.workdir);
  std::filesystem::create_directories(ctx.workdir);

  RunResult res;
  int rc = 0;
  try {
    if (ctx.workload == "predict_hit_wire" || ctx.workload == "predict_miss_mixed") {
      rc = run_predict(ctx, res);
    } else if (ctx.workload == "datagen_offline") {
      rc = run_datagen(ctx, res);
    } else if (ctx.workload == "invdes_job") {
      rc = run_invdes(ctx, res);
    } else {
      std::cerr << "unknown workload '" << ctx.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << ctx.workload << " aborted: " << e.what() << "\n";
    std::filesystem::remove_all(ctx.workdir);
    return 1;
  }
  std::filesystem::remove_all(ctx.workdir);
  if (rc != 0) return rc;

  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    res.invalid.push_back(std::string("build type is ") + PERFBENCH_BUILD_TYPE + ", not Release");
  }
  const bool correct = res.check_failures.empty() && res.failed == 0;
  const bool valid = res.invalid.empty();

  std::cout << "stamp {\"commit\":\"" << json_escape(commit) << "\",\"source_digest\":\""
            << json_escape(source_digest) << "\",\"nproc\":" << ctx.nproc
            << ",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
            << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"flags\":\""
            << json_escape(PERFBENCH_FLAGS) << "\",\"maps_native\":"
            << (PERFBENCH_MAPS_NATIVE ? "true" : "false") << ",\"workload\":\""
            << ctx.workload << "\",\"seed\":" << ctx.seed << ",\"seconds\":"
            << json_number(ctx.seconds) << ",\"trace\":" << (ctx.trace ? 1 : 0)
            << ",\"input_digest\":\"" << res.input_digest << "\",\"valid\":"
            << (valid ? "true" : "false") << "}\n";
  for (const std::string& line : res.notes) std::cout << "  " << line << "\n";
  for (const std::string& f : res.check_failures) std::cout << "CHECK FAILED: " << f << "\n";
  for (const std::string& r : res.invalid) std::cout << "INVALID RUN: " << r << "\n";

  const auto& defs = ctx.trace ? kPerLayer : kEndToEnd;
  const auto& values = ctx.trace ? res.layer : res.e2e;
  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    double v = 0.0;
    if (it != values.end()) {
      v = it->second;
    } else if (!ctx.trace) {
      std::cerr << "perfbench: workload did not report " << d.name << "\n";
      return 1;
    }
    std::printf("  %-34s %16.6g %s\n", d.name, v, d.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + d.name + "\": {\"value\": " + json_number(v) +
               ", \"unit\": \"" + d.unit + "\"}";
  }
  std::fflush(stdout);
  std::cout << "{\"correct\": " << (correct && valid ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(1, res.attempted)
            << ", \"failed\": " << res.failed << ", \"metrics\": {" << metrics << "}}"
            << std::endl;
  if (!correct) return 1;
  if (!valid) return 3;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
