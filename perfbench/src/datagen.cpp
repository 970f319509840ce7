// datagen_offline: MAPS-Data's hot loop, in process.
//
// Set-up (repeated; setup_s is the median) builds the bend device exactly as
// `maps_cli run` datagen does and samples a pool of seeded random patterns.
// The timed window runs back-to-back runtime::generate_sharded jobs of
// kPatternsPerJob patterns each (1 shard, workers = nproc, a fresh output
// path per job) until --seconds of job time have elapsed; each job's output
// is reloaded and checked between jobs, outside the timed sum. The traced run
// adds commit timestamps from DatagenOptions::after_pattern and replays a
// pattern subset through fdfd::assemble_banded_t,
// solver::DirectBandedBackend and runtime::ShardJournal::append.
#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "devices/builders.hpp"
#include "fdfd/assembler.hpp"
#include "io/config.hpp"
#include "obs/metrics.hpp"
#include "param/pipeline.hpp"
#include "runtime/datagen.hpp"
#include "solver/direct.hpp"

namespace perfbench {
namespace {

constexpr int kPatternsPerJob = 12;
constexpr int kPoolJobs = 4;        // distinct pattern subsets rotated through
constexpr double kLimitMs = 1500.0; // per-job latency limit behind slo_share
// Tail percentile by the ladder rule at the design job count (~270 jobs
// in 20 s on 4 cores; p95 needs 200).
constexpr double kTailQ = 0.95;
constexpr int kReplayPatterns = 4;
constexpr int kReplayAppends = 256;

data::PatternSet subset(const data::PatternSet& pool, std::size_t job) {
  data::PatternSet s;
  s.strategy = pool.strategy;
  const std::size_t first = (job % kPoolJobs) * kPatternsPerJob;
  for (std::size_t k = first; k < first + kPatternsPerJob; ++k) {
    s.densities.push_back(pool.densities[k]);
    s.ids.push_back(pool.ids[k]);
  }
  return s;
}

bool finite_grid(const math::CplxGrid& g) {
  for (index_t n = 0; n < g.size(); ++n) {
    if (!std::isfinite(g[n].real()) || !std::isfinite(g[n].imag())) return false;
  }
  return true;
}

bool finite_grid(const math::RealGrid& g) {
  for (index_t n = 0; n < g.size(); ++n) {
    if (!std::isfinite(g[n])) return false;
  }
  return true;
}

/// Sum of every registered serve./jobs. metric (the isolation probe).
double serve_activity() {
  double total = 0.0;
  auto& reg = obs::registry();
  const auto ours = [](const std::string& name) {
    return name.rfind("serve.", 0) == 0 || name.rfind("jobs.", 0) == 0 ||
           name.rfind("net.", 0) == 0 || name.rfind("io.", 0) == 0;
  };
  reg.visit_counters([&](const std::string& n, const obs::Counter& c) {
    if (ours(n)) total += static_cast<double>(c.value());
  });
  reg.visit_histograms([&](const std::string& n, const obs::Histogram& h) {
    if (ours(n)) total += static_cast<double>(h.snapshot().count);
  });
  return total;
}

}  // namespace

int run_datagen(const RunContext& ctx, RunResult& out) {
  io::JsonValue cfg_doc;
  cfg_doc["device"] = "bending";
  cfg_doc["strategy"] = "random";
  cfg_doc["num_patterns"] = kPatternsPerJob * kPoolJobs;
  cfg_doc["seed"] = static_cast<int>(ctx.seed % 1000000007ull);
  const io::DataGenConfig config = io::DataGenConfig::from_json(cfg_doc);

  const std::string name = std::string(devices::device_name(config.device)) + "/random";
  const auto options = [&ctx]() {
    runtime::DatagenOptions opts;
    opts.workers = static_cast<std::size_t>(ctx.nproc);
    opts.progress_every_s = 0.0;
    return opts;
  };

  // ---- set-up, repeated: device build, pattern sampling and one warm-up
  // job (thread start-up and first-touch costs stay out of the timed jobs).
  std::vector<double> setup_s;
  devices::DeviceProblem device;
  data::PatternSet pool;
  for (int attempt = 0; more_setup(attempt, std::accumulate(setup_s.begin(), setup_s.end(), 0.0)); ++attempt) {
    const double t0 = now_ms();
    devices::BuildOptions build;
    build.fidelity = config.fidelity;
    device = devices::make_device(config.device, build);
    io::apply_solver_settings(device, config.solver);
    pool = data::sample_patterns(device, config.device, config.sampler);
    if (pool.densities.size() < static_cast<std::size_t>(kPatternsPerJob * kPoolJobs)) {
      throw std::runtime_error("sampler produced too few patterns");
    }
    const data::PatternSet warm = subset(pool, 0);
    const std::string dir = ctx.workdir + "/warm" + std::to_string(attempt);
    std::filesystem::create_directories(dir);
    runtime::generate_sharded({{&device, &warm, 1}}, name, dir + "/data.mapsd", options());
    std::filesystem::remove_all(dir);
    setup_s.push_back((now_ms() - t0) / 1000.0);
  }
  std::uint64_t digest = 1469598103934665603ull;
  for (const auto& d : pool.densities) {
    digest = fnv1a(d.data().data(), d.data().size() * sizeof(double), digest);
  }
  out.input_digest = hex64(digest);
  out.e2e["setup_s"] = median(setup_s);
  const std::size_t excitations = device.excitations.size();
  const double activity_before = serve_activity();

  // ---- timed jobs.
  std::vector<double> job_ms, job_rate, untraced_ms, traced_ms, commit_intervals;
  std::size_t patterns_done = 0, part_bytes = 0;
  int factorizations = 0, solves = 0, refine_iters = 0, refine_fallbacks = 0;
  const auto cache_before = device.solver_cache ? device.solver_cache->stats() : solver::CacheStats{};
  double timed_ms = 0.0;
  for (std::size_t job = 0; timed_ms < ctx.seconds * 1000.0; ++job) {
    const data::PatternSet patterns = subset(pool, job);
    const std::vector<runtime::DatagenPhase> phases = {{&device, &patterns, 1}};
    const std::string dir = ctx.workdir + "/job" + std::to_string(job);
    std::filesystem::create_directories(dir);
    const std::string output = dir + "/data.mapsd";
    runtime::DatagenOptions opts = options();
    // The traced run timestamps every other job's commits (half untraced
    // for the overhead ratio).
    const bool traced = ctx.trace && job % 2 == 1;
    std::vector<double> commits;
    if (traced) {
      commits.reserve(kPatternsPerJob);
      opts.after_pattern = [&commits](std::size_t) { commits.push_back(now_ms()); };
    }
    const double t0 = now_ms();
    runtime::DatagenStats stats;
    bool ok = true;
    std::string problem;
    try {
      stats = runtime::generate_sharded(phases, name, output, opts);
    } catch (const std::exception& e) {
      ok = false;
      problem = e.what();
    }
    const double ms = now_ms() - t0;
    timed_ms += ms;
    out.attempted += kPatternsPerJob;
    // Output check (outside the timed sum): reload and inspect every label.
    if (ok) {
      try {
        const data::Dataset ds = runtime::merge_shards(output, 1, false);
        if (ds.size() != kPatternsPerJob * excitations) {
          problem = "reloaded " + std::to_string(ds.size()) + " samples, expected " +
                    std::to_string(kPatternsPerJob * excitations);
        }
        for (const auto& s : ds.samples) {
          if (!finite_grid(s.Ez) || !finite_grid(s.lambda_fwd) || !finite_grid(s.grad_eps) ||
              !std::isfinite(s.fom)) {
            problem = "non-finite label in reloaded dataset";
            break;
          }
        }
      } catch (const std::exception& e) {
        problem = std::string("reload failed: ") + e.what();
      }
      ok = problem.empty();
    }
    if (!ok) {
      out.failed += kPatternsPerJob;
      out.check(false, "datagen job " + std::to_string(job) + ": " + problem);
      std::filesystem::remove_all(dir);
      continue;
    }
    patterns_done += stats.patterns;
    factorizations += stats.factorizations;
    solves += stats.solves;
    refine_iters += stats.refine_iterations;
    refine_fallbacks += stats.refine_fallbacks;
    job_ms.push_back(ms);
    job_rate.push_back(static_cast<double>(stats.patterns) / (ms / 1000.0));
    (traced ? traced_ms : untraced_ms).push_back(ms);
    part_bytes += static_cast<std::size_t>(
        std::filesystem::file_size(runtime::shard_part_path(output, 0, 1)));
    double prev = t0;
    for (const double t : commits) {
      commit_intervals.push_back(t - prev);
      prev = t;
    }
    std::filesystem::remove_all(dir);
  }

  const double tail_q = kTailQ;
  std::size_t within = 0;
  for (const double ms : job_ms) within += ms <= kLimitMs;
  const std::size_t jobs = job_ms.size() + out.failed / kPatternsPerJob;
  out.e2e["peak_rss_mb"] = self_peak_rss_mb();
  out.e2e["ok_share"] = static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted);
  out.e2e["latency_p50_ms"] = median(job_ms);
  out.e2e["latency_tail_ms"] = quantile(job_ms, tail_q);
  out.e2e["slo_share"] = static_cast<double>(within) / static_cast<double>(std::max<std::size_t>(1, jobs));
  // Median over jobs: a momentary host stall moves one job, not the result.
  out.e2e["throughput_per_s"] = median(job_rate);
  out.note("datagen: " + std::to_string(jobs) + " jobs x " + std::to_string(kPatternsPerJob) +
           " bend patterns, workers " + std::to_string(ctx.nproc) + ": " +
           fmt(out.e2e["throughput_per_s"]) + " patterns/s (datagen_patterns_per_s)");
  out.note("job latency p50 " + fmt(out.e2e["latency_p50_ms"]) + " ms, " + quantile_label(tail_q) +
           " " + fmt(out.e2e["latency_tail_ms"]) + " ms over " + std::to_string(job_ms.size()) +
           " jobs; within " + fmt(kLimitMs) + " ms: " + fmt(out.e2e["slo_share"]));
  out.note("setup (device build + pattern sampling + warm-up job) x" + std::to_string(kSetupRepeats) +
           ": median " + fmt(out.e2e["setup_s"]) + " s");
  if (!ctx.trace) return 0;

  // ---- traced run: per-layer metrics.
  auto& L = out.layer;
  const double activity = serve_activity() - activity_before;
  out.check(activity == 0.0, "isolation: serve/net/io/jobs metrics moved during datagen");
  L["solver.factorizations"] = factorizations;
  L["solver.solves"] = solves;
  L["solver.refine_iterations"] = refine_iters;
  L["solver.refine_fallbacks"] = refine_fallbacks;
  if (device.solver_cache) {
    const auto c = device.solver_cache->stats();
    const double hits = static_cast<double>(c.hits - cache_before.hits);
    const double total = hits + static_cast<double>(c.misses - cache_before.misses);
    L["solver.factor_cache_hit_ratio"] = total > 0 ? hits / total : 0.0;
  }
  L["runtime.commit_interval_ms.p50"] = median(commit_intervals);
  L["runtime.commit_interval_ms.p99"] = quantile(commit_intervals, 0.99);
  L["runtime.shard_bytes_per_pattern"] =
      patterns_done ? static_cast<double>(part_bytes) / static_cast<double>(patterns_done) : 0.0;

  // Replay a subset through the layers' public entry points.
  const solver::SolverPrecision precision = device.sim_options.precision;
  std::vector<double> assemble, factorize, solve, stage;
  for (int k = 0; k < kReplayPatterns; ++k) {
    const math::RealGrid base = param::embed_density(device.design_map, pool.densities[static_cast<std::size_t>(k)]);
    double pattern_ms = 0.0;
    for (const auto& group : device.excitation_groups()) {
      const auto& first = device.excitations[group.front()];
      const math::RealGrid eps = device.excitation_eps(base, first);
      double t0 = now_ms();
      if (precision == solver::SolverPrecision::Mixed) {
        (void)fdfd::assemble_banded_t<float>(device.spec, eps, first.omega, device.sim_options.pml);
      } else {
        (void)fdfd::assemble_banded_t<double>(device.spec, eps, first.omega, device.sim_options.pml);
      }
      assemble.push_back(now_ms() - t0);
      t0 = now_ms();
      solver::DirectBandedBackend backend(device.spec, eps, first.omega, device.sim_options.pml,
                                          precision, device.sim_options.refinement);
      const double t1 = now_ms();
      backend.factorize();
      const double t2 = now_ms();
      std::vector<std::vector<cplx>> rhs;
      for (const std::size_t e : group) {
        rhs.push_back(fdfd::rhs_from_current(device.excitations[e].J, first.omega));
      }
      const auto fwd = backend.solve_batch(rhs);
      const auto adj = backend.solve_transposed_batch(rhs);
      const double t3 = now_ms();
      factorize.push_back(t2 - t1);
      solve.push_back((t3 - t2) / (2.0 * static_cast<double>(group.size())));
      pattern_ms += t3 - t0;
      if (fwd.size() != group.size() || adj.size() != group.size()) {
        out.check(false, "replayed solve returned the wrong batch size");
      }
    }
    stage.push_back(pattern_ms);
  }
  L["fdfd.assemble_ms.p50"] = median(assemble);
  L["solver.factorize_ms.p50"] = median(factorize);
  L["solver.solve_ms.p50"] = median(solve);
  L["solver.refine_ms.p50"] = 0.0;  // the replay's refinement is inside solve
  {
    const std::string jpath = ctx.workdir + "/replay.journal";
    std::vector<double> append_us;
    runtime::ShardJournal journal(jpath);
    for (int k = 0; k < kReplayAppends; ++k) {
      const double t0 = now_ms();
      journal.append(runtime::ShardManifest::Entry{0, static_cast<std::uint64_t>(k),
                                                   static_cast<std::uint64_t>(k) * 4096u});
      append_us.push_back((now_ms() - t0) * 1000.0);
    }
    journal.close();
    L["runtime.shard_append_us.p50"] = median(append_us);
  }
  const double stage_ms = median(stage);
  const double wall_ms = std::accumulate(job_ms.begin(), job_ms.end(), 0.0);
  L["runtime.pipeline_busy_share"] =
      wall_ms > 0 ? stage_ms * static_cast<double>(patterns_done) / (ctx.nproc * wall_ms) : 0.0;
  L["obs.trace_overhead"] = median(untraced_ms) > 0 ? median(traced_ms) / median(untraced_ms) : 0.0;
  L["unaccounted_share"] = std::max(0.0, 1.0 - L["runtime.pipeline_busy_share"]);
  return 0;
}

}  // namespace perfbench
