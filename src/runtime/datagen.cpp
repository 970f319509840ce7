#include "runtime/datagen.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "obs/log.hpp"
#include "runtime/task_queue.hpp"
#include "solver/direct.hpp"

namespace maps::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct WorkItem {
  int phase = 0;
  std::size_t pos = 0;
};

void validate_phases(const std::vector<DatagenPhase>& phases) {
  maps::require(!phases.empty(), "datagen: at least one phase required");
  for (const auto& ph : phases) {
    maps::require(ph.device != nullptr && ph.patterns != nullptr,
                  "datagen: phase device/patterns must be set");
    maps::require(ph.patterns->densities.size() == ph.patterns->ids.size(),
                  "datagen: pattern/ids mismatch");
  }
}

/// Factor-memory clamp of the in-flight window (see
/// DatagenOptions::memory_budget_mb). The estimate is the worst
/// (largest-grid) phase: any window slot may factorize any phase.
std::size_t window_size(const std::vector<DatagenPhase>& phases,
                        const DatagenOptions& opts, std::size_t workers) {
  const std::size_t window = workers + 2;
  if (opts.memory_budget_mb == 0) return window;
  std::size_t per_pattern = 0;
  for (const auto& ph : phases) {
    per_pattern = std::max(per_pattern,
                           solver::DirectBandedBackend::estimate_factor_bytes(
                               ph.device->spec, ph.device->sim_options.precision));
  }
  if (per_pattern == 0) return window;
  const std::size_t budget_bytes = opts.memory_budget_mb * (std::size_t{1} << 20);
  const std::size_t cap = std::max<std::size_t>(1, budget_bytes / per_pattern);
  if (cap >= window) return window;
  if (opts.log != nullptr) {
    obs::log_to(opts.log, obs::LogLevel::Info, "datagen",
                "memory budget " + std::to_string(opts.memory_budget_mb) +
                    " MB caps in-flight window at " + std::to_string(cap) + " (est. " +
                    std::to_string(per_pattern >> 20) + " MB/pattern)");
  }
  return cap;
}

/// Runs every item as one simulate_pattern task on a TaskQueue, keeping at
/// most window_size() tasks in flight, and hands each item's records to
/// `commit` on the calling thread, strictly in item order.
void run_pipeline(
    const std::vector<DatagenPhase>& phases, const std::vector<WorkItem>& items,
    const DatagenOptions& opts, DatagenStats& stats,
    const std::function<void(const WorkItem&, std::vector<data::SampleRecord>&&)>&
        commit) {
  struct Simulated {
    std::vector<data::SampleRecord> records;
    solver::SolverStats work;
  };
  const auto t_start = Clock::now();

  TaskQueue queue(opts.workers);
  const std::size_t window = window_size(phases, opts, queue.worker_count());
  std::deque<Future<Simulated>> inflight;  // items[done], items[done + 1], ...
  std::size_t next = 0;
  auto t_last_progress = t_start;

  for (std::size_t done = 0; done < items.size();) {
    while (next < items.size() && inflight.size() < window) {
      const WorkItem w = items[next++];
      const DatagenPhase& ph = phases[static_cast<std::size_t>(w.phase)];
      inflight.push_back(queue.submit([&ph, w] {
        Simulated sim;
        sim.records = data::simulate_pattern(*ph.device, ph.patterns->densities[w.pos],
                                             ph.patterns->ids[w.pos],
                                             ph.patterns->strategy, &sim.work);
        for (auto& r : sim.records) r.fidelity = ph.fidelity_tag;
        return sim;
      }));
    }

    Simulated sim = inflight.front().get();  // blocks; rethrows task failures
    inflight.pop_front();
    stats.samples += sim.records.size();
    stats.factorizations += sim.work.factorizations;
    stats.solves += sim.work.solves;
    stats.refine_iterations += sim.work.refine_iterations;
    stats.refine_fallbacks += sim.work.refine_fallbacks;
    commit(items[done], std::move(sim.records));
    ++stats.patterns;
    ++done;

    const auto now = Clock::now();
    stats.seconds = seconds_between(t_start, now);
    if (opts.log != nullptr && opts.progress_every_s > 0 &&
        seconds_between(t_last_progress, now) >= opts.progress_every_s &&
        done < items.size()) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%zu/%zu patterns | %.2f patterns/s | %.1f solves/s", done,
                    items.size(), stats.patterns_per_s(), stats.solves_per_s());
      obs::log_to(opts.log, obs::LogLevel::Info, "datagen", line);
      t_last_progress = now;
    }
    if (opts.after_pattern) opts.after_pattern(done);
  }

  stats.seconds = seconds_between(t_start, Clock::now());
}

}  // namespace

io::JsonValue DatagenStats::to_json() const {
  io::JsonValue v;
  v["patterns"] = static_cast<double>(patterns);
  v["skipped"] = static_cast<double>(skipped);
  v["samples"] = static_cast<double>(samples);
  v["factorizations"] = factorizations;
  v["solves"] = solves;
  v["refine_iterations"] = refine_iterations;
  v["refine_fallbacks"] = refine_fallbacks;
  v["seconds"] = seconds;
  v["patterns_per_s"] = patterns_per_s();
  v["solves_per_s"] = solves_per_s();
  return v;
}

data::Dataset generate_pipelined(const std::vector<DatagenPhase>& phases,
                                 const std::string& name, const DatagenOptions& opts,
                                 DatagenStats* stats_out) {
  validate_phases(phases);
  maps::require(opts.shard.single(),
                "generate_pipelined: sharded runs go through generate_sharded");

  // Phase-major sample layout.
  std::vector<std::size_t> phase_offset(phases.size(), 0);
  std::size_t total = 0;
  std::vector<WorkItem> items;
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    phase_offset[ph] = total;
    const std::size_t m = phases[ph].patterns->densities.size();
    total += m * phases[ph].device->excitations.size();
    for (std::size_t p = 0; p < m; ++p) {
      items.push_back({static_cast<int>(ph), p});
    }
  }

  data::Dataset ds;
  ds.name = name;
  ds.samples.resize(total);
  DatagenStats stats;
  run_pipeline(phases, items, opts, stats,
               [&](const WorkItem& w, std::vector<data::SampleRecord>&& records) {
                 const std::size_t n_exc = records.size();  // one per excitation
                 const std::size_t base =
                     phase_offset[static_cast<std::size_t>(w.phase)] + w.pos * n_exc;
                 for (std::size_t e = 0; e < n_exc; ++e) {
                   ds.samples[base + e] = std::move(records[e]);
                 }
               });
  if (stats_out != nullptr) *stats_out = stats;
  return ds;
}

DatagenStats generate_sharded(const std::vector<DatagenPhase>& phases,
                              const std::string& name, const std::string& output,
                              const DatagenOptions& opts) {
  namespace fs = std::filesystem;
  validate_phases(phases);
  opts.shard.validate();

  const std::size_t m = phases.front().patterns->densities.size();
  const std::size_t n_exc = phases.front().device->excitations.size();
  for (const auto& ph : phases) {
    maps::require(ph.patterns->densities.size() == m &&
                      ph.device->excitations.size() == n_exc,
                  "generate_sharded: phases must share pattern and excitation counts");
  }

  const std::string part_path =
      shard_part_path(output, opts.shard.index, opts.shard.count);
  const std::string manifest_path =
      shard_manifest_path(output, opts.shard.index, opts.shard.count);
  const std::string journal_path =
      shard_journal_path(output, opts.shard.index, opts.shard.count);

  // Start fresh, or adopt the committed prefix of a previous (killed) run.
  ShardManifest manifest;
  bool fresh = true;
  if (opts.resume && fs::exists(manifest_path)) {
    manifest = ShardManifest::load(manifest_path);
    // Commits since the last compaction live in the append-only journal
    // (one flushed line per pattern block; a torn trailing line is dropped).
    manifest.absorb_journal(journal_path);
    maps::require(manifest.dataset_name == name && manifest.shard_index == opts.shard.index &&
                      manifest.shard_count == opts.shard.count &&
                      manifest.patterns_total == m &&
                      manifest.samples_per_pattern == n_exc &&
                      manifest.phases == static_cast<int>(phases.size()),
                  "generate_sharded: resume manifest does not match this job (" +
                      manifest_path + ")");
    const std::uint64_t committed = manifest.committed_bytes();
    if (committed > 0) {
      maps::require(fs::exists(part_path),
                    "generate_sharded: manifest found but shard part file missing: " +
                        part_path);
      const std::uint64_t actual = fs::file_size(part_path);
      maps::require(actual >= committed,
                    "generate_sharded: shard part file shorter than its manifest: " +
                        part_path);
      // Drop a partial trailing write from the killed run.
      if (actual > committed) fs::resize_file(part_path, committed);
    }
    fresh = false;
  }
  if (fresh) {
    manifest = ShardManifest{};
    manifest.dataset_name = name;
    manifest.shard_index = opts.shard.index;
    manifest.shard_count = opts.shard.count;
    manifest.patterns_total = m;
    manifest.samples_per_pattern = n_exc;
    manifest.phases = static_cast<int>(phases.size());
    // A journal from an unrelated earlier run at this path must not leak
    // into the fresh manifest.
    std::remove(journal_path.c_str());
  }

  DatagenStats stats;
  // O(1) committed lookups: resume startup must stay linear in the shard's
  // pattern count.
  std::set<std::pair<int, std::uint64_t>> committed;
  for (const auto& e : manifest.completed) committed.insert({e.phase, e.pattern});
  std::vector<WorkItem> items;
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    for (const std::size_t p : opts.shard.owned(m)) {
      if (committed.count({static_cast<int>(ph), static_cast<std::uint64_t>(p)})) {
        ++stats.skipped;
      } else {
        items.push_back({static_cast<int>(ph), p});
      }
    }
  }

  if (manifest.done && items.empty()) {
    if (opts.log != nullptr) {
      obs::log_to(opts.log, obs::LogLevel::Info, "datagen",
                  "shard " + std::to_string(opts.shard.index) + "/" +
                      std::to_string(opts.shard.count) + " already complete (" +
                      std::to_string(stats.skipped) +
                      " pattern blocks committed)");
    }
    return stats;
  }

  std::ofstream part(part_path,
                     fresh ? std::ios::binary | std::ios::trunc
                           : std::ios::binary | std::ios::app);
  maps::require(part.good(), "generate_sharded: cannot open " + part_path);

  // Commit protocol: the base manifest is rewritten atomically only at
  // open/resume/close (compaction points); each per-pattern commit appends
  // one flushed journal line. That keeps the whole run O(n) in shard size —
  // the old rewrite-the-manifest-per-commit protocol was O(n^2) — while the
  // crash guarantee is unchanged: manifest + complete journal lines describe
  // exactly the committed prefix, and a torn trailing line loses at most the
  // in-flight pattern.
  ShardJournal journal(journal_path);
  journal.compact(manifest, manifest_path);

  run_pipeline(phases, items, opts, stats,
               [&](const WorkItem& w, std::vector<data::SampleRecord>&& records) {
                 for (const auto& r : records) data::write_sample(part, r);
                 part.flush();
                 maps::require(part.good(),
                               "generate_sharded: write failed for " + part_path);
                 ShardManifest::Entry e;
                 e.phase = w.phase;
                 e.pattern = w.pos;
                 e.bytes = static_cast<std::uint64_t>(part.tellp());
                 manifest.completed.push_back(e);
                 journal.append(e);
               });

  manifest.done = true;
  journal.compact(manifest, manifest_path);
  journal.close();
  std::remove(journal_path.c_str());
  if (opts.log != nullptr) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "shard %d/%d done: %zu pattern blocks (%zu resumed) | "
                  "%.2f patterns/s | %.1f solves/s",
                  opts.shard.index, opts.shard.count, stats.patterns, stats.skipped,
                  stats.patterns_per_s(), stats.solves_per_s());
    obs::log_to(opts.log, obs::LogLevel::Info, "datagen", line);
  }
  return stats;
}

int detect_shard_count(const std::string& output) {
  namespace fs = std::filesystem;
  const fs::path out(output);
  const fs::path dir = out.parent_path().empty() ? fs::path(".") : out.parent_path();
  const std::string prefix = out.filename().string() + ".shard-0-of-";
  const std::string suffix = ".manifest.json";
  if (!fs::exists(dir)) return 0;
  std::set<int> candidates;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string count_str =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    try {
      const int count = std::stoi(count_str);
      if (count >= 1 && std::to_string(count) == count_str) candidates.insert(count);
    } catch (const std::exception&) {
      continue;
    }
  }
  if (candidates.empty()) return 0;
  // Stale manifests from a differently-sharded earlier run make the answer
  // ambiguous; refusing beats silently merging the old data.
  maps::require(candidates.size() == 1,
                "detect_shard_count: manifests for multiple shard counts exist "
                "next to " + output +
                    " — set shard_count in the config or remove the stale "
                    ".shard-*.manifest.json files");
  return *candidates.begin();
}

bool all_shards_done(const std::string& output, int shard_count) {
  for (int i = 0; i < shard_count; ++i) {
    const std::string path = shard_manifest_path(output, i, shard_count);
    if (!std::filesystem::exists(path)) return false;
    try {
      if (!ShardManifest::load(path).done) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

data::Dataset merge_shards(const std::string& output, int shard_count,
                           bool write_output) {
  maps::require(shard_count >= 1, "merge_shards: shard count must be >= 1");

  std::vector<ShardManifest> manifests;
  for (int i = 0; i < shard_count; ++i) {
    const std::string path = shard_manifest_path(output, i, shard_count);
    maps::require(std::filesystem::exists(path),
                  "merge_shards: missing shard manifest " + path);
    manifests.push_back(ShardManifest::load(path));
    const auto& mf = manifests.back();
    maps::require(mf.done, "merge_shards: shard " + std::to_string(i) +
                               " is not finished (" + path + ")");
    maps::require(mf.shard_index == i && mf.shard_count == shard_count,
                  "merge_shards: manifest identity mismatch in " + path);
    maps::require(mf.dataset_name == manifests.front().dataset_name &&
                      mf.patterns_total == manifests.front().patterns_total &&
                      mf.samples_per_pattern == manifests.front().samples_per_pattern &&
                      mf.phases == manifests.front().phases,
                  "merge_shards: shards describe different datasets");
  }

  const std::uint64_t m = manifests.front().patterns_total;
  const std::uint64_t spp = manifests.front().samples_per_pattern;
  const int phases = manifests.front().phases;
  std::uint64_t part_bytes = 0;
  for (int i = 0; i < shard_count; ++i) {
    const std::string path = shard_part_path(output, i, shard_count);
    std::error_code ec;
    const std::uint64_t size = std::filesystem::file_size(path, ec);
    maps::require(!ec, "merge_shards: cannot open " + path);
    part_bytes += size;
  }
  // The counts come from files: size nothing before the part files are known
  // to hold that many samples (each takes well over one byte). Comparing by
  // division keeps the product m * spp * phases from wrapping.
  maps::require(spp == 0 || m <= part_bytes / spp / static_cast<std::uint64_t>(phases),
                "merge_shards: manifests claim " + std::to_string(m) + " x " +
                    std::to_string(spp) + " x " + std::to_string(phases) +
                    " samples but the part files hold " + std::to_string(part_bytes) +
                    " bytes");
  const auto total =
      static_cast<std::size_t>(m * spp * static_cast<std::uint64_t>(phases));

  data::Dataset ds;
  ds.name = manifests.front().dataset_name;
  ds.samples.resize(total);
  std::vector<bool> filled(total, false);

  for (int i = 0; i < shard_count; ++i) {
    const std::string path = shard_part_path(output, i, shard_count);
    std::ifstream is(path, std::ios::binary);
    maps::require(is.good(), "merge_shards: cannot open " + path);
    for (const auto& entry : manifests[static_cast<std::size_t>(i)].completed) {
      maps::require(entry.phase >= 0 && entry.phase < phases && entry.pattern < m,
                    "merge_shards: manifest entry out of range in shard " +
                        std::to_string(i));
      const std::size_t base = static_cast<std::size_t>(entry.phase) *
                                   static_cast<std::size_t>(m * spp) +
                               static_cast<std::size_t>(entry.pattern * spp);
      for (std::uint64_t e = 0; e < spp; ++e) {
        maps::require(!filled[base + e],
                      "merge_shards: duplicate pattern across shards");
        ds.samples[base + e] = data::read_sample(is);
        filled[base + e] = true;
      }
    }
  }
  for (std::size_t k = 0; k < total; ++k) {
    maps::require(filled[k], "merge_shards: dataset has holes — are all shards run "
                             "with the same pattern set and shard count?");
  }

  if (write_output) {
    // Write-then-rename: concurrent mergers (two shards finishing at once
    // both observing all_shards_done) each produce identical bytes and the
    // atomic rename makes one of them the winner — never a torn output.
    const std::string tmp =
        output + ".merge-tmp." + std::to_string(::getpid());
    ds.save(tmp);
    if (std::rename(tmp.c_str(), output.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw MapsError("merge_shards: rename to " + output + " failed");
    }
  }
  return ds;
}

}  // namespace maps::runtime
