// Dataset generation on a TaskQueue: one task per pattern, sharded and
// resumable.
//
// Work item: one (phase, pattern position). Phases are fidelity passes over
// the same pattern lineup (one phase for a plain dataset, low+high for
// multi-fidelity pairs). Each item is one TaskQueue task that calls
// data::simulate_pattern: render -> assemble_banded_t -> LDL^T factorize ->
// batched forward + adjoint solves -> labels. The task frees its factors
// before it returns, so a finished pattern waiting to commit holds only its
// records.
//
// The calling thread keeps a bounded window of workers + 2 tasks in flight
// and commits finished patterns strictly in item order: an in-order scatter
// into the Dataset, or an append to the shard .part file plus one journal
// line. Output bytes therefore do not depend on the worker count or on which
// task finishes first.
//
// Sharding: ShardPlan round-robins positions; each shard writes
// `<output>.shard-i-of-N.part` plus a manifest of committed (phase, pattern)
// blocks (resume skips those), and merge_shards reassembles the global order
// into a file byte-identical to a single-process run.
#pragma once

#include <functional>
#include <iosfwd>
#include <vector>

#include "core/data/generator.hpp"
#include "runtime/shard.hpp"

namespace maps::runtime {

/// One fidelity pass: device + its pattern set + the fidelity tag stamped
/// onto the records (1 = base resolution).
struct DatagenPhase {
  const devices::DeviceProblem* device = nullptr;
  const data::PatternSet* patterns = nullptr;
  int fidelity_tag = 1;
};

struct DatagenOptions {
  ShardPlan shard;                 // {0, 1} = the whole job
  bool resume = false;             // skip manifest-committed patterns
  std::size_t workers = 0;         // task workers; 0 = math::num_threads()
  /// Soft cap (MB) on the factor memory the in-flight window may hold at
  /// once. When set, the window of workers + 2 tasks is clamped down so that
  /// window * per-pattern factor-byte estimate
  /// (solver::DirectBandedBackend::estimate_factor_bytes over the largest
  /// phase grid) stays within the budget — large grids stop over-committing
  /// memory. Never clamps below 1; 0 disables.
  std::size_t memory_budget_mb = 0;
  double progress_every_s = 10.0;  // throughput log cadence; <= 0 disables
  std::ostream* log = nullptr;
  /// Test hook, called after each pattern commits (argument: patterns
  /// completed so far this run). An exception thrown here aborts the run
  /// exactly like a kill — the manifest keeps the committed prefix.
  std::function<void(std::size_t)> after_pattern;
};

/// Counters are in per-phase pattern blocks — the run's work item. A
/// single-fidelity run has one block per pattern; a multi-fidelity pattern
/// counts once per fidelity phase (so patterns_per_s compares like-for-like
/// only across runs with the same phase count).
struct DatagenStats {
  std::size_t patterns = 0;   // blocks simulated this run (excludes skipped)
  std::size_t skipped = 0;    // resume: blocks already committed
  std::size_t samples = 0;
  int factorizations = 0;
  int solves = 0;
  /// Mixed-precision solve accounting (both 0 under double precision):
  /// refinement steps taken and double-factorization fallbacks triggered.
  int refine_iterations = 0;
  int refine_fallbacks = 0;
  double seconds = 0.0;

  double patterns_per_s() const { return seconds > 0 ? patterns / seconds : 0.0; }
  double solves_per_s() const { return seconds > 0 ? solves / seconds : 0.0; }
  io::JsonValue to_json() const;
};

/// In-memory generation of all phases (no files): rejects a non-single
/// opts.shard and ignores opts.resume. Sample order is phase-major,
/// pattern-ascending, excitation order.
data::Dataset generate_pipelined(const std::vector<DatagenPhase>& phases,
                                 const std::string& name,
                                 const DatagenOptions& opts = {},
                                 DatagenStats* stats_out = nullptr);

/// File-backed generation of opts.shard's slice: appends each pattern to the
/// .part file and one line to the shard journal, rewrites the manifest at
/// open, resume and close, and honours opts.resume. All phases must share
/// the pattern count and excitation count.
DatagenStats generate_sharded(const std::vector<DatagenPhase>& phases,
                              const std::string& name, const std::string& output,
                              const DatagenOptions& opts = {});

/// True when every shard's manifest exists and reports done.
bool all_shards_done(const std::string& output, int shard_count);

/// Infer the shard count of `output` from the manifest files next to it
/// (shard 0's manifest names the count). Returns 0 when no shard manifests
/// exist — e.g. the run was launched with --shard flags the config file
/// never saw.
int detect_shard_count(const std::string& output);

/// Reassemble `shard_count` completed shards of `output` into the full
/// dataset (byte-identical to a single-process run when saved). Throws
/// MapsError if a shard is missing, unfinished, or inconsistent, or if its
/// manifests claim more samples than the part files can hold. Writes
/// `output` when `write_output`; always returns the merged dataset.
data::Dataset merge_shards(const std::string& output, int shard_count,
                           bool write_output = true);

}  // namespace maps::runtime
