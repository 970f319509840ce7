// Horizontal sharding of dataset generation: deterministic partition,
// resumable shard files, byte-identical merge.
//
// A ShardPlan {index, count} round-robins pattern *positions* (0..M-1 in the
// sampled PatternSet) across shards; every shard derives the identical
// PatternSet (per-pattern RNG streams make patterns independent of position
// and shard), simulates only the positions it owns, and appends finished
// patterns to `<output>.shard-<i>-of-<N>.part` while committing progress to
// a JSON manifest. Killing a shard mid-run loses at most the in-flight
// pattern: on --resume the manifest says which (phase, pattern) blocks are
// committed and at which byte offset the last commit ended, so a partial
// trailing write is truncated away and only the missing patterns are
// re-simulated. merge_shards (datagen.hpp) reassembles the M-pattern global
// order and writes a file byte-identical to a single-process run.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "runtime/durable.hpp"

namespace maps::runtime {

struct ShardPlan {
  int index = 0;
  int count = 1;

  bool single() const { return count == 1; }
  bool owns(std::size_t pattern_pos) const {
    return static_cast<int>(pattern_pos % static_cast<std::size_t>(count)) == index;
  }
  /// Owned pattern positions among [0, total), ascending.
  std::vector<std::size_t> owned(std::size_t total) const;

  /// Parse "i/N" (0-based index). Throws MapsError on malformed specs.
  static ShardPlan parse(const std::string& spec);

  void validate() const;
};

/// File layout of one shard of `output`.
std::string shard_part_path(const std::string& output, int index, int count);
std::string shard_manifest_path(const std::string& output, int index, int count);
std::string shard_journal_path(const std::string& output, int index, int count);

/// Progress record of one shard: which (phase, pattern) blocks the .part
/// file contains, in file order, and the committed byte size after each.
struct ShardManifest {
  std::string dataset_name;
  int shard_index = 0;
  int shard_count = 1;
  std::uint64_t patterns_total = 0;      // M across all shards
  std::uint64_t samples_per_pattern = 0; // excitations per pattern per phase
  int phases = 1;                        // 1, or 2 for multi-fidelity pairs
  bool done = false;

  struct Entry {
    int phase = 0;
    std::uint64_t pattern = 0;   // global pattern position
    std::uint64_t bytes = 0;     // .part size after this block's commit
  };
  std::vector<Entry> completed;  // file order

  bool is_completed(int phase, std::uint64_t pattern) const;
  /// Committed byte size of the .part file (0 when nothing committed).
  std::uint64_t committed_bytes() const;

  io::JsonValue to_json() const;
  static ShardManifest from_json(const io::JsonValue& v);

  /// Atomic save (durable::atomic_write), plain load.
  void save(const std::string& path) const;
  static ShardManifest load(const std::string& path);

  /// Absorb the append-only commit journal next to this manifest: each valid
  /// line is one committed Entry appended after the manifest's own
  /// `completed` list. A torn trailing line (from a kill mid-append) is
  /// ignored — the crash guarantee is then exactly the pre-journal one: the
  /// last fully flushed commit wins. Returns the number of entries adopted.
  /// Missing journal file is fine (0).
  std::size_t absorb_journal(const std::string& journal_path);
};

/// Append-only journal of per-pattern commits. The full-manifest rewrite is
/// O(completed) per save, which made the per-pattern commit loop O(n^2) in
/// shard size; a journal line per commit keeps it O(n). The journal is only
/// meaningful next to the base manifest it extends: `compact` folds it back
/// into an atomically rewritten manifest (on open, resume and close) and
/// truncates it.
class ShardJournal {
 public:
  /// Open for appending (creates the file if absent).
  explicit ShardJournal(std::string path) : log_(std::move(path)) {}

  /// Append one committed entry as a single flushed JSON line.
  void append(const ShardManifest::Entry& e);

  /// Fold journaled state into `manifest` (assumed already absorbed), save
  /// the manifest atomically at `manifest_path`, and truncate the journal —
  /// after which the manifest alone is the full commit record again.
  void compact(const ShardManifest& manifest, const std::string& manifest_path);

  /// Close the append handle (the destructor also closes).
  void close() { log_.close(); }

 private:
  durable::LineLog log_;  // kept open across appends and compactions
};

}  // namespace maps::runtime
