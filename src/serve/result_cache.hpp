// ResultCache: one LRU over finished predictions.
//
// Serving traffic is repetitive — wavelength sweeps re-query the same
// pattern, design loops revisit candidate structures, dashboards re-fetch —
// so a finished prediction is worth keeping. Entries are keyed on the full
// query identity: a digest of the pattern (eps bytes + source bytes + grid
// shape + pml), the frequency, the requested fidelity, and the model version
// that answered (solver answers use version 0: exact results survive model
// hot-swaps). One mutex guards one LRU list, so the cache holds exactly
// `capacity` entries whatever the keys hash to; a lookup holds the lock for
// a hash probe and a list splice.
#pragma once

#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "math/field2d.hpp"

namespace maps::serve {

struct QueryKey {
  std::uint64_t pattern_digest = 0;  // eps + source + geometry
  double omega = 0.0;
  int fidelity = 0;       // solver::FidelityLevel as int
  int model_version = 0;  // 0 for solver-grade entries

  /// Equality compares omega's bit pattern, matching QueryKeyHash, so keys
  /// that differ only as +0.0 vs -0.0 (equal as doubles, distinct bits)
  /// cannot share a map slot while hashing apart.
  bool operator==(const QueryKey& o) const {
    return pattern_digest == o.pattern_digest &&
           std::bit_cast<std::uint64_t>(omega) ==
               std::bit_cast<std::uint64_t>(o.omega) &&
           fidelity == o.fidelity && model_version == o.model_version;
  }
};

struct QueryKeyHash {
  std::size_t operator()(const QueryKey& k) const;
};

/// What the cache stores: the answer plus how it was produced, so a cache
/// hit can report the original source ("surrogate" vs "solver").
struct CachedResult {
  maps::math::CplxGrid Ez;
  bool solver_grade = false;  // produced by (or escalated to) the solver path
};

struct ResultCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;

  double hit_rate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class ResultCache {
 public:
  /// `capacity` entries; 0 disables the cache: lookups miss without
  /// counting and insertions drop.
  explicit ResultCache(std::size_t capacity = 1024) : capacity_(capacity) {}

  /// nullptr on miss; refreshes LRU position on hit.
  std::shared_ptr<const CachedResult> get(const QueryKey& key);

  /// Insert (or refresh) an entry, evicting the least recently used entry
  /// past capacity.
  void put(const QueryKey& key, std::shared_ptr<const CachedResult> value);

  bool enabled() const { return capacity_ > 0; }
  ResultCacheStats stats() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<std::pair<QueryKey, std::shared_ptr<const CachedResult>>> lru_;
  std::unordered_map<QueryKey, decltype(lru_)::iterator, QueryKeyHash> index_;
  std::size_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace maps::serve
