// FactorizationCache: LRU reuse of prepared solver backends.
//
// Factorizing the banded FDFD operator dominates solve cost (O(N * bw^2));
// sweeps that revisit an identical operator — wavelength sweeps re-solving
// the same eps at a handful of omegas, robustness corner evaluations, the
// S-parameter pass after an inverse-design run — previously re-assembled and
// re-factorized from scratch each time. The cache keys a prepared backend on
// a digest of the full problem definition (eps bytes, grid, omega, PML spec,
// solver kind) and hands the same backend back on an exact match, so the
// second visit costs only back-substitution.
//
// Shared backends are safe across threads once prepared (factorize() is
// internally locked; solves are const over the factors). The cache itself is
// mutex-guarded.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>

#include "solver/backend.hpp"

namespace maps::solver {

/// Identity of one solve configuration. Two keys compare equal only when
/// every field matches; eps enters via a 64-bit FNV-1a digest of its bytes.
struct ProblemKey {
  std::uint64_t eps_digest = 0;
  index_t nx = 0, ny = 0;
  double dl = 0.0;
  double omega = 0.0;
  int pml_ncells = 0;
  double pml_m = 0.0;
  double pml_R0 = 0.0;
  SolverKind kind = SolverKind::Direct;
  int coarse_factor = 0;       // 0 unless kind == CoarseGrid
  double iter_rtol = 0.0;      // 0 unless kind == Iterative
  int iter_max_iters = 0;      // ditto
  bool iter_jacobi = false;    // ditto
  // Factor precision is latched at construction: a mixed-precision
  // (fp32 + refinement) backend must not answer a lookup asking for the
  // exact double path, and vice versa.
  SolverPrecision precision = SolverPrecision::Double;
  // Refinement tuning is part of a mixed backend's identity, mirroring how
  // BicgstabOptions tolerances are keyed for iterative backends: a backend
  // refined to a loose rtol must not answer a lookup asking for a tight one.
  double refine_rtol = 0.0;    // 0 unless precision == Mixed
  int refine_max_iters = 0;    // ditto

  bool operator==(const ProblemKey&) const = default;
};

std::uint64_t digest_grid(const maps::math::RealGrid& g);

ProblemKey make_problem_key(const grid::GridSpec& spec, const maps::math::RealGrid& eps,
                            double omega, const fdfd::PmlSpec& pml,
                            const SolverConfig& config);

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t factor_bytes = 0;  // resident prepared-state bytes (snapshot)

  double hit_rate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class FactorizationCache {
 public:
  explicit FactorizationCache(std::size_t capacity = 8);

  /// Return the cached backend for `key`, or build one with `make`, insert
  /// it (evicting the least recently used entry past capacity) and return it.
  std::shared_ptr<SolverBackend> get_or_create(
      const ProblemKey& key,
      const std::function<std::shared_ptr<SolverBackend>()>& make);

  /// Raise (or shrink, evicting LRU-first) the entry capacity.
  void set_capacity(std::size_t capacity);
  /// Memory-aware eviction: cap the total factor_bytes() held by cached
  /// backends (0 = unlimited). LRU entries are dropped until the survivors
  /// fit; the most recent entry always stays, so a single oversized
  /// factorization still caches. Byte and entry budgets compose — whichever
  /// is tighter wins. High-resolution sweeps (fidelity >= 2) hold factors an
  /// order of magnitude larger than the entry count anticipates, which is
  /// what a byte budget bounds.
  void set_capacity_bytes(std::size_t bytes);
  std::size_t capacity() const;
  std::size_t capacity_bytes() const;
  std::size_t size() const;
  /// Total prepared-state bytes across cached backends (grows as lazily
  /// factorized entries get prepared).
  std::size_t factor_bytes() const;
  CacheStats stats() const;
  /// Total LU factorizations performed by backends currently in the cache.
  int factorization_count() const;
  /// Total solves answered by backends currently in the cache.
  int solve_count() const;
  /// Total mixed-precision refinement iterations / double fallbacks across
  /// backends currently in the cache (0 everywhere under double precision).
  int refinement_iteration_count() const;
  int refinement_fallback_count() const;
  void clear();

 private:
  void evict_to_capacity_locked();
  std::size_t factor_bytes_locked() const;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::size_t capacity_bytes_ = 0;  // 0 = no byte budget
  // Front = most recently used.
  std::list<std::pair<ProblemKey, std::shared_ptr<SolverBackend>>> entries_;
  CacheStats stats_;
};

/// Backend lookup through an optional cache: with `cache` null this is plain
/// make_backend; otherwise the problem is keyed and reused.
std::shared_ptr<SolverBackend> make_cached_backend(FactorizationCache* cache,
                                                   const grid::GridSpec& spec,
                                                   const maps::math::RealGrid& eps,
                                                   double omega, const fdfd::PmlSpec& pml,
                                                   const SolverConfig& config = {});

}  // namespace maps::solver
