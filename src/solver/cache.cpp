#include "solver/cache.hpp"

#include <cstring>

namespace maps::solver {

std::uint64_t digest_grid(const maps::math::RealGrid& g) {
  // FNV-1a over the raw double bytes, seeded with the shape so transposed
  // grids of equal content do not collide.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  const index_t nx = g.nx(), ny = g.ny();
  mix(&nx, sizeof(nx));
  mix(&ny, sizeof(ny));
  if (!g.data().empty()) {
    mix(g.data().data(), g.data().size() * sizeof(double));
  }
  return h;
}

ProblemKey make_problem_key(const grid::GridSpec& spec, const maps::math::RealGrid& eps,
                            double omega, const fdfd::PmlSpec& pml,
                            const SolverConfig& config) {
  ProblemKey key;
  key.eps_digest = digest_grid(eps);
  key.nx = spec.nx;
  key.ny = spec.ny;
  key.dl = spec.dl;
  key.omega = omega;
  key.pml_ncells = pml.ncells;
  key.pml_m = pml.m;
  key.pml_R0 = pml.R0;
  key.kind = config.kind;
  key.coarse_factor = config.kind == SolverKind::CoarseGrid ? config.coarse_factor : 0;
  if (config.kind == SolverKind::Iterative) {
    // Tolerances are part of an iterative backend's identity: a backend
    // prepared at a loose rtol must not answer solves requesting a tight one.
    key.iter_rtol = config.iterative.rtol;
    key.iter_max_iters = config.iterative.max_iters;
    key.iter_jacobi = config.iterative.jacobi_precond;
  } else {
    // Direct and CoarseGrid (direct on the coarse grid) both latch the factor
    // precision at construction.
    key.precision = config.precision;
    if (key.precision == SolverPrecision::Mixed) {
      // Refinement tuning changes what a mixed backend answers (tolerance,
      // stall/fallback point), so it is keyed like iterative tolerances.
      key.refine_rtol = config.refinement.rtol;
      key.refine_max_iters = config.refinement.max_iters;
    }
  }
  return key;
}

FactorizationCache::FactorizationCache(std::size_t capacity) : capacity_(capacity) {
  maps::require(capacity > 0, "FactorizationCache: capacity must be > 0");
}

std::shared_ptr<SolverBackend> FactorizationCache::get_or_create(
    const ProblemKey& key,
    const std::function<std::shared_ptr<SolverBackend>()>& make) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == key) {
        ++stats_.hits;
        entries_.splice(entries_.begin(), entries_, it);  // move to front
        // Backends factorize lazily, so entry bytes grow after insertion;
        // re-check the byte budget after promoting the hit to MRU (never
        // before the lookup — that could evict the very entry requested).
        evict_to_capacity_locked();
        return entries_.front().second;
      }
    }
    ++stats_.misses;
  }
  // Build outside the lock: assembly/factorization is the expensive part and
  // must not serialize unrelated lookups. Two threads may race to build the
  // same key; the loser's backend is discarded so the cache never holds
  // duplicate keys (duplicates would eat capacity and double-count stats).
  auto backend = make();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().second;
    }
  }
  entries_.emplace_front(key, backend);
  evict_to_capacity_locked();
  return backend;
}

std::size_t FactorizationCache::factor_bytes_locked() const {
  std::size_t total = 0;
  for (const auto& [key, backend] : entries_) total += backend->factor_bytes();
  return total;
}

void FactorizationCache::evict_to_capacity_locked() {
  while (entries_.size() > capacity_) {
    entries_.pop_back();
    ++stats_.evictions;
  }
  if (capacity_bytes_ == 0) return;
  // Byte budget: drop LRU entries until the survivors fit. The MRU entry is
  // exempt so an oversized factorization is still reusable by the very next
  // identical solve.
  while (entries_.size() > 1 && factor_bytes_locked() > capacity_bytes_) {
    entries_.pop_back();
    ++stats_.evictions;
  }
}

void FactorizationCache::set_capacity(std::size_t capacity) {
  maps::require(capacity > 0, "FactorizationCache: capacity must be > 0");
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  evict_to_capacity_locked();
}

void FactorizationCache::set_capacity_bytes(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_bytes_ = bytes;
  evict_to_capacity_locked();
}

std::size_t FactorizationCache::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_bytes_;
}

std::size_t FactorizationCache::factor_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return factor_bytes_locked();
}

std::size_t FactorizationCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

std::size_t FactorizationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

CacheStats FactorizationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats out = stats_;
  out.factor_bytes = factor_bytes_locked();
  return out;
}

int FactorizationCache::factorization_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int total = 0;
  for (const auto& [key, backend] : entries_) total += backend->factorization_count();
  return total;
}

int FactorizationCache::solve_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int total = 0;
  for (const auto& [key, backend] : entries_) total += backend->solve_count();
  return total;
}

int FactorizationCache::refinement_iteration_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int total = 0;
  for (const auto& [key, backend] : entries_) {
    total += backend->refinement_iteration_count();
  }
  return total;
}

int FactorizationCache::refinement_fallback_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int total = 0;
  for (const auto& [key, backend] : entries_) {
    total += backend->refinement_fallback_count();
  }
  return total;
}

void FactorizationCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::shared_ptr<SolverBackend> make_cached_backend(FactorizationCache* cache,
                                                   const grid::GridSpec& spec,
                                                   const maps::math::RealGrid& eps,
                                                   double omega, const fdfd::PmlSpec& pml,
                                                   const SolverConfig& config) {
  if (!cache) {
    return std::shared_ptr<SolverBackend>(make_backend(spec, eps, omega, pml, config));
  }
  return cache->get_or_create(make_problem_key(spec, eps, omega, pml, config), [&] {
    return std::shared_ptr<SolverBackend>(make_backend(spec, eps, omega, pml, config));
  });
}

}  // namespace maps::solver
