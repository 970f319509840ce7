#include "serve/result_cache.hpp"

namespace maps::serve {

std::size_t QueryKeyHash::operator()(const QueryKey& k) const {
  // FNV-1a over the key fields; omega enters via its bit pattern.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(k.pattern_digest);
  mix(std::bit_cast<std::uint64_t>(k.omega));
  mix(static_cast<std::uint64_t>(k.fidelity));
  mix(static_cast<std::uint64_t>(k.model_version));
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const CachedResult> ResultCache::get(const QueryKey& key) {
  if (!enabled()) return nullptr;
  std::lock_guard lk(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++hits_;
  return it->second->second;
}

void ResultCache::put(const QueryKey& key, std::shared_ptr<const CachedResult> value) {
  if (!enabled()) return;
  std::lock_guard lk(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard lk(mu_);
  return {hits_, misses_, evictions_, lru_.size()};
}

}  // namespace maps::serve
