#include "math/recycle.hpp"

#include <mutex>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define MAPS_RECYCLE_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define MAPS_RECYCLE_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define MAPS_RECYCLE_POISON(p, n) ((void)(p), (void)(n))
#define MAPS_RECYCLE_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace maps::math {

namespace {

struct Block {
  void* p;
  std::size_t bytes;
};

class Recycler {
 public:
  Recycler() { free_.reserve(64); }

  void* acquire(std::size_t bytes) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Newest first: the most recently released block is the likeliest to
      // still be in cache.
      for (std::size_t k = free_.size(); k-- > 0;) {
        if (free_[k].bytes != bytes) continue;
        void* p = free_[k].p;
        free_.erase(free_.begin() + static_cast<std::ptrdiff_t>(k));
        stats_.held_bytes -= bytes;
        stats_.live_bytes += bytes;
        ++stats_.hits;
        MAPS_RECYCLE_UNPOISON(p, bytes);
        return p;
      }
      ++stats_.misses;
      stats_.live_bytes += bytes;
      if (stats_.live_bytes > stats_.peak_bytes) stats_.peak_bytes = stats_.live_bytes;
      // Drop the oldest free blocks until held + live fits under the peak
      // again. Misses past the peak are rare, so they free under the lock.
      const std::size_t bound = stats_.peak_bytes - stats_.live_bytes;
      std::size_t n = 0;
      for (; n < free_.size() && stats_.held_bytes > bound; ++n) {
        stats_.held_bytes -= free_[n].bytes;
        MAPS_RECYCLE_UNPOISON(free_[n].p, free_[n].bytes);
        ::operator delete(free_[n].p);
      }
      free_.erase(free_.begin(), free_.begin() + static_cast<std::ptrdiff_t>(n));
    }
    try {
      return ::operator new(bytes);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.live_bytes -= bytes;
      throw;
    }
  }

  void release(void* p, std::size_t bytes) noexcept {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.live_bytes -= bytes;
      try {
        free_.push_back({p, bytes});
        stats_.held_bytes += bytes;
        MAPS_RECYCLE_POISON(p, bytes);
        return;
      } catch (...) {
        // No room to record the block: free it instead.
      }
    }
    ::operator delete(p);
  }

  RecycleStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  std::mutex mu_;
  std::vector<Block> free_;  // oldest first
  RecycleStats stats_;
};

Recycler& recycler() {
  // Never destroyed: buffers may be released during static destruction.
  static Recycler* const instance = new Recycler();
  return *instance;
}

}  // namespace

void* recycle_acquire(std::size_t bytes) {
  if (bytes < kRecycleMinBytes) return ::operator new(bytes);
  return recycler().acquire(bytes);
}

void recycle_release(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kRecycleMinBytes) {
    ::operator delete(p);
    return;
  }
  recycler().release(p, bytes);
}

RecycleStats recycle_stats() { return recycler().stats(); }

}  // namespace maps::math
