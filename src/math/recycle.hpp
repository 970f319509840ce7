// Block recycler: one process-wide free list for the large, short-lived
// buffers of the solve and forward hot paths.
//
// What it holds. Blocks of at least kRecycleMinBytes, handed out by
// RecyclingAllocator<T> (RecycledVector<T>). A released block goes on the
// free list; the next request of exactly the same byte size takes it back,
// newest first. Any other size misses and is allocated fresh. Smaller
// requests pass straight through to operator new/delete. Four owners use
// it: SymBandLdltT's two band planes, nn::Tensor's storage, the spectral
// layers' transform scratch and kept-mode buffers, and math::sgemm's pack
// buffers. Each of them allocates the same few sizes on every solve or
// forward.
//
// What bounds it. Free bytes held plus live bytes never exceed the largest
// live total the recycler has seen (recycle_stats().peak_bytes). A release
// keeps that sum unchanged; a miss that would break the bound first drops
// the oldest free blocks. So the recycler never raises the high-water mark
// of the buffers it serves, and it has no budget, setting or tunable.
//
// Why it exists. glibc serves every allocation above its mmap threshold
// (128 KiB by default) with fresh mmap pages and unmaps them on free, so
// each use pays one minor fault per page. Freeing a mmapped block raises
// the threshold to that block's size, after which same-sized and smaller
// blocks come from the heap and are reused. Measured with getrusage on a
// 4-vCPU x86 host (GCC 12, -O3 -march=native), before the recycler:
// assembling a 64^2 bend band (two 2.1 MB planes) took 1,008 minor faults
// and 2.5-3.1 ms, against 4.5-6.4 ms for its factorization, and a step of
// a 10-step in-process bend invdes run took ~940. A single-thread 64^2 FNO
// infer ran fault-free only after some band free of >= 2 MB had raised
// the threshold; at the default threshold it took 836 faults and 6.2 ms.
// That is the trap: recycling the band planes alone stops those frees,
// leaves the threshold at its default, and moves the faults into every
// forward (a band-only pool measured predict_miss_mixed p50 26% worse,
// 5.33 -> 6.72 ms). So every owner that faulted moves together. With all
// four on the recycler the same probes read 0 faults per assemble
// (0.7-0.9 ms), 64 per invdes step and 0 per infer (3.7 ms). Allocator
// tunables (mallopt, GLIBC_TUNABLES) would change the whole process's heap
// behaviour and are not used.
//
// Same bytes out. The recycler never touches a block's contents; a vector
// still value-initializes (zeroes) what it constructs, so no owner ever
// sees an earlier user's data.
//
// Lifetime and checking. The recycler is a leaked singleton, so a buffer
// released during static destruction still finds it. Under AddressSanitizer
// free blocks are poisoned and unpoisoned on reuse, so a use-after-free on
// recycled memory is still reported. All state is behind one mutex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

namespace maps::math {

/// Smallest block the recycler keeps: glibc's default mmap threshold.
inline constexpr std::size_t kRecycleMinBytes = 128 * 1024;

/// A block of `bytes` (operator new alignment): a recycled one of exactly
/// that size when one is free, else a fresh one.
void* recycle_acquire(std::size_t bytes);
/// Return a block from recycle_acquire(bytes) with the same `bytes`.
void recycle_release(void* p, std::size_t bytes) noexcept;

struct RecycleStats {
  std::uint64_t hits = 0;     // requests served from the free list
  std::uint64_t misses = 0;   // requests allocated fresh
  std::size_t held_bytes = 0;  // free blocks on the list
  std::size_t live_bytes = 0;  // blocks handed out and not yet released
  std::size_t peak_bytes = 0;  // largest live_bytes seen; bounds held + live
};

/// Counters of blocks >= kRecycleMinBytes (smaller requests are not counted).
RecycleStats recycle_stats();

template <typename T>
struct RecyclingAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "RecyclingAllocator: over-aligned types are not supported");
  using value_type = T;

  RecyclingAllocator() noexcept = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(recycle_acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { recycle_release(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using RecycledVector = std::vector<T, RecyclingAllocator<T>>;

}  // namespace maps::math
