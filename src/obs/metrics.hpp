// Process-wide metrics registry: named counters and log-scale latency
// histograms, built for instrumentation of the serve hot path; and
// CounterTable, the per-instance counters serve and jobs keep.
//
// Discipline (same as runtime/fault.hpp): instrumentation is always
// compiled in, and when disabled costs one relaxed atomic load per site —
// no clock reads, no allocation, no locks. `metrics_enabled()` is the
// master switch (default on; the serve config `metrics` key and tests flip
// it). Call sites cache the `Counter&`/`Histogram&` reference once (the
// registry hands out stable pointers for the process lifetime) so the hot
// path never touches the registry map.
//
// Naming convention (see src/obs/README.md): dot-separated lowercase
// `<subsystem>.<thing>.<unit>` — e.g. `serve.cache.lookup_ms`,
// `solver.factorize_ms`, `jobs.step_ms`. Latency histograms always end in
// `_ms`. The Prometheus renderer prefixes `maps_` and rewrites dots to
// underscores (`maps_serve_cache_lookup_ms_bucket{le="..."}`).
//
// Histogram: 64 fixed log-scale buckets covering 1µs..~50min (upper bound
// of bucket i is 0.001ms * 2^(i/2)) plus an overflow bucket, sharded over
// 8 banks of atomics selected by thread id so concurrent recording does
// not bounce one cache line. Recording is exact: count and sum never lose
// an update (fp sum uses atomic fetch_add). Percentiles interpolate
// linearly inside the bucket that crosses the target rank.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace maps::obs {

/// Master instrumentation switch — one relaxed load. Default: enabled.
bool metrics_enabled();
void set_metrics_enabled(bool on);

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Loaded values of a CounterTable, read by enum.
template <typename E>
struct Counts {
  std::array<std::uint64_t, static_cast<std::size_t>(E::Count)> values{};

  std::uint64_t operator[](E c) const { return values[static_cast<std::size_t>(c)]; }
  std::uint64_t& operator[](E c) { return values[static_cast<std::size_t>(c)]; }
};

/// Per-instance monotone counters indexed by an enum that ends in `Count`
/// (serve's ServeCounter, JobsCounter): one atomic add per event. Unlike
/// registry counters they live in their owner, so two services in one
/// process keep separate counts.
template <typename E>
class CounterTable {
 public:
  void add(E c, std::uint64_t n = 1) { cells_[static_cast<std::size_t>(c)].fetch_add(n); }
  std::uint64_t load(E c) const { return cells_[static_cast<std::size_t>(c)].load(); }
  void read(Counts<E>& out) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) out.values[i] = cells_[i].load();
  }

 private:
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(E::Count)> cells_{};
};

/// Fixed-bucket log-scale latency histogram. All methods are thread-safe.
class Histogram {
 public:
  static constexpr int kBuckets = 64;   // +1 overflow bucket internally
  static constexpr int kShards = 8;

  /// Upper bound (inclusive) of bucket `i` in milliseconds:
  /// 0.001 * 2^(i/2). Monotone increasing; bucket 0 is (0, 0.001].
  static double bucket_bound(int i);

  /// Record one observation (milliseconds; negative clamps to 0).
  void record(double ms);

  struct Snapshot {
    std::vector<std::uint64_t> counts;  // kBuckets + 1 (last = overflow)
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Quantile in [0,1] with linear interpolation inside the crossing
    /// bucket. Returns 0 when empty.
    double percentile(double q) const;
    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
  };

  /// Merged view across shards. Monotone per-shard reads: concurrent
  /// recording may be partially visible but never double-counted.
  Snapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> counts[kBuckets + 1];
    std::atomic<double> sum{0.0};
  };
  Shard shards_[kShards];
};

/// Process-wide registry. `counter`/`histogram` create on first use and
/// return a stable reference (mutex held only for the map lookup —
/// cache the reference at the call site). Names must follow the dotted
/// convention above.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Visit every metric, name-sorted (for renderers).
  void visit_counters(const std::function<void(const std::string&, const Counter&)>& fn) const;
  void visit_histograms(const std::function<void(const std::string&, const Histogram&)>& fn) const;

  /// Prometheus text exposition (version 0.0.4) of everything registered:
  /// counters as `maps_<name>_total`, histograms as every bucket's
  /// `_bucket{le=...}` (all 64 bounds plus +Inf, so the series set never
  /// changes) and `_sum/_count`, plus `_p50/_p90/_p99` gauge lines.
  std::string render_prometheus() const;

 private:
  struct Impl;
  Impl& impl() const;
};

/// The process-wide registry (never destroyed; safe from static dtors).
Registry& registry();

/// `maps_serve_cache_lookup_ms` from `serve.cache.lookup_ms`.
std::string prometheus_name(std::string_view name);

}  // namespace maps::obs
