#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

namespace maps::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Per-thread shard slot, round-robin assigned on first use so threads
/// spread across banks without hashing a thread id per record().
unsigned thread_shard() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed) % Histogram::kShards;
  return slot;
}

}  // namespace

bool metrics_enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }
void set_metrics_enabled(bool on) { g_metrics_enabled.store(on, std::memory_order_relaxed); }

double Histogram::bucket_bound(int i) {
  return 0.001 * std::exp2(static_cast<double>(i) * 0.5);
}

void Histogram::record(double ms) {
  if (ms < 0.0) ms = 0.0;
  // Index from the closed form, then nudge so boundary values land
  // deterministically in the first bucket whose bound covers them (fp
  // log2 can be off by one ulp at an exact bound).
  int idx = 0;
  if (ms > 0.001) {
    idx = static_cast<int>(std::ceil(2.0 * std::log2(ms / 0.001)));
    idx = std::clamp(idx, 0, kBuckets);
    while (idx > 0 && ms <= bucket_bound(idx - 1)) --idx;
    while (idx < kBuckets && ms > bucket_bound(idx)) ++idx;
  }
  Shard& s = shards_[thread_shard()];
  s.counts[idx].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(ms, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.counts.assign(kBuckets + 1, 0);
  for (const Shard& s : shards_) {
    for (int i = 0; i <= kBuckets; ++i) {
      const std::uint64_t c = s.counts[i].load(std::memory_order_relaxed);
      snap.counts[i] += c;
      snap.count += c;
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  return snap;
}

double Histogram::Snapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (int i = 0; i < static_cast<int>(counts.size()); ++i) {
    const std::uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= rank) {
      const double lo = (i == 0) ? 0.0 : Histogram::bucket_bound(i - 1);
      // Overflow bucket has no upper bound; report its lower edge.
      if (i >= Histogram::kBuckets) return lo;
      const double hi = Histogram::bucket_bound(i);
      const double frac =
          std::clamp((rank - static_cast<double>(cum)) / static_cast<double>(in_bucket),
                     0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    cum += in_bucket;
  }
  return Histogram::bucket_bound(Histogram::kBuckets - 1);
}

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map keeps visitation name-sorted; unique_ptr keeps addresses
  // stable across rehash-free inserts so call sites may cache references.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry::Impl& Registry::impl() const {
  static Impl* instance = new Impl();  // leaked: outlives static dtors
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.counters.find(name);
  if (it == im.counters.end()) {
    it = im.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto it = im.histograms.find(name);
  if (it == im.histograms.end()) {
    it = im.histograms.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

void Registry::visit_counters(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (const auto& [name, c] : im.counters) fn(name, *c);
}

void Registry::visit_histograms(
    const std::function<void(const std::string&, const Histogram&)>& fn) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (const auto& [name, h] : im.histograms) fn(name, *h);
}

std::string prometheus_name(std::string_view name) {
  std::string out = "maps_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

void format_number(std::ostringstream& os, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::abs(v) < 1e15) {
    os << static_cast<std::int64_t>(v);
  } else {
    os << v;
  }
}

}  // namespace

std::string Registry::render_prometheus() const {
  std::ostringstream os;
  os.precision(9);
  visit_counters([&os](const std::string& name, const Counter& c) {
    const std::string p = prometheus_name(name);
    os << "# TYPE " << p << "_total counter\n";
    os << p << "_total " << c.value() << "\n";
  });
  visit_histograms([&os](const std::string& name, const Histogram& h) {
    const std::string p = prometheus_name(name);
    const Histogram::Snapshot snap = h.snapshot();
    os << "# TYPE " << p << " histogram\n";
    std::uint64_t cum = 0;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      cum += snap.counts[i];
      os << p << "_bucket{le=\"";
      format_number(os, Histogram::bucket_bound(i));
      os << "\"} " << cum << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    os << p << "_sum ";
    format_number(os, snap.sum);
    os << "\n";
    os << p << "_count " << snap.count << "\n";
    for (const auto& [label, q] : {std::pair<const char*, double>{"p50", 0.50},
                                   {"p90", 0.90},
                                   {"p99", 0.99}}) {
      os << "# TYPE " << p << "_" << label << " gauge\n";
      os << p << "_" << label << " ";
      format_number(os, snap.percentile(q));
      os << "\n";
    }
  });
  return os.str();
}

Registry& registry() {
  static Registry* instance = new Registry();  // stateless facade, leaked
  return *instance;
}

}  // namespace maps::obs
