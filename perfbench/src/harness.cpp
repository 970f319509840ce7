#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double tail_quantile(std::size_t samples) {
  static constexpr double kLadder[] = {0.999, 0.995, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (const double q : kLadder) {
    // Samples strictly beyond the q-quantile: n * (1 - q), floating-point
    // guarded so n = 1000 at q = 0.99 counts as exactly 10.
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9) return q;
  }
  return 0.5;
}

std::string quantile_label(double q) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

LatencySummary summarize_open_loop(const std::vector<OpenLoopRecord>& records,
                                   double limit_ms, double tail_q) {
  LatencySummary s;
  std::vector<double> lat, lag;
  std::size_t within = 0;
  for (const OpenLoopRecord& r : records) {
    lag.push_back(r.sent_ms - r.due_ms);
    if (!r.ok) continue;
    const double l = r.done_ms - r.due_ms;
    lat.push_back(l);
    if (l <= limit_ms) ++within;
  }
  s.samples = lat.size();
  s.p50_ms = median(lat);
  s.tail_q = tail_q;
  s.tail_ms = quantile(lat, s.tail_q);
  s.slo_share = records.empty() ? 0.0
                                : static_cast<double>(within) /
                                      static_cast<double>(records.size());
  s.sched_lag_p99_ms = quantile(lag, 0.99);
  return s;
}

LatencySummary summarize_groups(const std::vector<std::vector<OpenLoopRecord>>& groups,
                                double limit_ms, double tail_q) {
  std::vector<double> p50, tail, slo;
  std::vector<OpenLoopRecord> all;
  LatencySummary out;
  for (const auto& g : groups) {
    const LatencySummary s = summarize_open_loop(g, limit_ms, tail_q);
    out.samples += s.samples;
    p50.push_back(s.p50_ms);
    tail.push_back(s.tail_ms);
    slo.push_back(s.slo_share);
    all.insert(all.end(), g.begin(), g.end());
  }
  out.tail_q = tail_q;
  out.p50_ms = median(p50);
  out.tail_ms = median(tail);
  out.slo_share = median(slo);
  out.sched_lag_p99_ms = summarize_open_loop(all, limit_ms, tail_q).sched_lag_p99_ms;
  return out;
}

std::vector<double> span_self_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ms);
      hi = std::min(hi, p.end_ms);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (p.end_ms - p.start_ms) - covered;
  }
  return self;
}

double PromPage::value(const std::string& series, double fallback) const {
  const auto it = samples.find(series);
  return it == samples.end() ? fallback : it->second;
}

PromPage parse_prometheus(const std::string& text) {
  PromPage page;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const std::string series = line.substr(0, sp);
    const double value = std::strtod(line.c_str() + sp + 1, nullptr);
    static const std::string kBucket = "_bucket{le=\"";
    const std::size_t b = series.find(kBucket);
    if (b != std::string::npos) {
      const std::string family = series.substr(0, b);
      const std::string le = series.substr(b + kBucket.size(),
                                           series.size() - b - kBucket.size() - 2);
      if (le != "+Inf") page.buckets[family].push_back({std::strtod(le.c_str(), nullptr), value});
      continue;
    }
    page.samples[series] = value;
  }
  for (auto& [family, v] : page.buckets) std::sort(v.begin(), v.end());
  return page;
}

namespace {

/// Cumulative count at or below `bound`: the step function of the emitted
/// buckets (the renderer omits only trailing buckets, whose cumulative
/// count equals the total).
double cumulative_at(const PromPage& page, const std::string& family, double bound) {
  const auto it = page.buckets.find(family);
  double cum = 0.0;
  if (it != page.buckets.end()) {
    for (const auto& [le, c] : it->second) {
      if (le > bound * (1.0 + 1e-9)) break;
      cum = c;
    }
    if (!it->second.empty() && bound > it->second.back().first) {
      cum = page.value(family + "_count", cum);
    }
  }
  return cum;
}

}  // namespace

double histogram_delta_quantile(const PromPage& before, const PromPage& after,
                                const std::string& family, double q,
                                double* count_out) {
  const double total = after.value(family + "_count") - before.value(family + "_count");
  if (count_out != nullptr) *count_out = total;
  const auto it = after.buckets.find(family);
  if (total <= 0.0 || it == after.buckets.end()) return 0.0;
  const double rank = std::clamp(q, 0.0, 1.0) * total;
  double prev_bound = 0.0, prev_cum = 0.0;
  for (const auto& [le, c_after] : it->second) {
    const double cum = c_after - cumulative_at(before, family, le);
    if (cum > prev_cum && cum >= rank) {
      const double frac = std::clamp((rank - prev_cum) / (cum - prev_cum), 0.0, 1.0);
      return prev_bound + frac * (le - prev_bound);
    }
    prev_bound = le;
    prev_cum = cum;
  }
  return prev_bound;  // overflow bucket: report its lower edge, as the server does
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
