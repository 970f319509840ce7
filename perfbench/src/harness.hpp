// The benchmark's own arithmetic: percentiles, open-loop latency accounting,
// span self time and the Prometheus scrape parser. Everything here is a pure
// function of its inputs so `maps_perfbench --selftest` can pin it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in milliseconds.
double now_ms();

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty vector.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The tail-percentile ladder. A tail is reported at the highest ladder
/// quantile that leaves at least 10 samples beyond it; with fewer than 20
/// samples nothing qualifies and the median is reported.
double tail_quantile(std::size_t samples);
/// "p99", "p99.5", "p75", ...
std::string quantile_label(double q);

/// One open-loop request: when it was due, when the generator actually sent
/// it, when its reply completed, and whether that reply was OK. A failed or
/// never-answered request has ok = false.
struct OpenLoopRecord {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
  bool ok = false;
};

struct LatencySummary {
  std::size_t samples = 0;   // OK replies the latencies are taken over
  double p50_ms = 0.0;
  double tail_q = 0.5;
  double tail_ms = 0.0;
  double slo_share = 0.0;    // OK within the limit, over all sent
  double sched_lag_p99_ms = 0.0;
};

/// Latency from each request's due time (so a stalled generator charges the
/// stall to every request it delayed), the tail at quantile `tail_q`, and
/// the share of all sent requests that completed OK within `limit_ms` (a
/// failure is a miss). Workloads fix `tail_q` from their design sample
/// count by the ladder rule, so the reported percentile never flips with
/// the realized count.
LatencySummary summarize_open_loop(const std::vector<OpenLoopRecord>& records,
                                   double limit_ms, double tail_q);

/// The same summary over several groups of records (e.g. the open-loop
/// segments of a run), reporting the median over groups of p50, tail and
/// SLO share; `samples` is the total OK count and the generator lag is taken
/// over all records.
LatencySummary summarize_groups(const std::vector<std::vector<OpenLoopRecord>>& groups,
                                double limit_ms, double tail_q);

/// A timed interval recorded by the benchmark around one call into a layer.
struct Span {
  std::string name;
  int parent = -1;  // index into the span list; -1 = root
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<double> span_self_ms(const std::vector<Span>& spans);

/// One scraped Prometheus text page (the server's /v1/metrics).
struct PromPage {
  /// Plain samples by full series name (labels included verbatim),
  /// e.g. "maps_serve_cache_hits_total" or
  /// "maps_serve_breaker_state{state=\"closed\"}".
  std::map<std::string, double> samples;
  /// Histogram families: cumulative (upper bound, count) pairs ascending,
  /// +Inf excluded; the total is samples[family + "_count"].
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  double value(const std::string& series, double fallback = 0.0) const;
};

PromPage parse_prometheus(const std::string& text);

/// Quantile of the observations a histogram family gained between two
/// scrapes, interpolated inside the crossing bucket the way the server's own
/// percentile gauges are. `count_out` receives the observation count.
double histogram_delta_quantile(const PromPage& before, const PromPage& after,
                                const std::string& family, double q,
                                double* count_out = nullptr);

/// 64-bit FNV-1a, for input digests.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);

/// Run the harness self-tests; prints one line per failure, returns the
/// failure count. `testdata_dir` holds the captured /v1/metrics page.
int run_selftests(const std::string& testdata_dir);

}  // namespace perfbench
