// Self-tests of the benchmark's own arithmetic (maps_perfbench --selftest).
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness.hpp"

namespace perfbench {
namespace {

struct Tally {
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    std::cout << "selftest FAILED: " << what << "\n";
  }
  void near(double got, double want, double tol, const std::string& what) {
    expect(std::fabs(got - want) <= tol,
           what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
  }
};

void percentile_rule(Tally& t) {
  t.near(tail_quantile(0), 0.5, 0, "no samples: median");
  t.near(tail_quantile(19), 0.5, 0, "19 samples: nothing qualifies, median");
  t.near(tail_quantile(40), 0.75, 0, "40 samples: p75 leaves 10 beyond");
  t.near(tail_quantile(99), 0.75, 0, "99 samples: p90 would leave 9.9");
  t.near(tail_quantile(100), 0.9, 0, "100 samples: p90");
  t.near(tail_quantile(999), 0.95, 0, "999 samples: p99 would leave 9.99");
  t.near(tail_quantile(1000), 0.99, 0, "1000 samples: p99");
  t.near(tail_quantile(2000), 0.995, 0, "2000 samples: p99.5");
  t.near(tail_quantile(10000), 0.999, 0, "10000 samples: p99.9");
  t.expect(quantile_label(0.995) == "p99.5", "label p99.5");
  t.near(quantile({1, 2, 3, 4}, 0.5), 2.5, 1e-12, "interpolated median");
  t.near(quantile({5}, 0.99), 5, 0, "single sample");
}

/// 100 requests due every 10 ms, each served in 1 ms. The generator stalls
/// from t = 200 to t = 300 ms: requests due in that gap are sent at 300.
/// Latency from the due time charges the stall to every delayed request.
void due_time_under_stall(Tally& t) {
  std::vector<OpenLoopRecord> recs;
  for (int i = 0; i < 100; ++i) {
    OpenLoopRecord r;
    r.due_ms = 10.0 * i;
    r.sent_ms = (r.due_ms >= 200 && r.due_ms < 300) ? 300.0 : r.due_ms;
    r.done_ms = r.sent_ms + 1.0;
    r.ok = true;
    recs.push_back(r);
  }
  const LatencySummary s = summarize_open_loop(recs, 50.0, tail_quantile(recs.size()));
  // Stalled requests: due 200..290, done at 301 -> latency 101..11 ms.
  t.near(s.p50_ms, 1.0, 1e-9, "median request unaffected by the stall");
  // 100 samples -> p90: between the 90th (1 ms) and 91st (11 ms) latency.
  // Timed from the send instead, every latency would read 1 ms.
  t.near(s.tail_q, 0.9, 0, "tail percentile by the ladder rule");
  t.near(s.tail_ms, 2.0, 1e-9, "tail charged the stall");
  t.near(s.slo_share, 0.94, 1e-12, "6 stalled requests (51..101 ms) over the 50 ms limit");
  t.near(s.sched_lag_p99_ms, quantile([&] {
           std::vector<double> v;
           for (const auto& r : recs) v.push_back(r.sent_ms - r.due_ms);
           return v;
         }(), 0.99),
         1e-12, "generator lag p99");
  t.expect(s.sched_lag_p99_ms >= 90.0, "generator lag shows the stall");
}

/// Failed and shed requests answer fast but count as SLO misses and do not
/// enter the latency distribution.
void failures_are_slo_misses(Tally& t) {
  std::vector<OpenLoopRecord> recs;
  for (int i = 0; i < 10; ++i) {
    OpenLoopRecord r;
    r.due_ms = r.sent_ms = 10.0 * i;
    r.done_ms = r.due_ms + (i < 3 ? 0.1 : 5.0);  // the first 3 fail fast (shed)
    r.ok = i >= 3;
    recs.push_back(r);
  }
  const LatencySummary s = summarize_open_loop(recs, 10.0, 0.99);
  t.near(s.slo_share, 0.7, 1e-12, "3 of 10 failed: SLO share 0.7");
  t.expect(s.samples == 7, "latencies only over OK replies");
  t.near(s.p50_ms, 5.0, 1e-12, "fast failures do not pull the median down");
}

/// A stall confined to one of three groups moves only that group.
void group_medians(Tally& t) {
  std::vector<std::vector<OpenLoopRecord>> groups(3);
  for (int i = 0; i < 300; ++i) {
    OpenLoopRecord r;
    r.due_ms = r.sent_ms = i;
    r.done_ms = r.due_ms + (i >= 200 ? 80.0 : 2.0);  // the last group stalls
    r.ok = true;
    groups[static_cast<std::size_t>(i / 100)].push_back(r);
  }
  const LatencySummary s = summarize_groups(groups, 50.0, tail_quantile(100));
  t.near(s.p50_ms, 2.0, 1e-12, "group median ignores the stalled group");
  t.near(s.tail_ms, 2.0, 1e-12, "group tail ignores the stalled group");
  t.near(s.slo_share, 1.0, 1e-12, "group SLO share ignores the stalled group");
  t.expect(s.samples == 300, "group sample count is the total");
  t.near(s.tail_q, 0.9, 0, "100-sample groups: p90 by the ladder rule");
}

void span_self_time(Tally& t) {
  // Parent [0, 10]; children [1, 3], [2, 5] (overlapping) and [8, 12]
  // (clipped to the parent): covered 4 + 2 = 6, self 4.
  std::vector<Span> spans = {{"root", -1, 0, 10}, {"a", 0, 1, 3}, {"b", 0, 2, 5},
                             {"c", 0, 8, 12},    {"d", 1, 1.5, 2}};
  const std::vector<double> self = span_self_ms(spans);
  t.near(self[0], 4.0, 1e-12, "root self time = duration - child coverage");
  t.near(self[1], 1.5, 1e-12, "child self time minus its own child");
  t.near(self[2], 3.0, 1e-12, "leaf self time = duration");
}

void prometheus_scrape(Tally& t, const std::string& dir) {
  std::ifstream in(dir + "/metrics_page.txt");
  std::stringstream ss;
  ss << in.rdbuf();
  t.expect(!ss.str().empty(), "captured /v1/metrics page present");
  const PromPage page = parse_prometheus(ss.str());
  const PromPage empty;
  t.expect(page.value("maps_serve_requests_total") > 0, "counter parsed");
  t.expect(page.samples.count("maps_serve_breaker_state{state=\"closed\"}") == 1, "labelled gauge parsed");
  int families = 0;
  for (const auto& [family, buckets] : page.buckets) {
    ++families;
    double count = 0;
    // Against an empty earlier scrape the delta is the whole histogram, so
    // the parser must reproduce the server's own percentile gauges.
    for (const auto& [label, q] : {std::pair<const char*, double>{"_p50", 0.5}, {"_p90", 0.9}, {"_p99", 0.99}}) {
      const double mine = histogram_delta_quantile(empty, page, family, q, &count);
      const double theirs = page.value(family + label, -1);
      t.near(mine, theirs, 1e-6 * std::max(1.0, theirs), family + label + " matches the server");
    }
    t.near(count, page.value(family + "_count"), 0, family + " count");
    // A scrape against itself has no new observations.
    t.near(histogram_delta_quantile(page, page, family, 0.5, &count), 0.0, 0, family + " self-delta");
    t.near(count, 0.0, 0, family + " self-delta count");
  }
  t.expect(families >= 3, "histogram families parsed");
  // Delta between two synthetic scrapes: 10 old observations in (0.1, 0.2],
  // 10 new ones in (0.4, 0.8]; the new median sits inside the new bucket.
  const PromPage a = parse_prometheus(
      "h_bucket{le=\"0.1\"} 0\nh_bucket{le=\"0.2\"} 10\nh_bucket{le=\"+Inf\"} 10\nh_count 10\n");
  const PromPage b = parse_prometheus(
      "h_bucket{le=\"0.1\"} 0\nh_bucket{le=\"0.2\"} 10\nh_bucket{le=\"0.4\"} 10\n"
      "h_bucket{le=\"0.8\"} 20\nh_bucket{le=\"+Inf\"} 20\nh_count 20\n");
  double n = 0;
  t.near(histogram_delta_quantile(a, b, "h", 0.5, &n), 0.6, 1e-12, "delta median interpolates in the new bucket");
  t.near(n, 10, 0, "delta count");
}

}  // namespace

int run_selftests(const std::string& testdata_dir) {
  Tally t;
  percentile_rule(t);
  due_time_under_stall(t);
  failures_are_slo_misses(t);
  group_medians(t);
  span_self_time(t);
  prometheus_scrape(t, testdata_dir);
  return t.failures;
}

}  // namespace perfbench
