// Metrics registry: histogram bucket geometry, percentile interpolation,
// exact concurrent accounting and the Prometheus text renderer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace {

using namespace maps;

TEST(Metrics, BucketBoundsAreLogScale) {
  // Upper bound of bucket i is 0.001ms * 2^(i/2): every second bucket
  // doubles, bucket 0 caps the microsecond floor.
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_bound(0), 0.001);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_bound(2), 0.002);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_bound(4), 0.004);
  for (int i = 1; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_GT(obs::Histogram::bucket_bound(i), obs::Histogram::bucket_bound(i - 1));
  }
  // The range covers sub-millisecond cache hits through multi-minute solves.
  EXPECT_GT(obs::Histogram::bucket_bound(obs::Histogram::kBuckets - 1), 60e3);
}

TEST(Metrics, RecordLandsInTheBoundedBucket) {
  obs::Histogram h;
  h.record(0.0015);
  h.record(3.0);
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.count, 2u);
  std::vector<int> hit;
  for (int i = 0; i <= obs::Histogram::kBuckets; ++i) {
    for (std::uint64_t k = 0; k < snap.counts[i]; ++k) hit.push_back(i);
  }
  ASSERT_EQ(hit.size(), 2u);
  // Each recorded value obeys bound(i-1) < ms <= bound(i).
  EXPECT_LE(0.0015, obs::Histogram::bucket_bound(hit[0]));
  EXPECT_GT(0.0015, hit[0] == 0 ? 0.0 : obs::Histogram::bucket_bound(hit[0] - 1));
  EXPECT_LE(3.0, obs::Histogram::bucket_bound(hit[1]));
  EXPECT_GT(3.0, obs::Histogram::bucket_bound(hit[1] - 1));
}

TEST(Metrics, BoundaryValuesAreInclusiveUpper) {
  obs::Histogram h;
  h.record(0.001);  // exactly the bucket-0 upper bound
  h.record(0.002);  // exactly the bucket-2 upper bound
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
}

TEST(Metrics, OverflowAndNegativeClamp) {
  obs::Histogram h;
  h.record(1e12);  // beyond the last bound: overflow bucket
  h.record(-5.0);  // clamps to 0 => bucket 0
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.counts[obs::Histogram::kBuckets], 1u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.count, 2u);
}

TEST(Metrics, PercentileInterpolatesWithinBucket) {
  obs::Histogram h;
  // 100 samples in one bucket: the quantile walks linearly across it.
  for (int i = 0; i < 100; ++i) h.record(3.0);
  const auto snap = h.snapshot();
  const double p50 = snap.percentile(0.50);
  const double p99 = snap.percentile(0.99);
  // Both land inside the bucket holding 3.0: (~2.90, ~4.10].
  EXPECT_GT(p50, 2.8);
  EXPECT_LE(p50, 4.1);
  EXPECT_GT(p99, p50);  // later rank => further across the same bucket
  EXPECT_LE(p99, 4.1);
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), snap.percentile(0.0));  // no NaN
  EXPECT_EQ(obs::Histogram().snapshot().percentile(0.5), 0.0);   // empty => 0
}

TEST(Metrics, PercentileOrderingAcrossBuckets) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.record(1.0);
  for (int i = 0; i < 10; ++i) h.record(100.0);
  const auto snap = h.snapshot();
  EXPECT_LE(snap.percentile(0.50), 2.0);
  EXPECT_GT(snap.percentile(0.99), 50.0);
  EXPECT_NEAR(snap.sum, 90.0 + 1000.0, 1e-9);
}

TEST(Metrics, ConcurrentRecordingIsExact) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPer = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPer; ++i) h.record(1.0);
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_NEAR(snap.sum, static_cast<double>(kThreads) * kPer, 1e-6);
}

TEST(Metrics, RegistryHandsOutStableRefsAndCounts) {
  auto& c1 = obs::registry().counter("test.metrics.registry_counter");
  auto& c2 = obs::registry().counter("test.metrics.registry_counter");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  EXPECT_GE(c2.value(), 3u);
}

TEST(Metrics, DisabledSwitchStopsHistogramRecording) {
  // ScopedSpan gates on metrics_enabled(); Histogram::record itself always
  // records — verify the master switch round-trips.
  obs::set_metrics_enabled(false);
  EXPECT_FALSE(obs::metrics_enabled());
  obs::set_metrics_enabled(true);
  EXPECT_TRUE(obs::metrics_enabled());
}

TEST(Metrics, PrometheusNameRewritesDots) {
  EXPECT_EQ(obs::prometheus_name("serve.cache.lookup_ms"),
            "maps_serve_cache_lookup_ms");
  EXPECT_EQ(obs::prometheus_name("jobs.step_ms"), "maps_jobs_step_ms");
}

TEST(Metrics, RenderPrometheusEmitsFamilies) {
  obs::registry().counter("test.render.hits").add(2);
  obs::registry().histogram("test.render.lat_ms").record(1.5);
  const std::string text = obs::registry().render_prometheus();
  EXPECT_NE(text.find("maps_test_render_hits_total 2"), std::string::npos);
  EXPECT_NE(text.find("maps_test_render_lat_ms_bucket{le="), std::string::npos);
  EXPECT_NE(text.find("maps_test_render_lat_ms_count 1"), std::string::npos);
  EXPECT_NE(text.find("maps_test_render_lat_ms_p50"), std::string::npos);
  EXPECT_NE(text.find("maps_test_render_lat_ms_p99"), std::string::npos);
  // le="+Inf" terminates every histogram family.
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

/// The `le` labels of one histogram family's bucket series, in page order.
std::vector<std::string> bucket_labels(const std::string& text, const std::string& family) {
  std::vector<std::string> out;
  const std::string prefix = family + "_bucket{le=\"";
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    out.push_back(line.substr(prefix.size(), line.find('"', prefix.size()) - prefix.size()));
  }
  return out;
}

TEST(Metrics, RenderPrometheusEmitsEveryBucketWhateverTheObservations) {
  // A series that appears mid-run has no earlier sample to rate() against:
  // every histogram carries all finite buckets plus +Inf from its first
  // render on.
  auto& h = obs::registry().histogram("test.render.stable_ms");
  h.record(0.01);
  const auto before = bucket_labels(obs::registry().render_prometheus(),
                                    "maps_test_render_stable_ms");
  h.record(5000.0);
  const auto after = bucket_labels(obs::registry().render_prometheus(),
                                   "maps_test_render_stable_ms");
  EXPECT_EQ(before.size(), static_cast<std::size_t>(obs::Histogram::kBuckets) + 1);
  EXPECT_EQ(before, after);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.back(), "+Inf");
}

}  // namespace
