// Analysis toolkit: histograms, PCA, t-SNE, reporting.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/histogram.hpp"
#include "analysis/pca.hpp"
#include "analysis/report.hpp"
#include "analysis/tsne.hpp"
#include "math/rng.hpp"

namespace ma = maps::analysis;
namespace mm = maps::math;

TEST(Histogram, CountsAndEdges) {
  const auto h = ma::make_histogram({0.05, 0.15, 0.15, 0.95, 1.0}, 0.0, 1.0, 10);
  EXPECT_EQ(h.counts[0], 1);
  EXPECT_EQ(h.counts[1], 2);
  EXPECT_EQ(h.counts[9], 2);  // 0.95 and the inclusive upper edge 1.0
  EXPECT_EQ(h.total, 5);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.4);
}

TEST(Histogram, OutOfRangeTallied) {
  const auto h = ma::make_histogram({-1.0, 0.5, 2.0}, 0.0, 1.0, 4);
  EXPECT_EQ(h.below, 1);
  EXPECT_EQ(h.above, 1);
  EXPECT_EQ(h.total, 1);
}

TEST(Histogram, AsciiRendering) {
  const auto h = ma::make_histogram({0.1, 0.1, 0.9}, 0.0, 1.0, 2);
  const auto s = ma::ascii_histogram(h, "demo");
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find('#'), std::string::npos);
}

TEST(Pca, RecoversDominantDirection) {
  // Points spread along (1, 1)/sqrt2 in 2D with small noise: the first
  // component must capture almost all the variance.
  mm::Rng rng(5);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 60; ++i) {
    const double t = rng.uniform(-3, 3);
    rows.push_back({t + rng.normal(0, 0.01), t + rng.normal(0, 0.01)});
  }
  const auto res = ma::pca(rows, 2);
  ASSERT_EQ(res.explained_variance.size(), 2u);
  EXPECT_GT(res.explained_variance[0], 100.0 * res.explained_variance[1]);
}

TEST(Pca, ProjectionPreservesPairwiseStructure) {
  // For full-rank k, PCA projection preserves centered pairwise distances.
  mm::Rng rng(6);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)});
  }
  const auto res = ma::pca(rows, 3);
  for (std::size_t a = 0; a < rows.size(); ++a) {
    for (std::size_t b = a + 1; b < rows.size(); ++b) {
      double d_orig = 0, d_proj = 0;
      for (std::size_t k = 0; k < 3; ++k) {
        d_orig += (rows[a][k] - rows[b][k]) * (rows[a][k] - rows[b][k]);
        d_proj += (res.projected[a][k] - res.projected[b][k]) *
                  (res.projected[a][k] - res.projected[b][k]);
      }
      EXPECT_NEAR(d_orig, d_proj, 1e-6 * std::max(1.0, d_orig));
    }
  }
}

TEST(Tsne, SeparatesTwoGaussianClusters) {
  mm::Rng rng(7);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({rng.normal(0, 0.3), rng.normal(0, 0.3)});
    labels.push_back(0);
    rows.push_back({rng.normal(6, 0.3), rng.normal(6, 0.3)});
    labels.push_back(1);
  }
  ma::TsneOptions opt;
  opt.iterations = 300;
  opt.perplexity = 10;
  const auto emb = ma::tsne(rows, opt);  // auto learning rate
  ASSERT_EQ(emb.size(), rows.size());
  const double sep = ma::cluster_separation(emb, labels);
  EXPECT_GT(sep, 0.5) << "well-separated clusters should stay separated";
}

TEST(Tsne, ClusterSeparationMetricBehaves) {
  // Perfect separation in a synthetic embedding.
  std::vector<std::vector<double>> emb{{0, 0}, {0.1, 0}, {10, 10}, {10.1, 10}};
  std::vector<int> labels{0, 0, 1, 1};
  EXPECT_GT(ma::cluster_separation(emb, labels), 0.9);
  // Interleaved labels: near-zero or negative.
  std::vector<int> mixed{0, 1, 0, 1};
  EXPECT_LT(ma::cluster_separation(emb, mixed), 0.5);
}

TEST(Report, TextTableFormats) {
  ma::TextTable t({"model", "score"});
  t.add_row({"FNO", ma::TextTable::fmt(0.12345, 3)});
  const auto s = t.str();
  EXPECT_NE(s.find("FNO"), std::string::npos);
  EXPECT_NE(s.find("0.123"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), maps::MapsError);
}

TEST(Report, CsvWriter) {
  const std::string path = std::string(::testing::TempDir()) + "/maps_test.csv";
  ma::write_csv(path, {"a", "b"}, {{1.0, 2.0}, {3.0, 4.5}});
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "a,b");
  std::getline(is, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Report, CsvWriterReportsAFailedFinalFlush) {
  // A one-row CSV sits in the stream's buffer until close.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(ma::write_csv("/dev/full", {"a", "b"}, {{1.0, 2.0}}), maps::MapsError);
}
