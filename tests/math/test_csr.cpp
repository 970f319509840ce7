// CSR assembly, products, transposition and band conversion.
#include <gtest/gtest.h>

#include "math/csr.hpp"
#include "math/rng.hpp"

namespace mm = maps::math;
using maps::cplx;
using maps::index_t;

TEST(Csr, FromTripletsSumsDuplicates) {
  auto m = mm::CsrReal::from_triplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}});
  EXPECT_EQ(m.nnz(), 2);
  auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 3.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
}

TEST(Csr, MatvecSmall) {
  // [[1,2],[3,4]] * [1,1] = [3,7]
  auto m = mm::CsrReal::from_triplets(2, 2, {{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}});
  auto y = m.matvec({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Csr, MatvecTransposedMatchesTranspose) {
  mm::Rng rng(11);
  std::vector<mm::Triplet<double>> tris;
  for (int k = 0; k < 40; ++k) {
    tris.push_back({rng.randint(0, 7), rng.randint(0, 5), rng.uniform(-1, 1)});
  }
  auto m = mm::CsrReal::from_triplets(8, 6, tris);
  auto mt = m.transposed();
  std::vector<double> x(8);
  for (auto& v : x) v = rng.uniform(-1, 1);
  auto y1 = m.matvec_transposed(x);
  auto y2 = mt.matvec(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

TEST(Csr, EmptyRowsHandled) {
  auto m = mm::CsrReal::from_triplets(4, 4, {{0, 0, 1.0}, {3, 3, 2.0}});
  auto y = m.matvec({1, 1, 1, 1});
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

TEST(Csr, Bandwidth) {
  auto m = mm::CsrReal::from_triplets(5, 5, {{0, 0, 1.0}, {4, 1, 1.0}, {1, 3, 1.0}});
  EXPECT_EQ(m.bandwidth(), 3);
}

TEST(Csr, ResidualNorm) {
  auto m = mm::CsrReal::from_triplets(2, 2, {{0, 0, 2.0}, {1, 1, 2.0}});
  EXPECT_NEAR(m.residual_norm({1.0, 1.0}, {2.0, 2.0}), 0.0, 1e-15);
  EXPECT_NEAR(m.residual_norm({1.0, 1.0}, {2.0, 5.0}), 3.0, 1e-15);
}

TEST(Csr, ComplexMatvec) {
  using T = cplx;
  auto m = mm::CsrCplx::from_triplets(
      2, 2, {{0, 0, T{0, 1}}, {0, 1, T{1, 0}}, {1, 1, T{2, -1}}});
  auto y = m.matvec({T{1, 0}, T{0, 1}});
  EXPECT_NEAR(std::abs(y[0] - T{0, 2}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[1] - T{1, 2}), 0.0, 1e-15);
}

TEST(Csr, ToBandRoundTrip) {
  mm::Rng rng(5);
  std::vector<mm::Triplet<cplx>> tris;
  for (index_t i = 0; i < 10; ++i) {
    tris.push_back({i, i, cplx{4.0 + rng.uniform(), 0.0}});
    if (i > 0) tris.push_back({i, i - 1, cplx{rng.uniform(), rng.uniform()}});
    if (i + 1 < 10) tris.push_back({i, i + 1, cplx{rng.uniform(), rng.uniform()}});
  }
  auto m = mm::CsrCplx::from_triplets(10, 10, tris);
  auto band = mm::to_band(m);
  EXPECT_EQ(band.kl(), 1);
  EXPECT_EQ(band.ku(), 1);
  std::vector<cplx> x(10);
  for (auto& v : x) v = cplx{rng.uniform(), rng.uniform()};
  auto y1 = m.matvec(x);
  auto y2 = band.matvec(x);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(std::abs(y1[i] - y2[i]), 0.0, 1e-14);
}

TEST(Csr, TripletOutOfRangeThrows) {
  EXPECT_THROW(mm::CsrReal::from_triplets(2, 2, {{2, 0, 1.0}}), maps::MapsError);
  EXPECT_THROW(mm::CsrReal::from_triplets(2, 2, {{0, -1, 1.0}}), maps::MapsError);
}
