// Grid2D container semantics and the flattening convention everything
// else depends on (n = i + nx*j).
#include <gtest/gtest.h>

#include "math/field2d.hpp"
#include "math/vec.hpp"

namespace mm = maps::math;
using maps::cplx;
using maps::index_t;

TEST(Field2d, FlatteningConvention) {
  mm::RealGrid g(3, 2);
  g(2, 1) = 7.0;
  EXPECT_DOUBLE_EQ(g[2 + 3 * 1], 7.0);
  EXPECT_EQ(g.idx(2, 1), 5u);
}

TEST(Field2d, ConstructFromData) {
  mm::RealGrid g(2, 2, std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 4.0);
}

TEST(Field2d, SizeMismatchThrows) {
  EXPECT_THROW(mm::RealGrid(2, 2, std::vector<double>{1, 2, 3}), maps::MapsError);
}

TEST(Field2d, NegativeDimensionsThrowBeforeSizing) {
  // A negative dimension is rejected before the vector is sized (not as
  // std::length_error), and two negatives whose product matches the data
  // size are rejected too.
  EXPECT_THROW(mm::RealGrid(-3, 2), maps::MapsError);
  EXPECT_THROW(mm::RealGrid(-2, -3, std::vector<double>(6)), maps::MapsError);
}

TEST(Field2d, MapTransformsElementwise) {
  mm::RealGrid g(2, 2, std::vector<double>{1, 2, 3, 4});
  auto sq = g.map([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(sq(1, 1), 16.0);
}

TEST(Field2d, MapCanChangeType) {
  mm::RealGrid g(2, 1, std::vector<double>{1, 2});
  auto c = g.map([](double v) { return cplx{v, -v}; });
  EXPECT_EQ(c(1, 0), (cplx{2.0, -2.0}));
}

TEST(Field2d, InBounds) {
  mm::RealGrid g(4, 5);
  EXPECT_TRUE(g.in_bounds(0, 0));
  EXPECT_TRUE(g.in_bounds(3, 4));
  EXPECT_FALSE(g.in_bounds(4, 0));
  EXPECT_FALSE(g.in_bounds(0, 5));
  EXPECT_FALSE(g.in_bounds(-1, 0));
}

TEST(Field2d, FillAndSameShape) {
  mm::RealGrid a(3, 3), b(3, 3), c(3, 4);
  a.fill(2.5);
  for (index_t n = 0; n < a.size(); ++n) EXPECT_DOUBLE_EQ(a[n], 2.5);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(VecOps, DotAndNorm) {
  std::vector<cplx> x{{1, 0}, {0, 1}};
  std::vector<cplx> y{{0, 1}, {1, 0}};
  // dotc conjugates the first argument: conj(1)*i + conj(i)*1 = i - i = 0.
  EXPECT_NEAR(std::abs(mm::dotc(x, y)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(mm::dotu(x, y) - cplx{0.0, 2.0}), 0.0, 1e-14);
  EXPECT_DOUBLE_EQ(mm::norm2(std::span<const cplx>(x)), std::sqrt(2.0));
}

TEST(VecOps, AxpyScaleSub) {
  std::vector<double> x{1, 2}, y{10, 20};
  mm::axpy(2.0, std::span<const double>(x), std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  mm::scale(0.5, std::span<double>(y));
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  auto d = mm::sub(y, x);
  EXPECT_DOUBLE_EQ(d[0], 5.0);
  EXPECT_DOUBLE_EQ(d[1], 10.0);
}
