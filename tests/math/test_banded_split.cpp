// SymBandLdlt (complex-symmetric band LDL^T) against the pivoted
// BandMatrix<cplx> LU reference on random complex-symmetric bands, the
// degenerate shapes FDFD grids produce (kl = 1 single-row grids, n <= kl + 1),
// and the static-pivot guard.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "math/banded.hpp"
#include "math/banded_split.hpp"
#include "math/recycle.hpp"
#include "math/rng.hpp"

namespace mm = maps::math;
using maps::cplx;
using maps::index_t;

namespace {

template <typename T>
struct Pair {
  mm::BandMatrix<cplx> ref;
  mm::SymBandLdltT<T> ldlt;
};

/// Random complex-symmetric band (S = S^T, no conjugation) filled into both
/// representations. `diag_shift` keeps it comfortably nonsingular.
template <typename T = double>
Pair<T> random_symmetric(index_t n, index_t kl, unsigned seed,
                         cplx diag_shift = cplx{6.0, 2.0}) {
  Pair<T> p{mm::BandMatrix<cplx>(n, kl, kl), mm::SymBandLdltT<T>(n, kl)};
  mm::Rng rng(seed);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i <= std::min(n - 1, j + kl); ++i) {
      cplx v{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      if (i == j) v += diag_shift;
      p.ref.set(i, j, v);
      p.ref.set(j, i, v);
      p.ldlt.set(i, j, v);
    }
  }
  return p;
}

std::vector<cplx> random_rhs(index_t n, unsigned seed) {
  mm::Rng rng(seed);
  std::vector<cplx> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return b;
}

double rel_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    num += std::norm(a[k] - b[k]);
    den += std::norm(a[k]);
  }
  return std::sqrt(num / std::max(den, 1e-300));
}

/// Factorize both sides and return the worst relative disagreement over a
/// batch of `nrhs` random right-hand sides.
template <typename T>
double worst_vs_reference(Pair<T>& p, unsigned nrhs, unsigned seed) {
  p.ref.factorize();
  p.ldlt.factorize();
  std::vector<std::vector<cplx>> batch;
  for (unsigned s = 0; s < nrhs; ++s) batch.push_back(random_rhs(p.ldlt.n(), seed + s));
  auto ref_batch = batch;
  p.ref.solve_multi_inplace(ref_batch);
  p.ldlt.solve_multi_inplace(batch);
  double worst = 0.0;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    worst = std::max(worst, rel_err(ref_batch[k], batch[k]));
  }
  return worst;
}

}  // namespace

TEST(SymBandLdlt, MatchesBandMatrixOnRandomSymmetricBands) {
  for (unsigned trial = 0; trial < 4; ++trial) {
    const index_t n = 80 + 40 * static_cast<index_t>(trial);
    const index_t kl = 3 + 5 * static_cast<index_t>(trial);
    auto p = random_symmetric(n, kl, 400 + trial);
    EXPECT_LT(worst_vs_reference(p, 5, 500 + 10 * trial), 1e-12)
        << "n " << n << " kl " << kl;
  }
}

TEST(SymBandLdlt, SingleRowGridBandKl1) {
  // A single-row FDFD grid couples only i +- 1: a tridiagonal band.
  auto p = random_symmetric(200, 1, 7);
  EXPECT_LT(worst_vs_reference(p, 3, 70), 1e-12);
}

TEST(SymBandLdlt, FullBandWhenNIsAtMostKlPlusOne) {
  // n = kl + 1: the band covers the whole matrix (dense LDL^T), including
  // the 1x1 edge case.
  for (const index_t n : {1, 2, 5, 17}) {
    auto p = random_symmetric(n, n - 1, 30 + static_cast<unsigned>(n));
    EXPECT_LT(worst_vs_reference(p, 2, 90), 1e-12) << "n " << n;
  }
}

TEST(SymBandLdlt, BatchIsBitIdenticalToOneAtATime) {
  auto p = random_symmetric(96, 10, 7);
  p.ldlt.factorize();
  std::vector<std::vector<cplx>> batch;
  for (unsigned s = 0; s < 4; ++s) batch.push_back(random_rhs(96, 100 + s));
  auto singles = batch;
  for (auto& b : singles) {
    std::vector<std::vector<cplx>> one{b};
    p.ldlt.solve_multi_inplace(one);
    b = std::move(one[0]);
  }
  p.ldlt.solve_multi_inplace(batch);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    for (std::size_t t = 0; t < batch[k].size(); ++t) {
      ASSERT_EQ(batch[k][t], singles[k][t]) << "rhs " << k << " entry " << t;
    }
  }
}

TEST(SymBandLdlt, RecycledPlanesGiveBitIdenticalFactorsAndSolves) {
  // 2048 x 17 doubles per plane: above the recycler's floor, so planes of a
  // destroyed band go back to the free list and the next band of the same
  // shape gets them, dirty, before assembling into them.
  constexpr index_t n = 2048, kl = 16;
  static_assert(n * (kl + 1) * sizeof(double) >= mm::kRecycleMinBytes);
  const auto build = [&](unsigned seed, cplx shift) {
    mm::SymBandLdlt s(n, kl);
    mm::Rng rng(seed);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i <= std::min(n - 1, j + kl); ++i) {
        cplx v{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
        s.set(i, j, i == j ? v + shift : v);
      }
    }
    s.factorize();
    return s;
  };
  const auto band = [&](const mm::SymBandLdlt& s) {
    std::vector<cplx> out;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = j; i <= std::min(n - 1, j + kl); ++i) out.push_back(s.get(i, j));
    }
    return out;
  };
  const auto solve = [&](const mm::SymBandLdlt& s) {
    std::vector<std::vector<cplx>> bs{random_rhs(n, 41), random_rhs(n, 42)};
    s.solve_multi_inplace(bs);
    return bs;
  };

  std::vector<cplx> factors;
  std::vector<std::vector<cplx>> solution;
  {
    const auto first = build(5, cplx{6.0, 2.0});
    factors = band(first);
    solution = solve(first);
  }
  {
    const auto other = build(77, cplx{9.0, -3.0});  // dirties the recycled planes
    ASSERT_NE(band(other), factors);
  }
  const auto before = mm::recycle_stats();
  const auto again = build(5, cplx{6.0, 2.0});
  EXPECT_EQ(mm::recycle_stats().hits - before.hits, 2u);  // both planes recycled
  EXPECT_EQ(band(again), factors);
  EXPECT_EQ(solve(again), solution);
}

TEST(SymBandLdlt, FloatFactorsAgreeToSinglePrecision) {
  auto p = random_symmetric<float>(120, 8, 11);
  EXPECT_LT(worst_vs_reference(p, 3, 40), 1e-5);
}

TEST(SymBandLdlt, SymmetricAccessAndStorage) {
  mm::SymBandLdlt m(100, 10);
  m.set(15, 9, cplx{1.5, -2.0});
  EXPECT_EQ(m.get(15, 9), (cplx{1.5, -2.0}));
  EXPECT_EQ(m.get(9, 15), (cplx{1.5, -2.0}));
  EXPECT_EQ(m.get(40, 9), cplx{});  // outside the band
  EXPECT_THROW(m.set(9, 15, cplx{1.0}), maps::MapsError);   // upper triangle
  EXPECT_THROW(m.set(40, 9, cplx{1.0}), maps::MapsError);   // outside the band
  // kl + 1 rows per plane, two planes, no pivot vector.
  EXPECT_EQ(m.storage_bytes(), 2 * 11 * 100 * sizeof(double));
  EXPECT_EQ(mm::SymBandLdltF(100, 10).storage_bytes(), 2 * 11 * 100 * sizeof(float));
}

TEST(SymBandLdlt, GuardRejectsZeroLeadingPivot) {
  // [[0, 1], [1, 1]] is nonsingular, but not without a row swap.
  mm::SymBandLdlt m(2, 1);
  m.set(1, 0, cplx{1.0, 0.0});
  m.set(1, 1, cplx{1.0, 0.0});
  EXPECT_THROW(m.factorize(), maps::MapsError);
}

TEST(SymBandLdlt, GuardRejectsTinyLeadingPivot) {
  // A nonzero leading pivot far below the diagonal scale: eliminating with
  // it would need a multiplier of 1e10.
  mm::SymBandLdlt m(2, 1);
  m.set(0, 0, cplx{1e-10, 1e-10});
  m.set(1, 0, cplx{1.0, 0.5});
  m.set(1, 1, cplx{1.0, 0.0});
  EXPECT_THROW(m.factorize(), maps::MapsError);
  mm::SymBandLdltF f(2, 1);
  f.set(0, 0, cplx{1e-10, 1e-10});
  f.set(1, 0, cplx{1.0, 0.5});
  f.set(1, 1, cplx{1.0, 0.0});
  EXPECT_THROW(f.factorize(), maps::MapsError);
}

TEST(SymBandLdlt, GuardRejectsMultiplierGrowth) {
  // The leading pivot clears the floor relative to the 1e5 diagonal, but
  // eliminating with it needs a multiplier 5x the growth bound.
  mm::SymBandLdlt m(2, 1);
  m.set(0, 0, cplx{1.0, 0.0});
  m.set(1, 0, cplx{mm::kLdltMultiplierBound * 5.0, 0.0});
  m.set(1, 1, cplx{1e5, 0.0});
  EXPECT_THROW(m.factorize(), maps::MapsError);
}

TEST(SymBandLdlt, GuardRejectsSingularAndNonFinite) {
  mm::SymBandLdlt zero(8, 2);
  EXPECT_THROW(zero.factorize(), maps::MapsError);
  auto p = random_symmetric(16, 3, 5);
  p.ldlt.set(9, 9, cplx{std::numeric_limits<double>::quiet_NaN(), 0.0});
  EXPECT_THROW(p.ldlt.factorize(), maps::MapsError);
}
