// GEMM substrate: blocked sgemm vs the naive reference over every transpose
// combination, alpha/beta paths, leading-dimension handling, tile-independent
// rounding, and the im2col/col2im pair (layout, round-trip adjoint identity).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "math/gemm.hpp"
#include "math/rng.hpp"

namespace mm = maps::math;
using maps::index_t;

namespace {

std::vector<float> random_vec(std::size_t n, unsigned seed) {
  mm::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

void expect_near_all(const std::vector<float>& a, const std::vector<float>& b,
                     double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at index " << i;
  }
}

struct GemmCase {
  mm::Trans ta, tb;
  index_t M, N, K;
  float alpha, beta;
};

void run_case(const GemmCase& c, unsigned seed) {
  // Stored dims: A is (M x K) or (K x M) when transposed; same for B.
  const index_t a_rows = c.ta == mm::Trans::No ? c.M : c.K;
  const index_t a_cols = c.ta == mm::Trans::No ? c.K : c.M;
  const index_t b_rows = c.tb == mm::Trans::No ? c.K : c.N;
  const index_t b_cols = c.tb == mm::Trans::No ? c.N : c.K;
  const auto A = random_vec(static_cast<std::size_t>(a_rows * a_cols), seed);
  const auto B = random_vec(static_cast<std::size_t>(b_rows * b_cols), seed + 1);
  auto C = random_vec(static_cast<std::size_t>(c.M * c.N), seed + 2);
  auto C_ref = C;

  mm::sgemm(c.ta, c.tb, c.M, c.N, c.K, c.alpha, A.data(), a_cols, B.data(),
            b_cols, c.beta, C.data(), c.N);
  mm::detail::naive_gemm(c.ta, c.tb, c.M, c.N, c.K, c.alpha, A.data(), a_cols,
                         B.data(), b_cols, c.beta, C_ref.data(), c.N);
  expect_near_all(C, C_ref, 1e-3 * std::max<index_t>(1, c.K));
}

}  // namespace

TEST(Sgemm, MatchesNaiveNoTrans) {
  run_case({mm::Trans::No, mm::Trans::No, 33, 47, 29, 1.0f, 0.0f}, 11);
}

TEST(Sgemm, MatchesNaiveTransA) {
  run_case({mm::Trans::Yes, mm::Trans::No, 21, 35, 53, 1.0f, 0.0f}, 13);
}

TEST(Sgemm, MatchesNaiveTransB) {
  run_case({mm::Trans::No, mm::Trans::Yes, 18, 64, 40, 1.0f, 0.0f}, 17);
}

TEST(Sgemm, MatchesNaiveTransBoth) {
  run_case({mm::Trans::Yes, mm::Trans::Yes, 25, 19, 31, 1.0f, 0.0f}, 19);
}

TEST(Sgemm, BetaAccumulates) {
  run_case({mm::Trans::No, mm::Trans::No, 16, 24, 12, 1.0f, 1.0f}, 23);
  run_case({mm::Trans::No, mm::Trans::Yes, 9, 9, 9, 0.5f, -2.0f}, 29);
}

TEST(Sgemm, AlphaZeroScalesOnly) {
  // alpha = 0 must not read A/B garbage paths; C = beta * C exactly.
  auto C = random_vec(12 * 7, 31);
  auto expect = C;
  for (auto& v : expect) v *= 0.25f;
  mm::sgemm(mm::Trans::No, mm::Trans::No, 12, 7, 0, 1.0f, nullptr, 1, nullptr, 1,
            0.25f, C.data(), 7);
  expect_near_all(C, expect, 1e-7);
}

TEST(Sgemm, LargerThanBlockSizes) {
  // Exercise the K and N blocking boundaries (kKC = 256, kNC = 512).
  run_case({mm::Trans::No, mm::Trans::No, 5, 520, 260, 1.0f, 0.0f}, 37);
}

TEST(Sgemm, RemainderRowsBelowQuad) {
  run_case({mm::Trans::No, mm::Trans::No, 3, 17, 21, 1.0f, 1.0f}, 41);
  run_case({mm::Trans::No, mm::Trans::No, 1, 5, 8, 1.0f, 0.0f}, 43);
}

TEST(Sgemm, NonTightLeadingDims) {
  // op dims 4x3 * 3x5 embedded in larger stored arrays (lda=7, ldb=9, ldc=6).
  const index_t M = 4, N = 5, K = 3, lda = 7, ldb = 9, ldc = 6;
  const auto A = random_vec(static_cast<std::size_t>(M * lda), 47);
  const auto B = random_vec(static_cast<std::size_t>(K * ldb), 53);
  auto C = random_vec(static_cast<std::size_t>(M * ldc), 59);
  auto C_ref = C;
  mm::sgemm(mm::Trans::No, mm::Trans::No, M, N, K, 1.0f, A.data(), lda, B.data(),
            ldb, 0.0f, C.data(), ldc);
  mm::detail::naive_gemm(mm::Trans::No, mm::Trans::No, M, N, K, 1.0f, A.data(),
                         lda, B.data(), ldb, 0.0f, C_ref.data(), ldc);
  // Only the M x N window should change; padding columns must be untouched.
  expect_near_all(C, C_ref, 1e-4);
}

TEST(Sgemm, EntriesDoNotDependOnTheirTile) {
  // Each C entry must come out bit-identical whether it sits in a full
  // register tile or a ragged one, in a full B panel or the padded last one,
  // or in whichever rows or columns a thread got: recompute row and column
  // sub-blocks through offset pointers (which moves every entry to another
  // tile position and can flip the thread split) and compare bits. Shapes cover M % 4 != 0, N % 16 != 0,
  // N < 16 and K > 256 (two K blocks); batched inference relies on this.
  struct Shape {
    index_t M, N, K;
    float alpha, beta;
  };
  struct Block {
    index_t r0, rows, c0, cols;
  };
  for (const auto ta : {mm::Trans::No, mm::Trans::Yes}) {
    for (const auto tb : {mm::Trans::No, mm::Trans::Yes}) {
      for (const Shape& s : {Shape{13, 37, 300, 1.0f, 0.0f},
                             Shape{7, 9, 270, 0.75f, 0.5f},
                             Shape{22, 50, 33, 1.0f, 1.0f}}) {
        const index_t lda = ta == mm::Trans::No ? s.K : s.M;
        const index_t ldb = tb == mm::Trans::No ? s.N : s.K;
        const auto A = random_vec(static_cast<std::size_t>(s.M * s.K), 61);
        const auto B = random_vec(static_cast<std::size_t>(s.K * s.N), 67);
        const auto C0 = random_vec(static_cast<std::size_t>(s.M * s.N), 71);
        auto full = C0;
        mm::sgemm(ta, tb, s.M, s.N, s.K, s.alpha, A.data(), lda, B.data(), ldb,
                  s.beta, full.data(), s.N);
        for (const Block& b : {Block{5, 1, 0, s.N}, Block{0, s.M, s.N - 1, 1},
                               Block{1, s.M - 3, 3, s.N - 5},
                               Block{s.M - 2, 2, 2, s.N / 2}}) {
          const float* a = ta == mm::Trans::No ? A.data() + b.r0 * lda : A.data() + b.r0;
          const float* bb = tb == mm::Trans::No ? B.data() + b.c0 : B.data() + b.c0 * ldb;
          auto part = C0;
          mm::sgemm(ta, tb, b.rows, b.cols, s.K, s.alpha, a, lda, bb, ldb, s.beta,
                    part.data() + b.r0 * s.N + b.c0, s.N);
          for (index_t i = 0; i < s.M; ++i) {
            for (index_t j = 0; j < s.N; ++j) {
              const bool inside = i >= b.r0 && i < b.r0 + b.rows && j >= b.c0 &&
                                  j < b.c0 + b.cols;
              const float want = inside ? full[i * s.N + j] : C0[i * s.N + j];
              ASSERT_EQ(std::memcmp(&part[i * s.N + j], &want, sizeof(float)), 0)
                  << "trans " << (ta == mm::Trans::Yes) << (tb == mm::Trans::Yes)
                  << " shape " << s.M << "x" << s.N << "x" << s.K << " block at ("
                  << b.r0 << ", " << b.c0 << ") entry (" << i << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

TEST(Im2col, LayoutMatchesDirectIndexing) {
  const index_t C = 2, H = 5, W = 4, k = 3, r = k / 2;
  const auto x = random_vec(static_cast<std::size_t>(C * H * W), 61);
  std::vector<float> col(static_cast<std::size_t>(C * k * k * H * W), -7.0f);
  mm::im2col(x.data(), C, H, W, k, col.data());
  for (index_t c = 0; c < C; ++c) {
    for (index_t kh = 0; kh < k; ++kh) {
      for (index_t kw = 0; kw < k; ++kw) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t w = 0; w < W; ++w) {
            const index_t hh = h + kh - r, ww = w + kw - r;
            const float want =
                (hh < 0 || hh >= H || ww < 0 || ww >= W)
                    ? 0.0f
                    : x[static_cast<std::size_t>((c * H + hh) * W + ww)];
            const float got = col[static_cast<std::size_t>(
                (((c * k + kh) * k + kw) * H + h) * W + w)];
            ASSERT_FLOAT_EQ(got, want)
                << "c=" << c << " kh=" << kh << " kw=" << kw << " h=" << h
                << " w=" << w;
          }
        }
      }
    }
  }
}

TEST(Im2col, Col2imIsExactAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c — the identity the conv
  // input-gradient path relies on.
  const index_t C = 3, H = 6, W = 5, k = 3;
  const std::size_t nx = static_cast<std::size_t>(C * H * W);
  const std::size_t nc = static_cast<std::size_t>(C * k * k * H * W);
  const auto x = random_vec(nx, 67);
  const auto c = random_vec(nc, 71);

  std::vector<float> col(nc, 0.0f);
  mm::im2col(x.data(), C, H, W, k, col.data());
  std::vector<float> xt(nx, 0.0f);
  mm::col2im(c.data(), C, H, W, k, xt.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < nc; ++i) lhs += static_cast<double>(col[i]) * c[i];
  for (std::size_t i = 0; i < nx; ++i) rhs += static_cast<double>(x[i]) * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, RoundTripCountsContributions) {
  // col2im(im2col(x)) multiplies each pixel by the number of kernel windows
  // that cover it (k*k in the interior, fewer at borders).
  const index_t C = 1, H = 4, W = 4, k = 3;
  std::vector<float> x(static_cast<std::size_t>(H * W), 1.0f);
  std::vector<float> col(static_cast<std::size_t>(k * k * H * W), 0.0f);
  mm::im2col(x.data(), C, H, W, k, col.data());
  std::vector<float> back(static_cast<std::size_t>(H * W), 0.0f);
  mm::col2im(col.data(), C, H, W, k, back.data());
  // Corner pixel is covered by 4 windows, edge by 6, interior by 9.
  EXPECT_FLOAT_EQ(back[0], 4.0f);
  EXPECT_FLOAT_EQ(back[1], 6.0f);
  EXPECT_FLOAT_EQ(back[5], 9.0f);  // (1,1) interior
}
