#include "math/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "math/parallel.hpp"
#include "math/recycle.hpp"

namespace maps::math {

namespace {

// Register tile: kTR rows x kNR columns of C stay in SIMD registers for a
// whole K block while a (K x kNR) panel of B streams past them. The vector
// type is as wide as the compile target: a 32-byte type on a 16-byte
// instruction set is emulated pairwise and runs ~10x slower. The tile holds
// kAcc vector accumulators, which leaves room in 16 SIMD registers for one
// panel row and a broadcast A value: 4 x 16 (one row quad) under AVX,
// 2 x 16 under SSE.
#if defined(__AVX__)
constexpr std::size_t kVecBytes = 32;
#else
constexpr std::size_t kVecBytes = 16;
#endif
typedef float Vec __attribute__((vector_size(kVecBytes)));
constexpr index_t kLanes = static_cast<index_t>(kVecBytes / sizeof(float));
constexpr index_t kNR = 16;            // columns per tile = one B panel
constexpr index_t kNV = kNR / kLanes;  // vectors per tile row
constexpr index_t kAcc = 8;
constexpr index_t kTR = kAcc / kNV;    // rows per register tile
constexpr index_t kMR = 4;             // rows per parallel work item (a quad)
// K block: a (kKC x kNR) panel is 16 KB, so it stays L1-resident while every
// row tile of the block being computed sweeps it.
constexpr index_t kKC = 256;

Vec load_vec(const float* p) {
  Vec v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_vec(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

/// Pack op(X) = X^T (rows x cols, X stored cols x rows with leading
/// dimension ldx) into a contiguous row-major buffer, in 32x32 tiles so both
/// source and destination touch whole cache lines.
void pack_transposed(const float* X, index_t rows, index_t cols, index_t ldx,
                     float* out) {
  constexpr index_t kTile = 32;
  for (index_t r0 = 0; r0 < rows; r0 += kTile) {
    const index_t r1 = std::min(rows, r0 + kTile);
    for (index_t c0 = 0; c0 < cols; c0 += kTile) {
      const index_t c1 = std::min(cols, c0 + kTile);
      for (index_t r = r0; r < r1; ++r) {
        for (index_t c = c0; c < c1; ++c) out[r * cols + c] = X[c * ldx + r];
      }
    }
  }
}

void scale_rows(float* C, index_t ldc, index_t rows, index_t N, float beta) {
  for (index_t r = 0; r < rows; ++r) {
    float* c = C + r * ldc;
    if (beta == 0.0f) {
      std::memset(c, 0, static_cast<std::size_t>(N) * sizeof(float));
    } else {
      for (index_t j = 0; j < N; ++j) c[j] *= beta;
    }
  }
}

/// Copy rows [0, kc) of the ragged last B panel (nr < kNR columns) into a
/// contiguous (kc x kNR) panel, zero-padding columns [nr, kNR).
void pad_panel(const float* B, index_t ldb, index_t kc, index_t nr, float* out) {
  for (index_t k = 0; k < kc; ++k) {
    for (index_t j = 0; j < kNR; ++j) out[k * kNR + j] = j < nr ? B[k * ldb + j] : 0.0f;
  }
}

/// How a tile's C values enter the accumulators: as stored (a later K
/// block), scaled by beta (the first block), or zero (first block, beta = 0,
/// so stale NaNs in C are never read).
enum class Seed { Load, Scale, Zero };

/// C[0:R, 0:kNR) += A[0:R, 0:kc) * B[0:kc, 0:kNR), with the tile held in
/// registers; A already holds alpha * a (see sgemm). Every C element sees
/// exactly the scalar sequence "c = beta * c, then c += a_k * b_k for
/// ascending k", whatever R, the tile or the K block, so results do not
/// depend on the tiling.
template <index_t R>
void micro_kernel(index_t kc, const float* A, index_t lda, const float* B,
                  index_t ldb, Seed seed, float beta, float* C, index_t ldc) {
  Vec acc[R][kNV];
  for (index_t r = 0; r < R; ++r) {
    for (index_t v = 0; v < kNV; ++v) {
      if (seed == Seed::Zero) {
        acc[r][v] = Vec{};
      } else {
        acc[r][v] = load_vec(C + r * ldc + v * kLanes);
        if (seed == Seed::Scale) acc[r][v] *= beta;
      }
    }
  }
  for (index_t k = 0; k < kc; ++k) {
    Vec b[kNV];
    for (index_t v = 0; v < kNV; ++v) b[v] = load_vec(B + k * ldb + v * kLanes);
    for (index_t r = 0; r < R; ++r) {
      const float a = A[r * lda + k];
      for (index_t v = 0; v < kNV; ++v) acc[r][v] += a * b[v];
    }
  }
  for (index_t r = 0; r < R; ++r) {
    for (index_t v = 0; v < kNV; ++v) store_vec(C + r * ldc + v * kLanes, acc[r][v]);
  }
}

/// micro_kernel<rows> for 1 <= rows <= R.
template <index_t R>
void run_tile(index_t rows, index_t kc, const float* A, index_t lda, const float* B,
              index_t ldb, Seed seed, float beta, float* C, index_t ldc) {
  if constexpr (R > 1) {
    if (rows < R) {
      run_tile<R - 1>(rows, kc, A, lda, B, ldb, seed, beta, C, ldc);
      return;
    }
  }
  micro_kernel<R>(kc, A, lda, B, ldb, seed, beta, C, ldc);
}

/// The block C[i_begin:i_end, j_begin:j_end) = A * B + beta * C for
/// row-major A (lda, alpha already applied) and B (ldb); j_begin is a
/// multiple of kNR. Loops run K block, then B panel, then row tiles, so each
/// panel is loaded into L1 once and reused by every tile of the block. Full
/// panels are read in place; the ragged last one (N % kNR columns) is copied
/// into a zero-padded panel and its tiles go through a padded C tile.
void gemm_block(index_t i_begin, index_t i_end, index_t j_begin, index_t j_end,
                index_t K, const float* A, index_t lda, const float* B,
                index_t ldb, float beta, float* C, index_t ldc) {
  alignas(64) float b_pad[kKC * kNR];  // rows [0, kc) written before use
  alignas(64) float c_pad[kTR * kNR] = {};
  for (index_t k0 = 0; k0 < K; k0 += kKC) {
    const index_t kc = std::min(kKC, K - k0);
    const Seed seed = k0 > 0 ? Seed::Load : (beta == 0.0f ? Seed::Zero : Seed::Scale);
    for (index_t j0 = j_begin; j0 < j_end; j0 += kNR) {
      const index_t nr = std::min(kNR, j_end - j0);
      const float* panel = B + k0 * ldb + j0;
      index_t ldp = ldb;
      if (nr < kNR) {
        pad_panel(panel, ldb, kc, nr, b_pad);
        panel = b_pad;
        ldp = kNR;
      }
      for (index_t i0 = i_begin; i0 < i_end; i0 += kTR) {
        const index_t rows = std::min(kTR, i_end - i0);
        const float* a = A + i0 * lda + k0;
        float* c = C + i0 * ldc + j0;
        if (nr == kNR) {
          run_tile<kTR>(rows, kc, a, lda, panel, ldp, seed, beta, c, ldc);
          continue;
        }
        for (index_t r = 0; r < rows; ++r) {
          std::copy_n(c + r * ldc, nr, c_pad + r * kNR);
        }
        run_tile<kTR>(rows, kc, a, lda, panel, ldp, seed, beta, c_pad, kNR);
        for (index_t r = 0; r < rows; ++r) {
          std::copy_n(c_pad + r * kNR, nr, c + r * ldc);
        }
      }
    }
  }
}

}  // namespace

namespace detail {
void naive_gemm(Trans trans_a, Trans trans_b, index_t M, index_t N, index_t K,
                float alpha, const float* A, index_t lda, const float* B,
                index_t ldb, float beta, float* C, index_t ldc) {
  for (index_t i = 0; i < M; ++i) {
    for (index_t j = 0; j < N; ++j) {
      double s = 0.0;
      for (index_t k = 0; k < K; ++k) {
        const float a = trans_a == Trans::No ? A[i * lda + k] : A[k * lda + i];
        const float b = trans_b == Trans::No ? B[k * ldb + j] : B[j * ldb + k];
        s += static_cast<double>(a) * b;
      }
      C[i * ldc + j] = alpha * static_cast<float>(s) + beta * C[i * ldc + j];
    }
  }
}
}  // namespace detail

void sgemm(Trans trans_a, Trans trans_b, index_t M, index_t N, index_t K,
           float alpha, const float* A, index_t lda, const float* B, index_t ldb,
           float beta, float* C, index_t ldc) {
  if (M <= 0 || N <= 0) return;
  if (K <= 0 || alpha == 0.0f) {
    scale_rows(C, ldc, M, N, beta);
    return;
  }

  // The kernel reads row-major operands in place through their leading
  // dimensions; a transposed operand is packed (transposed) first. A is also
  // packed when alpha != 1, as alpha * a: the same rounded product the
  // kernel would otherwise form at every k step of every tile, so the bits
  // do not change and the kernel's inner loop carries no alpha multiply.
  RecycledVector<float> a_buf, b_buf;
  const float* Ap = A;
  index_t lda_p = lda;
  if (trans_a == Trans::Yes || alpha != 1.0f) {
    a_buf.resize(static_cast<std::size_t>(M) * K);
    if (trans_a == Trans::Yes) {
      pack_transposed(A, M, K, lda, a_buf.data());
    } else {
      for (index_t i = 0; i < M; ++i) std::copy_n(A + i * lda, K, a_buf.data() + i * K);
    }
    if (alpha != 1.0f) {
      for (float& v : a_buf) v *= alpha;
    }
    Ap = a_buf.data();
    lda_p = K;
  }
  const float* Bp = B;
  index_t ldb_p = ldb;
  if (trans_b == Trans::Yes) {
    b_buf.resize(static_cast<std::size_t>(K) * N);
    pack_transposed(B, K, N, ldb, b_buf.data());
    Bp = b_buf.data();
    ldb_p = N;
  }

  // Each chunk of the thread split re-reads one operand in full: all of B
  // when chunks are runs of row quads, all of A when they are runs of column
  // panels. Split the dimension whose whole operand is the larger one (rows
  // of A when M >= N), so the smaller one is what gets re-read. Chunks never
  // share a C entry, and an entry's bits do not depend on its block.
  if (M >= N) {
    const index_t quads = (M + kMR - 1) / kMR;
    parallel_for_chunked(0, static_cast<std::size_t>(quads),
                         [&](std::size_t q0, std::size_t q1) {
                           gemm_block(static_cast<index_t>(q0) * kMR,
                                      std::min(M, static_cast<index_t>(q1) * kMR),
                                      0, N, K, Ap, lda_p, Bp, ldb_p, beta, C, ldc);
                         });
  } else {
    const index_t panels = (N + kNR - 1) / kNR;
    parallel_for_chunked(0, static_cast<std::size_t>(panels),
                         [&](std::size_t p0, std::size_t p1) {
                           gemm_block(0, M, static_cast<index_t>(p0) * kNR,
                                      std::min(N, static_cast<index_t>(p1) * kNR),
                                      K, Ap, lda_p, Bp, ldb_p, beta, C, ldc);
                         });
  }
}

void im2col(const float* x, index_t C, index_t H, index_t W, index_t k, float* col) {
  const index_t r = k / 2;
  const index_t hw = H * W;
  for (index_t c = 0; c < C; ++c) {
    const float* plane = x + c * hw;
    for (index_t kh = 0; kh < k; ++kh) {
      const index_t dh = kh - r;
      for (index_t kw = 0; kw < k; ++kw) {
        const index_t dw = kw - r;
        float* row = col + ((c * k + kh) * k + kw) * hw;
        // Source column range that stays in-bounds for this shift.
        const index_t w_lo = std::max<index_t>(0, -dw);
        const index_t w_hi = std::min(W, W - dw);
        for (index_t h = 0; h < H; ++h) {
          float* dst = row + h * W;
          const index_t hh = h + dh;
          if (hh < 0 || hh >= H) {
            std::memset(dst, 0, static_cast<std::size_t>(W) * sizeof(float));
            continue;
          }
          if (w_lo > 0) {
            std::memset(dst, 0, static_cast<std::size_t>(w_lo) * sizeof(float));
          }
          if (w_hi > w_lo) {
            std::memcpy(dst + w_lo, plane + hh * W + w_lo + dw,
                        static_cast<std::size_t>(w_hi - w_lo) * sizeof(float));
          }
          if (w_hi < W) {
            std::memset(dst + w_hi, 0,
                        static_cast<std::size_t>(W - w_hi) * sizeof(float));
          }
        }
      }
    }
  }
}

void col2im(const float* col, index_t C, index_t H, index_t W, index_t k, float* x) {
  const index_t r = k / 2;
  const index_t hw = H * W;
  for (index_t c = 0; c < C; ++c) {
    float* plane = x + c * hw;
    for (index_t kh = 0; kh < k; ++kh) {
      const index_t dh = kh - r;
      for (index_t kw = 0; kw < k; ++kw) {
        const index_t dw = kw - r;
        const float* row = col + ((c * k + kh) * k + kw) * hw;
        const index_t w_lo = std::max<index_t>(0, -dw);
        const index_t w_hi = std::min(W, W - dw);
        for (index_t h = 0; h < H; ++h) {
          const index_t hh = h + dh;
          if (hh < 0 || hh >= H || w_hi <= w_lo) continue;
          const float* src = row + h * W + w_lo;
          float* dst = plane + hh * W + w_lo + dw;
          for (index_t w = 0; w < w_hi - w_lo; ++w) dst[w] += src[w];
        }
      }
    }
  }
}

}  // namespace maps::math
