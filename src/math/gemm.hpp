// Dense single-precision kernels for the MAPS-Train neural substrate.
//
// sgemm is a register-tiled, thread-split C = alpha*op(A)*op(B) + beta*C
// over row-major storage. Its micro-kernel keeps a tile of C (4 x 16 floats
// under AVX, 2 x 16 under SSE; GCC/Clang vector types as wide as the
// compile target) in SIMD registers for a whole K block, broadcasting A
// against a 16-column panel of B, so the inner loop issues only FMAs and
// loads of A and B. Panels are read in place through ldb; only the ragged
// last one is copied, zero-padded. Within a thread the loop runs K block
// (256 rows: a panel stays L1-resident), then panel, then row tiles.
// Transposed operands are packed (transposed) first, and A is packed as
// alpha*a when alpha != 1, so the kernel carries no alpha. The thread split
// (parallel_for_chunked) runs over row quads of C when M >= N and over
// column panels otherwise: each chunk re-reads the other operand in full, so
// the split leaves the smaller of A and B to be re-read.
//
// Every C entry sees the same scalar sequence, c = beta*c and then
// c += (alpha*a_k)*b_k in ascending k, wherever it falls in the tiling or
// the thread split. So an entry's bits do not depend on its tile or on the
// matrix around it: batched and single-sample inference agree bit for bit.
//
// im2col/col2im lower stride-1 zero-"same"-padded NCHW convolution onto that
// GEMM: im2col unrolls one sample's (C, H, W) plane into a (C*k*k) x (H*W)
// column matrix whose rows are shifted copies of the image (filled with
// row-wise memcpy, no per-element bounds checks); col2im is its exact
// adjoint (scatter-add), which is what the conv input-gradient needs.
#pragma once

#include "math/types.hpp"

namespace maps::math {

enum class Trans { No, Yes };

/// C = alpha * op(A) * op(B) + beta * C.
/// op(A) is M x K, op(B) is K x N, C is M x N; all row-major with leading
/// dimensions lda/ldb/ldc (of the *stored* matrices A, B, not of op(...)).
void sgemm(Trans trans_a, Trans trans_b, index_t M, index_t N, index_t K,
           float alpha, const float* A, index_t lda, const float* B, index_t ldb,
           float beta, float* C, index_t ldc);

/// Unroll one (C, H, W) image plane into col, a (C*k*k) x (H*W) row-major
/// matrix for stride-1 convolution with zero "same" padding (odd k).
/// col row (c*k*k + kh*k + kw) holds the image shifted by (kh - k/2, kw - k/2).
void im2col(const float* x, index_t C, index_t H, index_t W, index_t k, float* col);

/// Adjoint of im2col: accumulate col back into the (C, H, W) plane x.
/// x must be zero-initialized by the caller (col2im adds into it).
void col2im(const float* col, index_t C, index_t H, index_t W, index_t k, float* x);

namespace detail {
/// Unblocked reference GEMM (tests and fallback for degenerate shapes).
void naive_gemm(Trans trans_a, Trans trans_b, index_t M, index_t N, index_t K,
                float alpha, const float* A, index_t lda, const float* B,
                index_t ldb, float beta, float* C, index_t ldc);
}  // namespace detail

}  // namespace maps::math
