#include "math/banded_split.hpp"

#include <algorithm>
#include <cmath>

namespace maps::math {

namespace {

/// out = sum_t (a[t] * x[t]) over split factor storage: the gather-reduction
/// core of the transposed solves. Four independent accumulator pairs break
/// the floating-point add dependency chain — a single chained accumulator
/// runs at FMA *latency* per element (~4x slower than the complex BandMatrix
/// reference); spread across four chains the loop runs at FMA throughput.
/// Accumulation is always double; fp32 factor loads widen on the fly.
template <typename T>
inline void dot_accum(const T* __restrict ar, const T* __restrict ai,
                      const cplx* __restrict x, std::size_t len, double& out_r,
                      double& out_i) {
  double sr0 = 0.0, si0 = 0.0, sr1 = 0.0, si1 = 0.0;
  double sr2 = 0.0, si2 = 0.0, sr3 = 0.0, si3 = 0.0;
  std::size_t t = 0;
  for (; t + 4 <= len; t += 4) {
    sr0 += ar[t] * x[t].real() - ai[t] * x[t].imag();
    si0 += ar[t] * x[t].imag() + ai[t] * x[t].real();
    sr1 += ar[t + 1] * x[t + 1].real() - ai[t + 1] * x[t + 1].imag();
    si1 += ar[t + 1] * x[t + 1].imag() + ai[t + 1] * x[t + 1].real();
    sr2 += ar[t + 2] * x[t + 2].real() - ai[t + 2] * x[t + 2].imag();
    si2 += ar[t + 2] * x[t + 2].imag() + ai[t + 2] * x[t + 2].real();
    sr3 += ar[t + 3] * x[t + 3].real() - ai[t + 3] * x[t + 3].imag();
    si3 += ar[t + 3] * x[t + 3].imag() + ai[t + 3] * x[t + 3].real();
  }
  for (; t < len; ++t) {
    sr0 += ar[t] * x[t].real() - ai[t] * x[t].imag();
    si0 += ar[t] * x[t].imag() + ai[t] * x[t].real();
  }
  out_r = (sr0 + sr1) + (sr2 + sr3);
  out_i = (si0 + si1) + (si2 + si3);
}

/// b[t] -= (ar[t] + i ai[t]) * (br + i bi) for t in [0, len): the scatter
/// counterpart of dot_accum, shared by the forward solves' L-application and
/// back-substitution loops. Unlike the transposed gather, every update here
/// targets a distinct element — there is no floating-point dependency chain
/// for multiple accumulators to break — so the dot_accum treatment was
/// measured to buy nothing (and a 4-wide manual unroll regressed the
/// multi-RHS sweep ~30%; see the notes in BENCH_kernels.json). This
/// restrict-qualified split-load form performs at parity with the complex-
/// arithmetic loop it replaces and keeps the scatter in one place. Per-
/// element operations and order are unchanged: results stay bit-identical.
template <typename T>
inline void axpy_scatter(const T* __restrict ar, const T* __restrict ai,
                         double br, double bi, cplx* __restrict b,
                         std::size_t len) {
  double* __restrict bd = reinterpret_cast<double*>(b);
  for (std::size_t t = 0; t < len; ++t) {
    const double a_r = ar[t], a_i = ai[t];
    bd[2 * t + 0] -= a_r * br - a_i * bi;
    bd[2 * t + 1] -= a_r * bi + a_i * br;
  }
}

}  // namespace

template <typename T>
SplitBandMatrixT<T>::SplitBandMatrixT(index_t n, index_t kl, index_t ku)
    : n_(n), kl_(kl), ku_(ku), ldab_(2 * kl + ku + 1) {
  require(n > 0 && kl >= 0 && ku >= 0, "SplitBandMatrix: invalid shape");
  require(kl < n && ku < n, "SplitBandMatrix: band exceeds dimension");
  const std::size_t cells = static_cast<std::size_t>(ldab_) * static_cast<std::size_t>(n_);
  re_.assign(cells, T(0));
  im_.assign(cells, T(0));
  ipiv_.assign(static_cast<std::size_t>(n_), 0);
}

template <typename T>
template <typename U>
SplitBandMatrixT<T>::SplitBandMatrixT(const SplitBandMatrixT<U>& other)
    : n_(other.n_), kl_(other.kl_), ku_(other.ku_), ldab_(other.ldab_),
      ipiv_(other.ipiv_) {
  require(!other.factorized_,
          "SplitBandMatrix: cannot precision-convert factorized storage");
  re_.resize(other.re_.size());
  im_.resize(other.im_.size());
  for (std::size_t t = 0; t < re_.size(); ++t) {
    re_[t] = static_cast<T>(other.re_[t]);
    im_[t] = static_cast<T>(other.im_[t]);
  }
}

template <typename T>
void SplitBandMatrixT<T>::set(index_t i, index_t j, cplx v) {
  require(i >= 0 && i < n_ && j >= 0 && j < n_, "SplitBandMatrix::set: out of range");
  require(i - j <= kl_ && j - i <= ku_, "SplitBandMatrix::set: outside band");
  require(!factorized_, "SplitBandMatrix::set: matrix already factorized");
  re_[at(i, j)] = static_cast<T>(v.real());
  im_[at(i, j)] = static_cast<T>(v.imag());
}

template <typename T>
cplx SplitBandMatrixT<T>::get(index_t i, index_t j) const {
  require(i >= 0 && i < n_ && j >= 0 && j < n_, "SplitBandMatrix::get: out of range");
  if (i - j > kl_ || j - i > ku_) return cplx{};
  return {static_cast<double>(re_[at(i, j)]), static_cast<double>(im_[at(i, j)])};
}

// xGBTF2 on split storage. Column j: pivot among the kl rows below the
// diagonal (|re| + |im| magnitude, matching BandMatrix so the pivot sequence
// is identical), swap rows across the affected columns, scale the
// multipliers by 1/pivot, then rank-1 update the trailing window. The two
// innermost loops run over contiguous scalar arrays — no complex arithmetic.
// All elimination arithmetic stays in T (fp32 for the float instantiation —
// that is where the 2x bandwidth/SIMD win of the mixed path comes from).
template <typename T>
void SplitBandMatrixT<T>::factorize() {
  require(!factorized_, "SplitBandMatrix::factorize: already factorized");
  index_t ju = 0;  // rightmost column touched by row interchanges so far

  for (index_t j = 0; j < n_; ++j) {
    const index_t km = std::min(kl_, n_ - 1 - j);
    const std::size_t d = at(j, j);
    index_t jp = 0;
    T best = std::abs(re_[d]) + std::abs(im_[d]);
    for (index_t k = 1; k <= km; ++k) {
      const T m = std::abs(re_[d + static_cast<std::size_t>(k)]) +
                  std::abs(im_[d + static_cast<std::size_t>(k)]);
      if (m > best) {
        best = m;
        jp = k;
      }
    }
    ipiv_[static_cast<std::size_t>(j)] = j + jp;
    if (best == T(0)) throw MapsError("SplitBandMatrix::factorize: singular matrix");

    ju = std::max(ju, std::min(j + ku_ + jp, n_ - 1));
    if (jp != 0) {
      for (index_t col = j; col <= ju; ++col) {
        std::swap(re_[at(j, col)], re_[at(j + jp, col)]);
        std::swap(im_[at(j, col)], im_[at(j + jp, col)]);
      }
    }
    if (km > 0) {
      const T dr = re_[d], di = im_[d];
      const T den = dr * dr + di * di;
      if (den == T(0)) {
        // fp32 can underflow a pivot whose |re| + |im| survived: |z|^2
        // vanishes before |z| does. Refuse rather than divide by zero.
        throw MapsError("SplitBandMatrix::factorize: pivot underflow");
      }
      const T pr = dr / den, pi = -di / den;  // 1 / pivot
      T* __restrict mr = &re_[d];
      T* __restrict mi = &im_[d];
      for (index_t k = 1; k <= km; ++k) {
        const T ar = mr[k], ai = mi[k];
        mr[k] = ar * pr - ai * pi;
        mi[k] = ar * pi + ai * pr;
      }
      for (index_t col = j + 1; col <= ju; ++col) {
        const std::size_t c = at(j, col);
        const T br = re_[c], bi = im_[c];
        if (br != T(0) || bi != T(0)) {
          T* __restrict cr = &re_[c];
          T* __restrict ci = &im_[c];
          for (index_t k = 1; k <= km; ++k) {
            const T ar = mr[k], ai = mi[k];
            cr[k] -= ar * br - ai * bi;
            ci[k] -= ar * bi + ai * br;
          }
        }
      }
    }
  }
  factorized_ = true;
}

// xGBTRS 'N': apply L (with interchanges), then banded back-substitution.
template <typename T>
void SplitBandMatrixT<T>::solve_inplace(std::vector<cplx>& b) const {
  require(factorized_, "SplitBandMatrix::solve: factorize() first");
  require(static_cast<index_t>(b.size()) == n_, "SplitBandMatrix::solve: size mismatch");
  const index_t kv = kl_ + ku_;

  if (kl_ > 0) {
    for (index_t j = 0; j < n_ - 1; ++j) {
      const index_t piv = ipiv_[static_cast<std::size_t>(j)];
      if (piv != j) std::swap(b[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(piv)]);
      const index_t km = std::min(kl_, n_ - 1 - j);
      const cplx bj = b[static_cast<std::size_t>(j)];
      if (bj != cplx{}) {
        const std::size_t d = at(j, j);
        axpy_scatter(&re_[d + 1], &im_[d + 1], bj.real(), bj.imag(),
                     &b[static_cast<std::size_t>(j + 1)],
                     static_cast<std::size_t>(km));
      }
    }
  }
  for (index_t j = n_ - 1; j >= 0; --j) {
    const std::size_t d = at(j, j);
    const double dr = re_[d], di = im_[d];
    const double den = dr * dr + di * di;
    const cplx bj0 = b[static_cast<std::size_t>(j)];
    const double br = (bj0.real() * dr + bj0.imag() * di) / den;
    const double bi = (bj0.imag() * dr - bj0.real() * di) / den;
    b[static_cast<std::size_t>(j)] = cplx{br, bi};
    const index_t ilo = std::max<index_t>(0, j - kv);
    axpy_scatter(&re_[at(ilo, j)], &im_[at(ilo, j)], br, bi,
                 &b[static_cast<std::size_t>(ilo)],
                 static_cast<std::size_t>(j - ilo));
  }
}

// xGBTRS 'T': U^T forward substitution, then L^T and the interchanges in
// reverse order.
template <typename T>
void SplitBandMatrixT<T>::solve_transposed_inplace(std::vector<cplx>& b) const {
  require(factorized_, "SplitBandMatrix::solve_transposed: factorize() first");
  require(static_cast<index_t>(b.size()) == n_,
          "SplitBandMatrix::solve_transposed: size mismatch");
  const index_t kv = kl_ + ku_;

  for (index_t j = 0; j < n_; ++j) {
    const index_t ilo = std::max<index_t>(0, j - kv);
    double ar_sum = 0.0, ai_sum = 0.0;
    dot_accum(&re_[at(ilo, j)], &im_[at(ilo, j)], &b[static_cast<std::size_t>(ilo)],
              static_cast<std::size_t>(j - ilo), ar_sum, ai_sum);
    const double sr = b[static_cast<std::size_t>(j)].real() - ar_sum;
    const double si = b[static_cast<std::size_t>(j)].imag() - ai_sum;
    const std::size_t d = at(j, j);
    const double dr = re_[d], di = im_[d];
    const double den = dr * dr + di * di;
    b[static_cast<std::size_t>(j)] =
        cplx{(sr * dr + si * di) / den, (si * dr - sr * di) / den};
  }
  if (kl_ > 0) {
    for (index_t j = n_ - 2; j >= 0; --j) {
      const index_t km = std::min(kl_, n_ - 1 - j);
      const std::size_t d = at(j, j);
      double ar_sum = 0.0, ai_sum = 0.0;
      dot_accum(&re_[d + 1], &im_[d + 1], &b[static_cast<std::size_t>(j + 1)],
                static_cast<std::size_t>(km), ar_sum, ai_sum);
      b[static_cast<std::size_t>(j)] =
          cplx{b[static_cast<std::size_t>(j)].real() - ar_sum,
               b[static_cast<std::size_t>(j)].imag() - ai_sum};
      const index_t piv = ipiv_[static_cast<std::size_t>(j)];
      if (piv != j) std::swap(b[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(piv)]);
    }
  }
}

template <typename T>
void SplitBandMatrixT<T>::solve_multi_inplace(std::vector<std::vector<cplx>>& bs) const {
  require(factorized_, "SplitBandMatrix::solve_multi: factorize() first");
  for (const auto& b : bs) {
    require(static_cast<index_t>(b.size()) == n_,
            "SplitBandMatrix::solve_multi: size mismatch");
  }
  const index_t kv = kl_ + ku_;
  const std::size_t nrhs = bs.size();

  if (kl_ > 0) {
    for (index_t j = 0; j < n_ - 1; ++j) {
      const index_t piv = ipiv_[static_cast<std::size_t>(j)];
      const index_t km = std::min(kl_, n_ - 1 - j);
      const std::size_t d = at(j, j);
      for (std::size_t r = 0; r < nrhs; ++r) {
        auto& b = bs[r];
        if (piv != j) {
          std::swap(b[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(piv)]);
        }
        const cplx bj = b[static_cast<std::size_t>(j)];
        if (bj != cplx{}) {
          axpy_scatter(&re_[d + 1], &im_[d + 1], bj.real(), bj.imag(),
                       &b[static_cast<std::size_t>(j + 1)],
                       static_cast<std::size_t>(km));
        }
      }
    }
  }
  for (index_t j = n_ - 1; j >= 0; --j) {
    const std::size_t d = at(j, j);
    const double dr = re_[d], di = im_[d];
    const double den = dr * dr + di * di;
    const index_t ilo = std::max<index_t>(0, j - kv);
    const std::size_t c0 = at(ilo, j);
    for (std::size_t r = 0; r < nrhs; ++r) {
      auto& b = bs[r];
      const cplx bj0 = b[static_cast<std::size_t>(j)];
      const double br = (bj0.real() * dr + bj0.imag() * di) / den;
      const double bi = (bj0.imag() * dr - bj0.real() * di) / den;
      b[static_cast<std::size_t>(j)] = cplx{br, bi};
      axpy_scatter(&re_[c0], &im_[c0], br, bi, &b[static_cast<std::size_t>(ilo)],
                   static_cast<std::size_t>(j - ilo));
    }
  }
}

// Fused xGBTRS 'T' over the whole batch: the factor columns (the large,
// cache-hostile array) are read once per sweep position and applied to every
// RHS before moving on — the transposed analogue of solve_multi_inplace,
// which is what keeps adjoint batches on the one-factor-stream-per-batch
// cost model.
template <typename T>
void SplitBandMatrixT<T>::solve_transposed_multi_inplace(
    std::vector<std::vector<cplx>>& bs) const {
  require(factorized_, "SplitBandMatrix::solve_transposed_multi: factorize() first");
  for (const auto& b : bs) {
    require(static_cast<index_t>(b.size()) == n_,
            "SplitBandMatrix::solve_transposed_multi: size mismatch");
  }
  const index_t kv = kl_ + ku_;
  const std::size_t nrhs = bs.size();

  // U^T forward substitution. The factor column stays hot in cache while
  // every RHS consumes it; each per-RHS reduction runs on dot_accum's four
  // independent chains.
  for (index_t j = 0; j < n_; ++j) {
    const index_t ilo = std::max<index_t>(0, j - kv);
    const std::size_t c0 = at(ilo, j);
    const std::size_t d = at(j, j);
    const double dr = re_[d], di = im_[d];
    const double den = dr * dr + di * di;
    for (std::size_t r = 0; r < nrhs; ++r) {
      auto& b = bs[r];
      double ar_sum = 0.0, ai_sum = 0.0;
      dot_accum(&re_[c0], &im_[c0], &b[static_cast<std::size_t>(ilo)],
                static_cast<std::size_t>(j - ilo), ar_sum, ai_sum);
      const double sr = b[static_cast<std::size_t>(j)].real() - ar_sum;
      const double si = b[static_cast<std::size_t>(j)].imag() - ai_sum;
      b[static_cast<std::size_t>(j)] =
          cplx{(sr * dr + si * di) / den, (si * dr - sr * di) / den};
    }
  }
  // L^T back substitution + interchanges in reverse order.
  if (kl_ > 0) {
    for (index_t j = n_ - 2; j >= 0; --j) {
      const index_t km = std::min(kl_, n_ - 1 - j);
      const std::size_t d = at(j, j);
      const index_t piv = ipiv_[static_cast<std::size_t>(j)];
      for (std::size_t r = 0; r < nrhs; ++r) {
        auto& b = bs[r];
        double ar_sum = 0.0, ai_sum = 0.0;
        dot_accum(&re_[d + 1], &im_[d + 1], &b[static_cast<std::size_t>(j + 1)],
                  static_cast<std::size_t>(km), ar_sum, ai_sum);
        b[static_cast<std::size_t>(j)] =
            cplx{b[static_cast<std::size_t>(j)].real() - ar_sum,
                 b[static_cast<std::size_t>(j)].imag() - ai_sum};
        if (piv != j) {
          std::swap(b[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(piv)]);
        }
      }
    }
  }
}

template class SplitBandMatrixT<double>;
template class SplitBandMatrixT<float>;
template SplitBandMatrixT<float>::SplitBandMatrixT(const SplitBandMatrixT<double>&);
template SplitBandMatrixT<double>::SplitBandMatrixT(const SplitBandMatrixT<float>&);

}  // namespace maps::math
