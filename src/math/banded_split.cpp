#include "math/banded_split.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace maps::math {

namespace {

/// out = sum_t (a[t] * x[t]) over split factor storage: the gather-reduction
/// core of the fused D/L^T sweep. Four independent accumulator pairs break
/// the floating-point add dependency chain — a single chained accumulator
/// runs at FMA *latency* per element; spread across four chains the loop
/// runs at FMA throughput. Accumulation is always double; fp32 factor loads
/// widen on the fly.
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
/// core of the forward L sweep. Every update targets a distinct element, so
/// there is no dependency chain for multiple accumulators to break (a 4-wide
/// manual unroll regressed the multi-RHS sweep ~30%); the restrict-qualified
/// split-load form vectorizes as is.
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

/// Columns per panel of factorize(): each trailing entry is loaded and stored
/// once per kPanel eliminated columns.
constexpr index_t kPanel = 4;

/// t[i] -= sum_{q < 4} v_q[i] * a_q for i in [0, len), with v_q = v + q*stride:
/// the rank-4 panel update of one trailing column in factorize(). Function
/// parameters carry the restrict qualifiers, so the loop vectorizes without
/// the runtime alias checks ten pointers would need.
template <typename T>
inline void panel_update(T* __restrict tr, T* __restrict ti, const T* __restrict vr,
                         const T* __restrict vi, std::size_t stride,
                         const T (&ar)[kPanel], const T (&ai)[kPanel], std::size_t len) {
  const T a0r = ar[0], a0i = ai[0], a1r = ar[1], a1i = ai[1];
  const T a2r = ar[2], a2i = ai[2], a3r = ar[3], a3i = ai[3];
  const T* v1r = vr + stride;
  const T* v1i = vi + stride;
  const T* v2r = v1r + stride;
  const T* v2i = v1i + stride;
  const T* v3r = v2r + stride;
  const T* v3i = v2i + stride;
  for (std::size_t t = 0; t < len; ++t) {
    T sr = tr[t], si = ti[t];
    sr -= vr[t] * a0r;
    sr += vi[t] * a0i;
    si -= vr[t] * a0i;
    si -= vi[t] * a0r;
    sr -= v1r[t] * a1r;
    sr += v1i[t] * a1i;
    si -= v1r[t] * a1i;
    si -= v1i[t] * a1r;
    sr -= v2r[t] * a2r;
    sr += v2i[t] * a2i;
    si -= v2r[t] * a2i;
    si -= v2i[t] * a2r;
    sr -= v3r[t] * a3r;
    sr += v3i[t] * a3i;
    si -= v3r[t] * a3i;
    si -= v3i[t] * a3r;
    tr[t] = sr;
    ti[t] = si;
  }
}

}  // namespace

template <typename T>
SymBandLdltT<T>::SymBandLdltT(index_t n, index_t kl) : n_(n), kl_(kl) {
  require(n > 0 && kl >= 0, "SymBandLdlt: invalid shape");
  require(kl < n, "SymBandLdlt: band exceeds dimension");
  const std::size_t cells = static_cast<std::size_t>(kl + 1) * static_cast<std::size_t>(n);
  re_.assign(cells, T(0));
  im_.assign(cells, T(0));
}

template <typename T>
void SymBandLdltT<T>::set(index_t i, index_t j, cplx v) {
  require(i >= 0 && i < n_ && j >= 0 && j < n_, "SymBandLdlt::set: out of range");
  require(i >= j && i - j <= kl_, "SymBandLdlt::set: outside the lower band");
  require(!factorized_, "SymBandLdlt::set: matrix already factorized");
  re_[at(i, j)] = static_cast<T>(v.real());
  im_[at(i, j)] = static_cast<T>(v.imag());
}

template <typename T>
cplx SymBandLdltT<T>::get(index_t i, index_t j) const {
  require(i >= 0 && i < n_ && j >= 0 && j < n_, "SymBandLdlt::get: out of range");
  if (i < j) std::swap(i, j);
  if (i - j > kl_) return cplx{};
  return {static_cast<double>(re_[at(i, j)]), static_cast<double>(im_[at(i, j)])};
}

// Right-looking band LDL^T in panels of kPanel columns. Inside a panel each
// column first takes the updates of the panel columns before it, then is
// checked (pivot d_p), copied unscaled into a zero-padded buffer
// (v_p = S(., p)) and scaled in place to its multipliers l_p = v_p / d_p,
// each checked against the growth bound. The panel then applies one rank-
// kPanel update S(r, c) -= sum_p v_p(r) l_p(c) to the trailing window: every
// trailing entry is loaded and stored once per panel instead of once per
// column. The zero padding past each column's band edge keeps the innermost
// loop a uniform run over plain scalar arrays. All elimination arithmetic
// stays in T.
template <typename T>
void SymBandLdltT<T>::factorize() {
  require(!factorized_, "SymBandLdlt::factorize: already factorized");
  const std::size_t ld = static_cast<std::size_t>(kl_) + 1;
  double diag_max = 0.0;
  for (index_t j = 0; j < n_; ++j) {
    const std::size_t d = static_cast<std::size_t>(j) * ld;
    diag_max = std::max(diag_max, std::hypot(static_cast<double>(re_[d]),
                                             static_cast<double>(im_[d])));
  }
  const double pivot_floor = kLdltPivotFloor * diag_max;
  const T bound2 = static_cast<T>(kLdltMultiplierBound * kLdltMultiplierBound);
  // v_q[t] = S(j0 + t, j0 + q) before scaling, zero outside column q's band.
  const auto span = static_cast<std::size_t>(kl_ + kPanel);
  std::vector<T> vr(kPanel * span), vi(kPanel * span);
  const auto col_r = [&](index_t j) { return re_.data() + static_cast<std::size_t>(j) * ld; };
  const auto col_i = [&](index_t j) { return im_.data() + static_cast<std::size_t>(j) * ld; };
  // Multiplier l(r, p) for r in (p, p + kl], else 0.
  const auto multiplier = [&](index_t r, index_t p, T& ar, T& ai) {
    const bool in_band = r - p <= std::min(kl_, n_ - 1 - p);
    ar = in_band ? col_r(p)[r - p] : T(0);
    ai = in_band ? col_i(p)[r - p] : T(0);
  };

  for (index_t j0 = 0; j0 < n_; j0 += kPanel) {
    const index_t b = std::min(kPanel, n_ - j0);
    std::fill(vr.begin(), vr.end(), T(0));
    std::fill(vi.begin(), vi.end(), T(0));
    for (index_t q = 0; q < b; ++q) {
      const index_t p = j0 + q;
      const index_t km = std::min(kl_, n_ - 1 - p);
      T* __restrict cr = col_r(p);
      T* __restrict ci = col_i(p);
      for (index_t q2 = 0; q2 < q; ++q2) {
        T ar, ai;
        multiplier(p, j0 + q2, ar, ai);
        const T* __restrict ur = vr.data() + static_cast<std::size_t>(q2) * span + q;
        const T* __restrict ui = vi.data() + static_cast<std::size_t>(q2) * span + q;
        for (index_t t = 0; t <= km; ++t) {
          cr[t] -= ur[t] * ar - ui[t] * ai;
          ci[t] -= ur[t] * ai + ui[t] * ar;
        }
      }
      const double dr = cr[0], di = ci[0];
      const double dmag = std::hypot(dr, di);
      // Negated compare: a NaN pivot fails it too.
      if (!(dmag >= pivot_floor) || dmag == 0.0 || !std::isfinite(dmag)) {
        throw MapsError("SymBandLdlt::factorize: pivot " + std::to_string(dmag) +
                        " at column " + std::to_string(p) + " is below the guard " +
                        std::to_string(pivot_floor));
      }
      const double den = dr * dr + di * di;
      const T pr = static_cast<T>(dr / den), pi = static_cast<T>(-di / den);  // 1 / d_p
      T* __restrict wr = vr.data() + static_cast<std::size_t>(q) * span + q;
      T* __restrict wi = vi.data() + static_cast<std::size_t>(q) * span + q;
      for (index_t k = 1; k <= km; ++k) {
        const T ar = cr[k], ai = ci[k];
        wr[k] = ar;
        wi[k] = ai;
        const T lr = ar * pr - ai * pi, li = ar * pi + ai * pr;
        cr[k] = lr;
        ci[k] = li;
        if (!(lr * lr + li * li <= bound2)) {
          throw MapsError("SymBandLdlt::factorize: multiplier at (" +
                          std::to_string(p + k) + ", " + std::to_string(p) +
                          ") exceeds the growth bound");
        }
      }
    }
    // Rank-kPanel update of the trailing columns the panel reaches.
    const index_t rmax = std::min(j0 + b - 1 + kl_, n_ - 1);
    for (index_t c = j0 + b; c <= rmax; ++c) {
      T ar[kPanel], ai[kPanel];  // l(c, j0 + q)
      for (index_t q = 0; q < kPanel; ++q) {
        if (q < b) {
          multiplier(c, j0 + q, ar[q], ai[q]);
        } else {
          ar[q] = ai[q] = T(0);
        }
      }
      const std::size_t t0 = static_cast<std::size_t>(c - j0);
      panel_update(col_r(c), col_i(c), vr.data() + t0, vi.data() + t0, span, ar, ai,
                   static_cast<std::size_t>(rmax - c + 1));
    }
  }
  factorized_ = true;
}

// Forward sweep L y = b (column-oriented scatter), then the fused D / L^T
// sweep from the last row up: x_j = y_j / d_j - sum_k l_{j+k,j} x_{j+k}.
// Each factor column is read once per sweep and applied to every RHS.
template <typename T>
void SymBandLdltT<T>::solve_multi_inplace(std::vector<std::vector<cplx>>& bs) const {
  require(factorized_, "SymBandLdlt::solve: factorize() first");
  for (const auto& b : bs) {
    require(static_cast<index_t>(b.size()) == n_, "SymBandLdlt::solve: size mismatch");
  }
  const std::size_t ld = static_cast<std::size_t>(kl_) + 1;

  for (index_t j = 0; j + 1 < n_; ++j) {
    const auto km = static_cast<std::size_t>(std::min(kl_, n_ - 1 - j));
    const std::size_t c = static_cast<std::size_t>(j) * ld + 1;
    for (auto& b : bs) {
      const cplx bj = b[static_cast<std::size_t>(j)];
      if (bj != cplx{}) {
        axpy_scatter(re_.data() + c, im_.data() + c, bj.real(), bj.imag(),
                     b.data() + j + 1, km);
      }
    }
  }
  for (index_t j = n_ - 1; j >= 0; --j) {
    const auto km = static_cast<std::size_t>(std::min(kl_, n_ - 1 - j));
    const std::size_t d = static_cast<std::size_t>(j) * ld;
    const double dr = re_[d], di = im_[d];
    const double den = dr * dr + di * di;
    const double pr = dr / den, pi = -di / den;  // 1 / d_j
    for (auto& b : bs) {
      double sr = 0.0, si = 0.0;
      dot_accum(re_.data() + d + 1, im_.data() + d + 1, b.data() + j + 1, km, sr, si);
      const cplx yj = b[static_cast<std::size_t>(j)];
      b[static_cast<std::size_t>(j)] = cplx{yj.real() * pr - yj.imag() * pi - sr,
                                            yj.real() * pi + yj.imag() * pr - si};
    }
  }
}

template class SymBandLdltT<double>;
template class SymBandLdltT<float>;

}  // namespace maps::math
