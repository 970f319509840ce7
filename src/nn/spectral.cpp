#include "nn/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <numbers>

#include "math/gemm.hpp"
#include "math/parallel.hpp"

namespace maps::nn {

using maps::math::parallel_for_chunked;
using maps::math::RecycledVector;
using maps::math::sgemm;
using maps::math::Trans;

namespace {

// ------------------------------------------------------------- DFT bases
//
// The basis of an axis of length n is the n x 2K row-major matrix
// [cos | -sin] over its K kept frequencies: a real line times the basis is
// the line's truncated DFT as [re | im], and [re | im] times the transposed
// basis is the real part of the (unscaled) inverse sum. Kept frequencies are
// the m lowest (one-sided: the y axis of the 2D layer) or the m lowest and
// the m highest (two-sided: column j >= m is frequency n - 2m + j), the FFT
// order the weight blocks are defined in.

using Basis = std::shared_ptr<const std::vector<float>>;

Basis build_basis(index_t n, index_t m, bool two_sided) {
  const index_t k = two_sided ? 2 * m : m;
  auto f = std::make_shared<std::vector<float>>(static_cast<std::size_t>(n * 2 * k));
  for (index_t t = 0; t < n; ++t) {
    float* row = f->data() + t * 2 * k;
    for (index_t j = 0; j < k; ++j) {
      const index_t freq = j < m ? j : n - 2 * m + j;
      // Reduce the phase mod n in integers: the double angle stays in
      // [0, 2pi) however long the axis.
      const double theta = 2.0 * std::numbers::pi *
                           static_cast<double>((freq * t) % n) /
                           static_cast<double>(n);
      row[j] = static_cast<float>(std::cos(theta));
      row[k + j] = static_cast<float>(-std::sin(theta));
    }
  }
  return f;
}

/// Process-wide basis cache keyed on (n, m, sidedness). Entries are never
/// evicted; past the cap a miss builds a call-local basis, so request-chosen
/// grid sizes cannot grow memory.
Basis dft_basis(index_t n, index_t m, bool two_sided) {
  struct Entry {
    index_t n, m;
    bool two_sided;
    Basis f;
  };
  constexpr std::size_t kMaxEntries = 16;
  static std::mutex mu;
  static std::vector<Entry> cache;
  std::lock_guard<std::mutex> lock(mu);
  for (const Entry& e : cache) {
    if (e.n == n && e.m == m && e.two_sided == two_sided) return e.f;
  }
  Basis f = build_basis(n, m, two_sided);
  if (cache.size() < kMaxEntries) cache.push_back({n, m, two_sided, f});
  return f;
}

/// dst[b] = src[b]^T for `batch` row-major (rows x cols) matrices, in 32x32
/// tiles so both sides touch whole cache lines.
void transpose_batch(const float* src, index_t batch, index_t rows, index_t cols,
                     float* dst) {
  constexpr index_t kTile = 32;
  const index_t tiles = (rows + kTile - 1) / kTile;
  parallel_for_chunked(
      0, static_cast<std::size_t>(batch * tiles), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const index_t b = static_cast<index_t>(idx) / tiles;
          const index_t r0 = (static_cast<index_t>(idx) % tiles) * kTile;
          const index_t r1 = std::min(rows, r0 + kTile);
          const float* s = src + b * rows * cols;
          float* d = dst + b * rows * cols;
          for (index_t c0 = 0; c0 < cols; c0 += kTile) {
            const index_t c1 = std::min(cols, c0 + kTile);
            for (index_t r = r0; r < r1; ++r) {
              for (index_t c = c0; c < c1; ++c) d[c * rows + r] = s[r * cols + c];
            }
          }
        }
      });
}

/// dst[j][i] = src[i][j] for the (a x b) grid of contiguous c-float rows of
/// src: swaps the two outer axes of an (a, b, c) array.
void swap_outer(const float* src, index_t a, index_t b, index_t c, float* dst) {
  parallel_for_chunked(
      0, static_cast<std::size_t>(b), [&](std::size_t lo, std::size_t hi) {
        for (auto j = static_cast<index_t>(lo); j < static_cast<index_t>(hi); ++j) {
          for (index_t i = 0; i < a; ++i) {
            std::memcpy(dst + (j * a + i) * c, src + (i * b + j) * c,
                        static_cast<std::size_t>(c) * sizeof(float));
          }
        }
      });
}

// ------------------------------------------------- truncated transforms
//
// Kept-mode coefficients are rows of [re | im] over the row's modes: one row
// per (sample, channel) plane for the 2D layer (2*mx*my modes, kx-major),
// one per (sample, channel, line) for the 1D layer (2m modes). Mode
// b * half + q of a row pairs with weight (b, ., ., q), half = mx*my or m.

/// 2D coefficients of `planes` real (h x w) planes.
RecycledVector<float> dft2(const float* x, index_t planes, index_t h, index_t w,
                           const std::vector<float>& fx, const std::vector<float>& fy,
                           index_t mx, index_t my) {
  const index_t kx = 2 * mx, cols = planes * 2 * kx, modes = kx * my;
  // Along x, every line at once: (plane, y) rows of [re | im] over kx.
  RecycledVector<float> a(static_cast<std::size_t>(h * cols));
  RecycledVector<float> at(a.size());
  sgemm(Trans::No, Trans::No, planes * h, 2 * kx, w, 1.0f, x, w, fx.data(), 2 * kx,
        0.0f, a.data(), 2 * kx);
  // Along y, all planes in one GEMM: the basis on the left, every plane's
  // kept columns side by side on the right.
  swap_outer(a.data(), planes, h, 2 * kx, at.data());
  RecycledVector<float> b(static_cast<std::size_t>(2 * my * cols));
  sgemm(Trans::Yes, Trans::No, 2 * my, cols, h, 1.0f, fy.data(), 2 * my, at.data(), cols,
        0.0f, b.data(), cols);
  // Rows ky of b hold A cos and rows my + ky hold -A sin, A = Ar + i Ai:
  // (Ar + i Ai)(C - i S) = (Ar C + Ai S) + i (Ai C - Ar S).
  RecycledVector<float> c(static_cast<std::size_t>(planes * 2 * modes));
  for (index_t p = 0; p < planes; ++p) {
    float* re = c.data() + p * 2 * modes;
    float* im = re + modes;
    for (index_t ky = 0; ky < my; ++ky) {
      const float* cs = b.data() + ky * cols + p * 2 * kx;         // [Ar C | Ai C]
      const float* sn = b.data() + (my + ky) * cols + p * 2 * kx;  // [-Ar S | -Ai S]
      for (index_t j = 0; j < kx; ++j) {
        re[j * my + ky] = cs[j] - sn[kx + j];
        im[j * my + ky] = cs[kx + j] + sn[j];
      }
    }
  }
  return c;
}

/// scale * Re(inverse DFT) of 2D coefficients into `planes` (h x w) planes.
void idft2(const RecycledVector<float>& c, index_t planes, index_t h, index_t w,
           const std::vector<float>& fx, const std::vector<float>& fy, index_t mx,
           index_t my, float scale, float* y) {
  const index_t kx = 2 * mx, cols = planes * 2 * kx, modes = kx * my;
  // Along y: Z = sum_ky Y e^{+i ky y}, i.e. Zr = Yr cos - Yi sin and
  // Zi = Yi cos + Yr sin, is the y basis times rows ky of [Yr | Yi] and rows
  // my + ky of [Yi | -Yr] (every plane side by side, as in dft2).
  RecycledVector<float> u(static_cast<std::size_t>(2 * my * cols));
  for (index_t p = 0; p < planes; ++p) {
    const float* re = c.data() + p * 2 * modes;
    const float* im = re + modes;
    for (index_t ky = 0; ky < my; ++ky) {
      float* uc = u.data() + ky * cols + p * 2 * kx;
      float* us = u.data() + (my + ky) * cols + p * 2 * kx;
      for (index_t j = 0; j < kx; ++j) {
        uc[j] = re[j * my + ky];
        uc[kx + j] = im[j * my + ky];
        us[j] = im[j * my + ky];
        us[kx + j] = -re[j * my + ky];
      }
    }
  }
  RecycledVector<float> z(static_cast<std::size_t>(h * cols));
  RecycledVector<float> zt(z.size());
  sgemm(Trans::No, Trans::No, h, cols, 2 * my, 1.0f, fy.data(), 2 * my, u.data(), cols,
        0.0f, z.data(), cols);
  // Along x: Zr cos - Zi sin is the x basis transposed.
  swap_outer(z.data(), h, planes, 2 * kx, zt.data());
  sgemm(Trans::No, Trans::Yes, planes * h, w, 2 * kx, scale, zt.data(), 2 * kx,
        fx.data(), 2 * kx, 0.0f, y, w);
}

/// 1D coefficients along x (rows) or y (columns) of `planes` (h x w) planes.
RecycledVector<float> dft_lines(const float* x, index_t planes, index_t h, index_t w,
                                bool along_x, const std::vector<float>& f, index_t m) {
  const index_t len = along_x ? w : h, lines = planes * (along_x ? h : w);
  RecycledVector<float> xt;
  if (!along_x) {  // columns become contiguous lines
    xt.resize(static_cast<std::size_t>(planes * h * w));
    transpose_batch(x, planes, h, w, xt.data());
    x = xt.data();
  }
  RecycledVector<float> c(static_cast<std::size_t>(lines * 4 * m));
  sgemm(Trans::No, Trans::No, lines, 4 * m, len, 1.0f, x, len, f.data(), 4 * m, 0.0f,
        c.data(), 4 * m);
  return c;
}

/// scale * Re(inverse DFT) of 1D coefficients into `planes` (h x w) planes.
void idft_lines(const RecycledVector<float>& c, index_t planes, index_t h, index_t w,
                bool along_x, const std::vector<float>& f, index_t m, float scale,
                float* y) {
  const index_t len = along_x ? w : h, lines = planes * (along_x ? h : w);
  if (along_x) {
    sgemm(Trans::No, Trans::Yes, lines, len, 4 * m, scale, c.data(), 4 * m, f.data(),
          4 * m, 0.0f, y, len);
    return;
  }
  RecycledVector<float> yt(static_cast<std::size_t>(lines * len));
  sgemm(Trans::No, Trans::Yes, lines, len, 4 * m, scale, c.data(), 4 * m, f.data(),
        4 * m, 0.0f, yt.data(), len);
  transpose_batch(yt.data(), planes, w, h, y);
}

// ------------------------------------------------------ mode-space kernels

/// Per-mode channel mixing of coefficient rows, `lines` rows per (sample,
/// channel): out[n, o] = sum_i w(i, o) * in[n, i], with w(i, o) =
/// W[b, i, o, q], or conj(W[b, o, i, q]) for the adjoint (in = the output
/// side's gradient, out = the input side's).
RecycledVector<float> mix_modes(const RecycledVector<float>& in, index_t n_batch,
                                index_t c_from, index_t c_to, index_t lines,
                                index_t half, const float* w, bool adjoint) {
  const index_t modes = 2 * half, row = 2 * modes;
  const float sign = adjoint ? -1.0f : 1.0f;
  RecycledVector<float> out(static_cast<std::size_t>(n_batch * c_to * lines * row), 0.0f);
  parallel_for_chunked(
      0, static_cast<std::size_t>(n_batch * c_to), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const index_t n = static_cast<index_t>(idx) / c_to;
          const index_t o = static_cast<index_t>(idx) % c_to;
          for (index_t i = 0; i < c_from; ++i) {
            for (index_t b = 0; b < 2; ++b) {
              const index_t block = adjoint ? (b * c_to + o) * c_from + i
                                            : (b * c_from + i) * c_to + o;
              const float* wv = w + block * half * 2;
              for (index_t t = 0; t < lines; ++t) {
                const float* xr =
                    in.data() + ((n * c_from + i) * lines + t) * row + b * half;
                const float* xi = xr + modes;
                float* yr = out.data() + ((n * c_to + o) * lines + t) * row + b * half;
                float* yi = yr + modes;
                for (index_t q = 0; q < half; ++q) {
                  const float wr = wv[2 * q], wi = sign * wv[2 * q + 1];
                  yr[q] += wr * xr[q] - wi * xi[q];
                  yi[q] += wr * xi[q] + wi * xr[q];
                }
              }
            }
          }
        }
      });
  return out;
}

/// dW[b, i, o, q] += scale * sum_{n, line} conj(X[n, i, (b,q)]) G[n, o, (b,q)].
void accumulate_weight_grad(const RecycledVector<float>& x,
                            const RecycledVector<float>& g,
                            index_t n_batch, index_t c_in, index_t c_out,
                            index_t lines, index_t half, float scale, float* gw) {
  const index_t modes = 2 * half, row = 2 * modes;
  parallel_for_chunked(
      0, static_cast<std::size_t>(c_in * c_out), [&](std::size_t lo, std::size_t hi) {
        std::vector<float> sr(static_cast<std::size_t>(half));
        std::vector<float> si(sr.size());
        for (std::size_t p = lo; p < hi; ++p) {
          const index_t ci = static_cast<index_t>(p) / c_out;
          const index_t co = static_cast<index_t>(p) % c_out;
          for (index_t b = 0; b < 2; ++b) {
            std::fill(sr.begin(), sr.end(), 0.0f);
            std::fill(si.begin(), si.end(), 0.0f);
            for (index_t n = 0; n < n_batch; ++n) {
              for (index_t t = 0; t < lines; ++t) {
                const float* xr =
                    x.data() + ((n * c_in + ci) * lines + t) * row + b * half;
                const float* xi = xr + modes;
                const float* gr =
                    g.data() + ((n * c_out + co) * lines + t) * row + b * half;
                const float* gi = gr + modes;
                for (index_t q = 0; q < half; ++q) {
                  sr[q] += xr[q] * gr[q] + xi[q] * gi[q];
                  si[q] += xr[q] * gi[q] - xi[q] * gr[q];
                }
              }
            }
            float* dst = gw + ((b * c_in + ci) * c_out + co) * half * 2;
            for (index_t q = 0; q < half; ++q) {
              dst[2 * q] += scale * sr[q];
              dst[2 * q + 1] += scale * si[q];
            }
          }
        }
      });
}

void spectral_init(Tensor& w, index_t c_in, maps::math::Rng& rng) {
  const double scale = 1.0 / static_cast<double>(c_in);
  for (index_t i = 0; i < w.numel(); ++i) {
    w[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
}

void require_grad_shape(const Tensor& g, const std::vector<index_t>& in_shape,
                        index_t c_out, const char* msg) {
  require(g.ndim() == 4 && g.size(0) == in_shape[0] && g.size(1) == c_out &&
              g.size(2) == in_shape[2] && g.size(3) == in_shape[3],
          msg);
}

float reciprocal(index_t n) { return static_cast<float>(1.0 / static_cast<double>(n)); }

}  // namespace

// ----------------------------------------------------------- SpectralConv2d

SpectralConv2d::SpectralConv2d(index_t c_in, index_t c_out, index_t modes_x,
                               index_t modes_y, maps::math::Rng& rng, std::string tag)
    : c_in_(c_in), c_out_(c_out), mx_(modes_x), my_(modes_y), tag_(std::move(tag)),
      w_(tag_ + ".w", Tensor({2, c_in, c_out, modes_x, modes_y, 2})) {
  spectral_init(w_.value, c_in, rng);
}

Tensor SpectralConv2d::run_forward(const Tensor& x, RecycledVector<float>& x_hat) const {
  require(x.ndim() == 4 && x.size(1) == c_in_, "SpectralConv2d: bad input shape");
  const index_t N = x.size(0), H = x.size(2), W = x.size(3);
  require(2 * mx_ <= W && my_ <= H, "SpectralConv2d: modes exceed grid");
  const Basis fx = dft_basis(W, mx_, true), fy = dft_basis(H, my_, false);

  x_hat = dft2(x.data(), N * c_in_, H, W, *fx, *fy, mx_, my_);
  const auto y_hat =
      mix_modes(x_hat, N, c_in_, c_out_, 1, mx_ * my_, w_.value.data(), false);
  Tensor y({N, c_out_, H, W});
  idft2(y_hat, N * c_out_, H, W, *fx, *fy, mx_, my_, reciprocal(H * W), y.data());
  return y;
}

Tensor SpectralConv2d::forward(const Tensor& x) {
  // Cache only after run_forward validated the input, so a rejected tensor
  // can't poison the backward cache.
  Tensor y = run_forward(x, x_hat_);
  in_shape_ = x.shape();
  return y;
}

Tensor SpectralConv2d::infer(const Tensor& x) const {
  RecycledVector<float> x_hat;  // dropped: infer keeps no backward state
  return run_forward(x, x_hat);
}

Tensor SpectralConv2d::backward(const Tensor& grad_out) {
  require(!in_shape_.empty(), "SpectralConv2d::backward: call forward first");
  require_grad_shape(grad_out, in_shape_, c_out_,
                     "SpectralConv2d::backward: bad grad shape");
  const index_t N = in_shape_[0], H = in_shape_[2], W = in_shape_[3];
  const Basis fx = dft_basis(W, mx_, true), fy = dft_basis(H, my_, false);

  // The inverse transform's adjoint is the forward one over HW, and the
  // forward transform's adjoint is HW times the inverse: the 1/(HW) lands on
  // the weight gradient and on the input gradient's inverse transform.
  const auto g_hat = dft2(grad_out.data(), N * c_out_, H, W, *fx, *fy, mx_, my_);
  accumulate_weight_grad(x_hat_, g_hat, N, c_in_, c_out_, 1, mx_ * my_, reciprocal(H * W),
                         w_.grad.data());
  const auto gx_hat =
      mix_modes(g_hat, N, c_out_, c_in_, 1, mx_ * my_, w_.value.data(), true);
  Tensor gx({N, c_in_, H, W});
  idft2(gx_hat, N * c_in_, H, W, *fx, *fy, mx_, my_, reciprocal(H * W), gx.data());
  return gx;
}

// ----------------------------------------------------------- SpectralConv1d

SpectralConv1d::SpectralConv1d(index_t c_in, index_t c_out, index_t modes,
                               FftAxis axis, maps::math::Rng& rng, std::string tag)
    : c_in_(c_in), c_out_(c_out), m_(modes), axis_(axis), tag_(std::move(tag)),
      w_(tag_ + ".w", Tensor({2, c_in, c_out, modes, 2})) {
  spectral_init(w_.value, c_in, rng);
}

Tensor SpectralConv1d::run_forward(const Tensor& x, RecycledVector<float>& x_hat) const {
  require(x.ndim() == 4 && x.size(1) == c_in_, "SpectralConv1d: bad input shape");
  const index_t N = x.size(0), H = x.size(2), W = x.size(3);
  const bool along_x = axis_ == FftAxis::X;
  const index_t L = along_x ? W : H;  // transformed length
  const index_t T = along_x ? H : W;  // lines per plane
  require(2 * m_ <= L, "SpectralConv1d: modes exceed axis length");
  const Basis f = dft_basis(L, m_, true);

  x_hat = dft_lines(x.data(), N * c_in_, H, W, along_x, *f, m_);
  const auto y_hat = mix_modes(x_hat, N, c_in_, c_out_, T, m_, w_.value.data(), false);
  Tensor y({N, c_out_, H, W});
  idft_lines(y_hat, N * c_out_, H, W, along_x, *f, m_, reciprocal(L), y.data());
  return y;
}

Tensor SpectralConv1d::forward(const Tensor& x) {
  Tensor y = run_forward(x, x_hat_);
  in_shape_ = x.shape();
  return y;
}

Tensor SpectralConv1d::infer(const Tensor& x) const {
  RecycledVector<float> x_hat;
  return run_forward(x, x_hat);
}

Tensor SpectralConv1d::backward(const Tensor& grad_out) {
  require(!in_shape_.empty(), "SpectralConv1d::backward: call forward first");
  require_grad_shape(grad_out, in_shape_, c_out_,
                     "SpectralConv1d::backward: bad grad shape");
  const index_t N = in_shape_[0], H = in_shape_[2], W = in_shape_[3];
  const bool along_x = axis_ == FftAxis::X;
  const index_t L = along_x ? W : H;
  const index_t T = along_x ? H : W;
  const Basis f = dft_basis(L, m_, true);

  const auto g_hat = dft_lines(grad_out.data(), N * c_out_, H, W, along_x, *f, m_);
  accumulate_weight_grad(x_hat_, g_hat, N, c_in_, c_out_, T, m_, reciprocal(L),
                         w_.grad.data());
  const auto gx_hat = mix_modes(g_hat, N, c_out_, c_in_, T, m_, w_.value.data(), true);
  Tensor gx({N, c_in_, H, W});
  idft_lines(gx_hat, N * c_in_, H, W, along_x, *f, m_, reciprocal(L), gx.data());
  return gx;
}

}  // namespace maps::nn
