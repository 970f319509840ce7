#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "math/gemm.hpp"
#include "math/parallel.hpp"

namespace maps::nn {

using maps::math::parallel_for;
using maps::math::parallel_for_chunked;
using maps::math::Trans;

// ------------------------------------------------------------------ Conv2d

Conv2d::Conv2d(index_t c_in, index_t c_out, index_t k, maps::math::Rng& rng,
               std::string tag)
    : c_in_(c_in), c_out_(c_out), k_(k), tag_(std::move(tag)),
      w_(tag_ + ".w", Tensor({c_out, c_in, k, k})),
      b_(tag_ + ".b", Tensor({c_out})) {
  require(k % 2 == 1, "Conv2d: kernel must be odd for same padding");
  kaiming_init(w_.value, c_in * k * k, rng);
}

Tensor Conv2d::run_forward(const Tensor& x, std::vector<float>& col) const {
  require(x.ndim() == 4 && x.size(1) == c_in_, "Conv2d: bad input shape");
  const index_t N = x.size(0), H = x.size(2), W = x.size(3);
  const index_t hw = H * W;
  const index_t ck2 = c_in_ * k_ * k_;
  Tensor y({N, c_out_, H, W});
  if (k_ > 1) col.resize(static_cast<std::size_t>(ck2 * hw));
  const float* wp = w_.value.data();
  for (index_t n = 0; n < N; ++n) {
    // A 1x1 kernel's column matrix is the input plane itself.
    const float* cols = x.data() + n * c_in_ * hw;
    if (k_ > 1) {
      maps::math::im2col(cols, c_in_, H, W, k_, col.data());
      cols = col.data();
    }
    // Bias fills each output plane; the GEMM accumulates on top (beta = 1).
    float* yn = y.data() + n * c_out_ * hw;
    for (index_t co = 0; co < c_out_; ++co) {
      std::fill(yn + co * hw, yn + (co + 1) * hw, b_.value[co]);
    }
    maps::math::sgemm(Trans::No, Trans::No, c_out_, hw, ck2, 1.0f, wp, ck2, cols,
                      hw, 1.0f, yn, hw);
  }
  return y;
}

Tensor Conv2d::forward(const Tensor& x) {
  // Cache only after run_forward validated the input, so a rejected tensor
  // can't poison the backward cache.
  Tensor y = run_forward(x, col_);
  x_cache_ = x;
  return y;
}

Tensor Conv2d::infer(const Tensor& x) const {
  std::vector<float> col;  // local scratch: infer must not touch member state
  return run_forward(x, col);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  require(x.numel() > 0, "Conv2d::backward: call forward first");
  const index_t N = x.size(0), H = x.size(2), W = x.size(3);
  const index_t hw = H * W;
  const index_t ck2 = c_in_ * k_ * k_;

  // Bias gradient: per-channel reduction over every sample plane.
  parallel_for(0, static_cast<std::size_t>(c_out_), [&](std::size_t co_s) {
    const index_t co = static_cast<index_t>(co_s);
    double db = 0.0;
    for (index_t n = 0; n < N; ++n) {
      const float* g = grad_out.data() + (n * c_out_ + co) * hw;
      for (index_t i = 0; i < hw; ++i) db += g[i];
    }
    b_.grad[co] += static_cast<float>(db);
  });

  // Weight gradient dW += dY_n * col(x_n)^T and input gradient
  // dX_n = col2im(W^T * dY_n), both as GEMMs over the per-sample column
  // buffer (recomputed here rather than cached: one (c_in*k*k) x (H*W)
  // buffer instead of N of them). A 1x1 kernel needs neither buffer: the
  // input plane is its column matrix and W^T * dY_n is dX_n itself.
  Tensor gx({N, c_in_, H, W});
  if (k_ > 1) {
    col_.resize(static_cast<std::size_t>(ck2 * hw));
    dcol_.resize(static_cast<std::size_t>(ck2 * hw));
  }
  const float* wp = w_.value.data();
  for (index_t n = 0; n < N; ++n) {
    const float* gy = grad_out.data() + n * c_out_ * hw;
    const float* cols = x.data() + n * c_in_ * hw;
    float* gxn = gx.data() + n * c_in_ * hw;
    float* dcols = gxn;
    if (k_ > 1) {
      maps::math::im2col(cols, c_in_, H, W, k_, col_.data());
      cols = col_.data();
      dcols = dcol_.data();
    }
    maps::math::sgemm(Trans::No, Trans::Yes, c_out_, ck2, hw, 1.0f, gy, hw, cols,
                      hw, 1.0f, w_.grad.data(), ck2);
    maps::math::sgemm(Trans::Yes, Trans::No, ck2, hw, c_out_, 1.0f, wp, ck2, gy,
                      hw, 0.0f, dcols, hw);
    if (k_ > 1) maps::math::col2im(dcols, c_in_, H, W, k_, gxn);
  }
  return gx;
}

// ------------------------------------------------------------------ Linear

Linear::Linear(index_t f_in, index_t f_out, maps::math::Rng& rng, std::string tag)
    : f_in_(f_in), f_out_(f_out), tag_(std::move(tag)),
      w_(tag_ + ".w", Tensor({f_out, f_in})), b_(tag_ + ".b", Tensor({f_out})) {
  kaiming_init(w_.value, f_in, rng);
}

Tensor Linear::run_forward(const Tensor& x) const {
  require(x.ndim() == 2 && x.size(1) == f_in_, "Linear: bad input shape");
  const index_t N = x.size(0);
  Tensor y({N, f_out_});
  // Y = X * W^T + b as one batched GEMM (bias seeds the output, beta = 1).
  for (index_t n = 0; n < N; ++n) {
    std::copy(b_.value.data(), b_.value.data() + f_out_, y.data() + n * f_out_);
  }
  maps::math::sgemm(Trans::No, Trans::Yes, N, f_out_, f_in_, 1.0f, x.data(),
                    f_in_, w_.value.data(), f_in_, 1.0f, y.data(), f_out_);
  return y;
}

Tensor Linear::forward(const Tensor& x) {
  Tensor y = run_forward(x);
  x_cache_ = x;
  return y;
}

Tensor Linear::infer(const Tensor& x) const { return run_forward(x); }

Tensor Linear::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const index_t N = x.size(0);
  // db = column sums of dY; dW += dY^T * X; dX = dY * W — two GEMMs and one
  // reduction instead of per-sample loops.
  for (index_t n = 0; n < N; ++n) {
    const float* g = grad_out.data() + n * f_out_;
    float* db = b_.grad.data();
    for (index_t o = 0; o < f_out_; ++o) db[o] += g[o];
  }
  maps::math::sgemm(Trans::Yes, Trans::No, f_out_, f_in_, N, 1.0f,
                    grad_out.data(), f_out_, x.data(), f_in_, 1.0f,
                    w_.grad.data(), f_in_);
  Tensor gx({N, f_in_});
  maps::math::sgemm(Trans::No, Trans::No, N, f_in_, f_out_, 1.0f,
                    grad_out.data(), f_out_, w_.value.data(), f_in_, 0.0f,
                    gx.data(), f_in_);
  return gx;
}

// -------------------------------------------------------------- Activation

namespace {
constexpr double kInvSqrt2 = 0.7071067811865476;
constexpr double kInvSqrt2Pi = 0.3989422804014327;

/// Relu, Tanh and Sigmoid in double; GELU runs on gelu_f32 below.
double act_forward(Act kind, double v) {
  switch (kind) {
    case Act::Relu:
      return v > 0 ? v : 0.0;
    case Act::Tanh:
      return std::tanh(v);
    case Act::Sigmoid:
      return 1.0 / (1.0 + std::exp(-v));
    case Act::Gelu:
      break;
  }
  return v;
}

/// y = 0.5 x (1 + erf(x / sqrt 2)) in fp32, with erf from Abramowitz &
/// Stegun 7.1.28: erf(z) = 1 - t^-16, t = 1 + a1 z + ... + a6 z^6, z >= 0,
/// |error| <= 3e-7. Odd symmetry gives 1 + erf(x / sqrt 2) = 2 - t^-16 for
/// x >= 0 and t^-16 for x < 0, which skips the cancellation of 1 - erf.
/// The loop tracks q = t^(2^j) - 1 while squaring, so the rounding of t is
/// not raised to the 16th power. Branch-free (the sign selects by
/// arithmetic) with no libm call, so the loop vectorizes on SSE2 too.
/// Non-finite inputs follow the double definition: NaN -> NaN,
/// +inf -> +inf, -inf -> NaN (-inf * 0); q overflowing to inf for large |x|
/// is exact (t^-16 = 0).
void gelu_f32(const float* x, float* y, index_t n) {
  constexpr float a1 = 0.0705230784f, a2 = 0.0422820123f, a3 = 0.0092705272f,
                  a4 = 0.0001520143f, a5 = 0.0002765672f, a6 = 0.0000430638f;
  constexpr auto kInvSqrt2f = static_cast<float>(kInvSqrt2);
  for (index_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float z = std::fabs(v) * kInvSqrt2f;
    float q = z * (a1 + z * (a2 + z * (a3 + z * (a4 + z * (a5 + z * a6)))));
    q *= 2.0f + q;
    q *= 2.0f + q;
    q *= 2.0f + q;
    q *= 2.0f + q;
    const float tail = 1.0f / (1.0f + q);  // erfc(|x| / sqrt 2)
    const float sign = std::copysign(1.0f, v);
    y[i] = 0.5f * v * ((1.0f + sign) - sign * tail);
  }
}

double act_derivative(Act kind, double v) {
  switch (kind) {
    case Act::Relu:
      return v > 0 ? 1.0 : 0.0;
    case Act::Gelu: {
      const double cdf = 0.5 * (1.0 + std::erf(v * kInvSqrt2));
      const double pdf = kInvSqrt2Pi * std::exp(-0.5 * v * v);
      return cdf + v * pdf;
    }
    case Act::Tanh: {
      const double t = std::tanh(v);
      return 1.0 - t * t;
    }
    case Act::Sigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-v));
      return s * (1.0 - s);
    }
  }
  return 1.0;
}
}  // namespace

Tensor Activation::forward(const Tensor& x) {
  x_cache_ = x;
  return infer(x);
}

Tensor Activation::infer(const Tensor& x) const {
  Tensor y(x.shape());
  if (kind_ == Act::Gelu) {
    gelu_f32(x.data(), y.data(), y.numel());
  } else {
    for (index_t i = 0; i < y.numel(); ++i) {
      y[i] = static_cast<float>(act_forward(kind_, x[i]));
    }
  }
  return y;
}

Tensor Activation::backward(const Tensor& grad_out) {
  require(x_cache_.same_shape(grad_out), "Activation::backward: shape mismatch");
  Tensor gx(grad_out.shape());
  for (index_t i = 0; i < gx.numel(); ++i) {
    gx[i] = static_cast<float>(grad_out[i] * act_derivative(kind_, x_cache_[i]));
  }
  return gx;
}

// --------------------------------------------------------------- GroupNorm

GroupNorm::GroupNorm(index_t groups, index_t channels, double eps)
    : groups_(groups), channels_(channels), eps_(eps),
      gamma_("gn.gamma", Tensor({channels}, 1.0f)),
      beta_("gn.beta", Tensor({channels}, 0.0f)) {
  require(channels % groups == 0, "GroupNorm: channels must divide by groups");
}

void GroupNorm::run_forward(const Tensor& x, Tensor& y, Tensor* xhat,
                            std::vector<double>* inv_std_out) const {
  require(x.ndim() == 4 && x.size(1) == channels_, "GroupNorm: bad input shape");
  const index_t N = x.size(0), H = x.size(2), W = x.size(3);
  const index_t cg = channels_ / groups_;
  const index_t m = cg * H * W;

  for (index_t n = 0; n < N; ++n) {
    for (index_t g = 0; g < groups_; ++g) {
      double mean = 0.0;
      for (index_t c = g * cg; c < (g + 1) * cg; ++c) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t w = 0; w < W; ++w) mean += x.at(n, c, h, w);
        }
      }
      mean /= static_cast<double>(m);
      double var = 0.0;
      for (index_t c = g * cg; c < (g + 1) * cg; ++c) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t w = 0; w < W; ++w) {
            const double d = x.at(n, c, h, w) - mean;
            var += d * d;
          }
        }
      }
      var /= static_cast<double>(m);
      const double inv_std = 1.0 / std::sqrt(var + eps_);
      if (inv_std_out != nullptr) {
        (*inv_std_out)[static_cast<std::size_t>(n * groups_ + g)] = inv_std;
      }
      for (index_t c = g * cg; c < (g + 1) * cg; ++c) {
        const float ga = gamma_.value[c], be = beta_.value[c];
        for (index_t h = 0; h < H; ++h) {
          for (index_t w = 0; w < W; ++w) {
            const float xh = static_cast<float>((x.at(n, c, h, w) - mean) * inv_std);
            if (xhat != nullptr) xhat->at(n, c, h, w) = xh;
            y.at(n, c, h, w) = ga * xh + be;
          }
        }
      }
    }
  }
}

Tensor GroupNorm::forward(const Tensor& x) {
  require(x.ndim() == 4 && x.size(1) == channels_, "GroupNorm: bad input shape");
  x_cache_ = x;
  const index_t N = x.size(0), H = x.size(2), W = x.size(3);
  xhat_cache_ = Tensor({N, channels_, H, W});
  inv_std_.assign(static_cast<std::size_t>(N * groups_), 0.0);
  Tensor y({N, channels_, H, W});
  run_forward(x, y, &xhat_cache_, &inv_std_);
  return y;
}

Tensor GroupNorm::infer(const Tensor& x) const {
  require(x.ndim() == 4 && x.size(1) == channels_, "GroupNorm: bad input shape");
  Tensor y({x.size(0), channels_, x.size(2), x.size(3)});
  run_forward(x, y, nullptr, nullptr);
  return y;
}

Tensor GroupNorm::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  require(x.same_shape(grad_out), "GroupNorm::backward: shape mismatch");
  const index_t N = x.size(0), H = x.size(2), W = x.size(3);
  const index_t cg = channels_ / groups_;
  const double m = static_cast<double>(cg * H * W);
  Tensor gx({N, channels_, H, W});

  // Affine parameter gradients.
  for (index_t c = 0; c < channels_; ++c) {
    double dg = 0, db = 0;
    for (index_t n = 0; n < N; ++n) {
      for (index_t h = 0; h < H; ++h) {
        for (index_t w = 0; w < W; ++w) {
          dg += grad_out.at(n, c, h, w) * xhat_cache_.at(n, c, h, w);
          db += grad_out.at(n, c, h, w);
        }
      }
    }
    gamma_.grad[c] += static_cast<float>(dg);
    beta_.grad[c] += static_cast<float>(db);
  }

  // Input gradient per (n, g): the standard normalized-stat backward.
  for (index_t n = 0; n < N; ++n) {
    for (index_t g = 0; g < groups_; ++g) {
      const double inv_std = inv_std_[static_cast<std::size_t>(n * groups_ + g)];
      double sum_dxhat = 0, sum_dxhat_xhat = 0;
      for (index_t c = g * cg; c < (g + 1) * cg; ++c) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t w = 0; w < W; ++w) {
            const double dxhat = grad_out.at(n, c, h, w) * gamma_.value[c];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xhat_cache_.at(n, c, h, w);
          }
        }
      }
      for (index_t c = g * cg; c < (g + 1) * cg; ++c) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t w = 0; w < W; ++w) {
            const double dxhat = grad_out.at(n, c, h, w) * gamma_.value[c];
            const double xh = xhat_cache_.at(n, c, h, w);
            gx.at(n, c, h, w) = static_cast<float>(
                inv_std * (dxhat - sum_dxhat / m - xh * sum_dxhat_xhat / m));
          }
        }
      }
    }
  }
  return gx;
}

// --------------------------------------------------------------- MaxPool2d

Tensor MaxPool2d::run_forward(const Tensor& x, std::vector<index_t>* argmax) const {
  require(x.ndim() == 4, "MaxPool2d: expects 4D input");
  const index_t N = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  require(H % 2 == 0 && W % 2 == 0, "MaxPool2d: H and W must be even");
  Tensor y({N, C, H / 2, W / 2});
  if (argmax != nullptr) argmax->assign(static_cast<std::size_t>(y.numel()), 0);
  index_t out = 0;
  for (index_t n = 0; n < N; ++n) {
    for (index_t c = 0; c < C; ++c) {
      for (index_t h = 0; h < H; h += 2) {
        for (index_t w = 0; w < W; w += 2) {
          float best = x.at(n, c, h, w);
          index_t best_idx = ((n * C + c) * H + h) * W + w;
          for (index_t dh = 0; dh < 2; ++dh) {
            for (index_t dw = 0; dw < 2; ++dw) {
              const float v = x.at(n, c, h + dh, w + dw);
              if (v > best) {
                best = v;
                best_idx = ((n * C + c) * H + h + dh) * W + w + dw;
              }
            }
          }
          y[out] = best;
          if (argmax != nullptr) (*argmax)[static_cast<std::size_t>(out)] = best_idx;
          ++out;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool2d::forward(const Tensor& x) {
  Tensor y = run_forward(x, &argmax_);
  in_shape_ = x.shape();
  return y;
}

Tensor MaxPool2d::infer(const Tensor& x) const { return run_forward(x, nullptr); }

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  require(!in_shape_.empty(), "MaxPool2d::backward: call forward first");
  Tensor gx(in_shape_);
  for (index_t i = 0; i < grad_out.numel(); ++i) {
    gx[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
  }
  return gx;
}

// -------------------------------------------------------------- Upsample2x

Tensor Upsample2x::run_forward(const Tensor& x) const {
  require(x.ndim() == 4, "Upsample2x: expects 4D input");
  const index_t N = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
  Tensor y({N, C, H * 2, W * 2});
  for (index_t n = 0; n < N; ++n) {
    for (index_t c = 0; c < C; ++c) {
      for (index_t h = 0; h < 2 * H; ++h) {
        for (index_t w = 0; w < 2 * W; ++w) {
          y.at(n, c, h, w) = x.at(n, c, h / 2, w / 2);
        }
      }
    }
  }
  return y;
}

Tensor Upsample2x::forward(const Tensor& x) {
  Tensor y = run_forward(x);
  in_shape_ = x.shape();
  return y;
}

Tensor Upsample2x::infer(const Tensor& x) const { return run_forward(x); }

Tensor Upsample2x::backward(const Tensor& grad_out) {
  require(!in_shape_.empty(), "Upsample2x::backward: call forward first");
  Tensor gx(in_shape_);
  const index_t N = in_shape_[0], C = in_shape_[1], H = in_shape_[2], W = in_shape_[3];
  for (index_t n = 0; n < N; ++n) {
    for (index_t c = 0; c < C; ++c) {
      for (index_t h = 0; h < 2 * H; ++h) {
        for (index_t w = 0; w < 2 * W; ++w) {
          gx.at(n, c, h / 2, w / 2) += grad_out.at(n, c, h, w);
        }
      }
    }
  }
  return gx;
}

}  // namespace maps::nn
