// Equivalence of the GEMM-lowered Conv2d/Linear with the direct (naive-loop)
// formulation they replaced: forward outputs and every gradient must agree to
// float accumulation-order tolerance. The direct reference here is the
// pre-GEMM implementation, kept verbatim as ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "math/rng.hpp"
#include "nn/layers.hpp"

namespace mn = maps::nn;
namespace mm = maps::math;
using maps::index_t;

namespace {

mn::Tensor random_tensor(std::vector<index_t> shape, unsigned seed) {
  mm::Rng rng(seed);
  mn::Tensor x(std::move(shape));
  for (index_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

void expect_tensors_near(const mn::Tensor& a, const mn::Tensor& b, double tol) {
  ASSERT_TRUE(a.same_shape(b));
  for (index_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << "at flat index " << i;
  }
}

/// Direct same-padded stride-1 convolution: the seed Conv2d::forward loops.
mn::Tensor direct_conv_forward(const mn::Tensor& x, const mn::Tensor& w,
                               const mn::Tensor& b) {
  const index_t N = x.size(0), C_in = x.size(1), H = x.size(2), W = x.size(3);
  const index_t C_out = w.size(0), k = w.size(2), r = k / 2;
  mn::Tensor y({N, C_out, H, W});
  for (index_t n = 0; n < N; ++n) {
    for (index_t co = 0; co < C_out; ++co) {
      for (index_t h = 0; h < H; ++h) {
        for (index_t ww = 0; ww < W; ++ww) {
          float s = b[co];
          for (index_t ci = 0; ci < C_in; ++ci) {
            for (index_t kh = 0; kh < k; ++kh) {
              const index_t hh = h + kh - r;
              if (hh < 0 || hh >= H) continue;
              for (index_t kw = 0; kw < k; ++kw) {
                const index_t wc = ww + kw - r;
                if (wc < 0 || wc >= W) continue;
                s += w.at(co, ci, kh, kw) * x.at(n, ci, hh, wc);
              }
            }
          }
          y.at(n, co, h, ww) = s;
        }
      }
    }
  }
  return y;
}

/// Direct backward: parameter gradients and input gradient of the seed code.
struct DirectConvGrads {
  mn::Tensor dw, db, dx;
};

DirectConvGrads direct_conv_backward(const mn::Tensor& x, const mn::Tensor& w,
                                     const mn::Tensor& gy) {
  const index_t N = x.size(0), C_in = x.size(1), H = x.size(2), W = x.size(3);
  const index_t C_out = w.size(0), k = w.size(2), r = k / 2;
  DirectConvGrads g{mn::Tensor::zeros_like(w), mn::Tensor({C_out}),
                    mn::Tensor::zeros_like(x)};
  for (index_t co = 0; co < C_out; ++co) {
    double db = 0.0;
    for (index_t n = 0; n < N; ++n) {
      for (index_t h = 0; h < H; ++h) {
        for (index_t ww = 0; ww < W; ++ww) db += gy.at(n, co, h, ww);
      }
    }
    g.db[co] = static_cast<float>(db);
  }
  for (index_t co = 0; co < C_out; ++co) {
    for (index_t ci = 0; ci < C_in; ++ci) {
      for (index_t kh = 0; kh < k; ++kh) {
        for (index_t kw = 0; kw < k; ++kw) {
          double dw = 0.0;
          for (index_t n = 0; n < N; ++n) {
            for (index_t h = 0; h < H; ++h) {
              const index_t hh = h + kh - r;
              if (hh < 0 || hh >= H) continue;
              for (index_t ww = 0; ww < W; ++ww) {
                const index_t wc = ww + kw - r;
                if (wc < 0 || wc >= W) continue;
                dw += gy.at(n, co, h, ww) * x.at(n, ci, hh, wc);
              }
            }
          }
          g.dw.at(co, ci, kh, kw) = static_cast<float>(dw);
        }
      }
    }
  }
  for (index_t n = 0; n < N; ++n) {
    for (index_t ci = 0; ci < C_in; ++ci) {
      for (index_t h = 0; h < H; ++h) {
        for (index_t ww = 0; ww < W; ++ww) {
          float s = 0.0f;
          for (index_t co = 0; co < C_out; ++co) {
            for (index_t kh = 0; kh < k; ++kh) {
              const index_t ho = h - (kh - r);
              if (ho < 0 || ho >= H) continue;
              for (index_t kw = 0; kw < k; ++kw) {
                const index_t wo = ww - (kw - r);
                if (wo < 0 || wo >= W) continue;
                s += w.at(co, ci, kh, kw) * gy.at(n, co, ho, wo);
              }
            }
          }
          g.dx.at(n, ci, h, ww) = s;
        }
      }
    }
  }
  return g;
}

}  // namespace

TEST(Conv2dEquivalence, ForwardMatchesDirect) {
  // 3x3 goes through im2col; 1x1 feeds the input plane to the GEMM as is.
  for (const index_t k : {3, 1}) {
    SCOPED_TRACE(k);
    mm::Rng rng(5);
    mn::Conv2d conv(3, 4, k, rng);
    const auto x = random_tensor({2, 3, 7, 6}, 6);
    const auto y = conv.forward(x);
    const auto y_ref = direct_conv_forward(x, conv.parameters()[0]->value,
                                           conv.parameters()[1]->value);
    expect_tensors_near(y, y_ref, 1e-5);
  }
}

TEST(Conv2dEquivalence, BackwardMatchesDirect) {
  // 5x5 exercises wider shifts; 1x1 skips im2col/col2im entirely.
  for (const index_t k : {5, 1}) {
    SCOPED_TRACE(k);
    mm::Rng rng(7);
    mn::Conv2d conv(2, 3, k, rng);
    const auto x = random_tensor({2, 2, 8, 9}, 8);
    (void)conv.forward(x);
    const auto gy = random_tensor({2, 3, 8, 9}, 9);
    conv.zero_grad();
    const auto gx = conv.backward(gy);

    const auto ref = direct_conv_backward(x, conv.parameters()[0]->value, gy);
    expect_tensors_near(conv.parameters()[0]->grad, ref.dw, 1e-4);
    expect_tensors_near(conv.parameters()[1]->grad, ref.db, 1e-4);
    expect_tensors_near(gx, ref.dx, 1e-5);
  }
}

TEST(Conv2dEquivalence, GradAccumulationAcrossSteps) {
  // backward() must *accumulate* into existing grads (two backwards without
  // zero_grad double the gradient) — the contract optimizers rely on.
  mm::Rng rng(11);
  mn::Conv2d conv(2, 2, 3, rng);
  const auto x = random_tensor({1, 2, 6, 6}, 12);
  const auto gy = random_tensor({1, 2, 6, 6}, 13);
  (void)conv.forward(x);
  conv.zero_grad();
  (void)conv.backward(gy);
  mn::Tensor once = conv.parameters()[0]->grad;
  (void)conv.forward(x);
  (void)conv.backward(gy);
  for (index_t i = 0; i < once.numel(); ++i) {
    ASSERT_NEAR(conv.parameters()[0]->grad[i], 2.0f * once[i], 1e-4);
  }
}

TEST(LinearEquivalence, ForwardAndBackwardMatchDirect) {
  mm::Rng rng(15);
  mn::Linear lin(7, 5, rng);
  const auto x = random_tensor({4, 7}, 16);
  const auto& w = lin.parameters()[0]->value;
  const auto& b = lin.parameters()[1]->value;

  const auto y = lin.forward(x);
  for (index_t n = 0; n < 4; ++n) {
    for (index_t o = 0; o < 5; ++o) {
      float s = b[o];
      for (index_t i = 0; i < 7; ++i) s += w[o * 7 + i] * x[n * 7 + i];
      ASSERT_NEAR(y[n * 5 + o], s, 1e-5);
    }
  }

  const auto gy = random_tensor({4, 5}, 17);
  lin.zero_grad();
  const auto gx = lin.backward(gy);
  for (index_t o = 0; o < 5; ++o) {
    float db = 0.0f;
    for (index_t n = 0; n < 4; ++n) db += gy[n * 5 + o];
    ASSERT_NEAR(lin.parameters()[1]->grad[o], db, 1e-5);
    for (index_t i = 0; i < 7; ++i) {
      float dw = 0.0f;
      for (index_t n = 0; n < 4; ++n) dw += gy[n * 5 + o] * x[n * 7 + i];
      ASSERT_NEAR(lin.parameters()[0]->grad[o * 7 + i], dw, 1e-5);
    }
  }
  for (index_t n = 0; n < 4; ++n) {
    for (index_t i = 0; i < 7; ++i) {
      float s = 0.0f;
      for (index_t o = 0; o < 5; ++o) s += w[o * 7 + i] * gy[n * 5 + o];
      ASSERT_NEAR(gx[n * 7 + i], s, 1e-5);
    }
  }
}
