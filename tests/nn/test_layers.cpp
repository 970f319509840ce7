// Layer gradient checks (parameters AND inputs) plus shape/behavior tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "math/rng.hpp"
#include "nn/gradcheck.hpp"
#include "nn/layers.hpp"

namespace mn = maps::nn;
namespace mm = maps::math;
using maps::index_t;

namespace {
mn::Tensor random_input(std::vector<index_t> shape, unsigned seed) {
  mm::Rng rng(seed);
  mn::Tensor x(std::move(shape));
  for (index_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}
}  // namespace

TEST(Conv2d, OutputShapeSamePadding) {
  mm::Rng rng(1);
  mn::Conv2d conv(3, 5, 3, rng);
  auto y = conv.forward(random_input({2, 3, 8, 8}, 2));
  EXPECT_EQ(y.size(0), 2);
  EXPECT_EQ(y.size(1), 5);
  EXPECT_EQ(y.size(2), 8);
  EXPECT_EQ(y.size(3), 8);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  mm::Rng rng(1);
  mn::Conv2d conv(1, 1, 3, rng);
  for (mn::Param* p : conv.parameters()) p->value.fill(0.0f);
  // Set the center tap to 1.
  conv.parameters()[0]->value.at(0, 0, 1, 1) = 1.0f;
  auto x = random_input({1, 1, 6, 6}, 3);
  auto y = conv.forward(x);
  for (index_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, GradCheck) {
  mm::Rng rng(7);
  mn::Conv2d conv(2, 3, 3, rng);
  auto res = mn::gradcheck(conv, random_input({2, 2, 6, 6}, 8), 1);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Conv2d, GradCheck1x1) {
  mm::Rng rng(9);
  mn::Conv2d conv(4, 4, 1, rng);
  auto res = mn::gradcheck(conv, random_input({2, 4, 5, 5}, 10), 2);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Linear, GradCheck) {
  mm::Rng rng(11);
  mn::Linear lin(6, 4, rng);
  auto res = mn::gradcheck(lin, random_input({3, 6}, 12), 3);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

class ActivationGrad : public ::testing::TestWithParam<mn::Act> {};

TEST_P(ActivationGrad, GradCheck) {
  mn::Activation act(GetParam());
  auto res = mn::gradcheck(act, random_input({2, 3, 4, 4}, 13), 4, 0, 24, 1e-3);
  EXPECT_LT(res.max_input_err, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ActivationGrad,
                         ::testing::Values(mn::Act::Relu, mn::Act::Gelu, mn::Act::Tanh,
                                           mn::Act::Sigmoid),
                         [](const ::testing::TestParamInfo<mn::Act>& info) {
                           switch (info.param) {
                             case mn::Act::Relu: return "relu";
                             case mn::Act::Gelu: return "gelu";
                             case mn::Act::Tanh: return "tanh";
                             case mn::Act::Sigmoid: return "sigmoid";
                           }
                           return "?";
                         });

TEST(Activation, ReluClampsNegatives) {
  mn::Activation relu(mn::Act::Relu);
  mn::Tensor x({4});
  x[0] = -1;
  x[1] = 0;
  x[2] = 2;
  x[3] = -0.5;
  auto y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  EXPECT_FLOAT_EQ(y[3], 0);
}

namespace {
double gelu_reference(double x) { return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0))); }
}  // namespace

TEST(Activation, GeluMatchesErfDefinition) {
  // The fp32 GELU (forward and infer share one kernel) against the double
  // erf definition on a dense grid over [-12, 12]; past it the kernel is
  // exactly x or -0.
  constexpr index_t kPoints = 240001;
  mn::Tensor x({kPoints});
  for (index_t i = 0; i < kPoints; ++i) {
    x[i] = static_cast<float>(-12.0 + 24.0 * static_cast<double>(i) / (kPoints - 1));
  }
  mn::Activation gelu(mn::Act::Gelu);
  const mn::Tensor via_infer = gelu.infer(x);
  const mn::Tensor via_forward = gelu.forward(x);
  ASSERT_EQ(std::memcmp(via_infer.data(), via_forward.data(),
                        static_cast<std::size_t>(kPoints) * sizeof(float)),
            0);
  for (index_t i = 0; i < kPoints; ++i) {
    const double v = x[i];
    ASSERT_NEAR(via_infer[i], gelu_reference(v), 2e-6 * std::max(1.0, std::fabs(v)))
        << "x = " << v;
  }
}

TEST(Activation, GeluKeepsNonFiniteInputs) {
  // Serve's confidence screen escalates on non-finite fields, so GELU must
  // not launder them: NaN -> NaN, +inf -> +inf, and -inf -> whatever the
  // double definition gives (NaN, from -inf * 0).
  constexpr float kInf = std::numeric_limits<float>::infinity();
  mn::Tensor x({3});
  x[0] = std::numeric_limits<float>::quiet_NaN();
  x[1] = kInf;
  x[2] = -kInf;
  mn::Activation gelu(mn::Act::Gelu);
  const mn::Tensor y = gelu.infer(x);
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_EQ(y[1], kInf);
  const double ref = gelu_reference(-static_cast<double>(kInf));
  if (std::isnan(ref)) {
    EXPECT_TRUE(std::isnan(y[2]));
  } else {
    EXPECT_EQ(static_cast<double>(y[2]), ref);
  }
}

TEST(GroupNorm, NormalizesPerGroup) {
  mn::GroupNorm gn(2, 4);
  auto x = random_input({2, 4, 5, 5}, 14);
  auto y = gn.forward(x);
  // Per (n, g) the normalized output (gamma=1, beta=0) has mean 0, var 1.
  for (index_t n = 0; n < 2; ++n) {
    for (index_t g = 0; g < 2; ++g) {
      double mean = 0, var = 0;
      for (index_t c = 2 * g; c < 2 * (g + 1); ++c) {
        for (index_t h = 0; h < 5; ++h) {
          for (index_t w = 0; w < 5; ++w) mean += y.at(n, c, h, w);
        }
      }
      mean /= 50.0;
      for (index_t c = 2 * g; c < 2 * (g + 1); ++c) {
        for (index_t h = 0; h < 5; ++h) {
          for (index_t w = 0; w < 5; ++w) {
            var += (y.at(n, c, h, w) - mean) * (y.at(n, c, h, w) - mean);
          }
        }
      }
      var /= 50.0;
      EXPECT_NEAR(mean, 0.0, 1e-5);
      EXPECT_NEAR(var, 1.0, 1e-3);
    }
  }
}

TEST(GroupNorm, GradCheck) {
  mn::GroupNorm gn(2, 4);
  // Nudge affine params off their init so the test is not at a special point.
  mm::Rng rng(15);
  for (mn::Param* p : gn.parameters()) {
    for (index_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] += static_cast<float>(rng.uniform(-0.3, 0.3));
    }
  }
  auto res = mn::gradcheck(gn, random_input({2, 4, 4, 4}, 16), 5, 16, 16, 1e-3);
  EXPECT_LT(res.max_param_err, 1e-2);
  EXPECT_LT(res.max_input_err, 1e-2);
}

TEST(MaxPool, ForwardPicksMaxima) {
  mn::MaxPool2d pool;
  mn::Tensor x({1, 1, 2, 4});
  for (index_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  auto y = pool.forward(x);
  EXPECT_EQ(y.size(2), 1);
  EXPECT_EQ(y.size(3), 2);
  EXPECT_FLOAT_EQ(y[0], 5.0f);  // max of {0,1,4,5}
  EXPECT_FLOAT_EQ(y[1], 7.0f);  // max of {2,3,6,7}
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  mn::MaxPool2d pool;
  mn::Tensor x({1, 1, 2, 2});
  x[0] = 1;
  x[1] = 4;
  x[2] = 2;
  x[3] = 3;
  (void)pool.forward(x);
  mn::Tensor g({1, 1, 1, 1});
  g[0] = 5.0f;
  auto gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(Upsample, NearestNeighborAndAdjoint) {
  mn::Upsample2x up;
  auto x = random_input({1, 2, 3, 3}, 17);
  auto y = up.forward(x);
  EXPECT_EQ(y.size(2), 6);
  for (index_t h = 0; h < 6; ++h) {
    for (index_t w = 0; w < 6; ++w) {
      EXPECT_FLOAT_EQ(y.at(0, 1, h, w), x.at(0, 1, h / 2, w / 2));
    }
  }
  auto res = mn::gradcheck(up, x, 6, 0, 12, 1e-3);
  EXPECT_LT(res.max_input_err, 1e-3);
}

TEST(Sequential, ComposesAndCollectsParams) {
  mm::Rng rng(19);
  mn::Sequential seq;
  seq.add(std::make_unique<mn::Conv2d>(1, 2, 3, rng));
  seq.add(std::make_unique<mn::Activation>(mn::Act::Gelu));
  seq.add(std::make_unique<mn::Conv2d>(2, 1, 3, rng));
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2x (w, b)
  auto res = mn::gradcheck(seq, random_input({1, 1, 6, 6}, 20), 7);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}
