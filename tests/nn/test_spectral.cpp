// Spectral convolutions: linearity, band limitation, gradient checks, and a
// double-precision direct-sum golden of each layer's definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <numbers>
#include <vector>

#include "math/rng.hpp"
#include "nn/gradcheck.hpp"
#include "nn/spectral.hpp"

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

using cd = std::complex<double>;

/// Forward output, input gradient and weight gradient of one layer for the
/// loss sum(g * y), evaluated from the layer's definition in double.
struct Golden {
  std::vector<double> y, gx, gw;
};

/// A spectral layer as direct sums: point p of an (H, W) plane lies on line
/// line_of[p] (the whole plane for the 2D layer, a row or a column for the
/// 1D layer) and mode k has phase phase[k][p]. Then
///   X[ci, k, line] = sum_{p on line} x[ci, p] e^{-i phase}
///   y[co, p] = norm * Re sum_k sum_ci Wc(ci, co, k) X[ci, k, line_of[p]] e^{+i phase}
/// with Wc(ci, co, k) = w[w_index(ci, co, k)] + i w[w_index(...) + 1].
Golden direct_eval(const mn::Tensor& x, const mn::Tensor& g, const mn::Tensor& w,
                   index_t n_lines, const std::vector<index_t>& line_of,
                   const std::vector<std::vector<double>>& phase,
                   const std::function<index_t(index_t, index_t, index_t)>& w_index,
                   double norm) {
  const index_t N = x.size(0), ci_n = x.size(1), co_n = g.size(1);
  const index_t P = x.size(2) * x.size(3);
  const index_t K = static_cast<index_t>(phase.size());
  // Line sums of every (sample, channel, mode): e^{-i phase} for the input,
  // e^{+i phase} for the output gradient.
  const auto line_sums = [&](const mn::Tensor& t, index_t c_n, double sign) {
    std::vector<cd> s(static_cast<std::size_t>(N * c_n * K * n_lines));
    for (index_t n = 0; n < N; ++n) {
      for (index_t c = 0; c < c_n; ++c) {
        for (index_t k = 0; k < K; ++k) {
          for (index_t p = 0; p < P; ++p) {
            s[((n * c_n + c) * K + k) * n_lines + line_of[p]] +=
                static_cast<double>(t[(n * c_n + c) * P + p]) *
                std::polar(1.0, sign * phase[k][p]);
          }
        }
      }
    }
    return s;
  };
  const auto X = line_sums(x, ci_n, -1.0);
  const auto G = line_sums(g, co_n, +1.0);
  const auto wc = [&](index_t ci, index_t co, index_t k) {
    const index_t i = w_index(ci, co, k);
    return cd(w[i], w[i + 1]);
  };

  Golden out;
  out.y.assign(static_cast<std::size_t>(N * co_n * P), 0.0);
  out.gx.assign(static_cast<std::size_t>(N * ci_n * P), 0.0);
  out.gw.assign(static_cast<std::size_t>(w.numel()), 0.0);
  for (index_t n = 0; n < N; ++n) {
    for (index_t k = 0; k < K; ++k) {
      for (index_t p = 0; p < P; ++p) {
        const index_t l = line_of[p];
        const cd e = std::polar(1.0, phase[k][p]);
        for (index_t co = 0; co < co_n; ++co) {
          cd s = 0.0;
          for (index_t ci = 0; ci < ci_n; ++ci) {
            s += wc(ci, co, k) * X[((n * ci_n + ci) * K + k) * n_lines + l];
          }
          out.y[(n * co_n + co) * P + p] += norm * (s * e).real();
        }
        for (index_t ci = 0; ci < ci_n; ++ci) {
          cd s = 0.0;
          for (index_t co = 0; co < co_n; ++co) {
            s += wc(ci, co, k) * G[((n * co_n + co) * K + k) * n_lines + l];
          }
          out.gx[(n * ci_n + ci) * P + p] += norm * (s * std::conj(e)).real();
        }
      }
      for (index_t ci = 0; ci < ci_n; ++ci) {
        for (index_t co = 0; co < co_n; ++co) {
          cd s = 0.0;
          for (index_t l = 0; l < n_lines; ++l) {
            s += X[((n * ci_n + ci) * K + k) * n_lines + l] *
                 G[((n * co_n + co) * K + k) * n_lines + l];
          }
          const index_t i = w_index(ci, co, k);
          out.gw[i] += norm * s.real();       // d/dRe W
          out.gw[i + 1] -= norm * s.imag();   // d/dIm W
        }
      }
    }
  }
  return out;
}

/// max |a - ref| / max |ref|.
double max_rel_err(const float* a, const std::vector<double>& ref) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(a[i]) - ref[i]));
    scale = std::max(scale, std::abs(ref[i]));
  }
  return err / scale;
}

/// Kept frequency of weight block b, index km: the m lowest, then the m
/// highest of an axis of length n.
index_t kept_freq(index_t b, index_t km, index_t m, index_t n) {
  return b == 0 ? km : n - m + km;
}

void expect_matches_golden(mn::Module& layer, const mn::Tensor& x, const mn::Tensor& g,
                           const Golden& ref) {
  const mn::Tensor y = layer.forward(x);
  const mn::Tensor gx = layer.backward(g);
  const mn::Tensor& gw = layer.parameters()[0]->grad;
  EXPECT_LE(max_rel_err(y.data(), ref.y), 1e-5);
  EXPECT_LE(max_rel_err(gx.data(), ref.gx), 1e-5);
  EXPECT_LE(max_rel_err(gw.data(), ref.gw), 1e-5);
}

constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr index_t kCin = 2, kCout = 3, kBatch = 2;

void check_spectral2d_golden(index_t H, index_t W, index_t mx, index_t my) {
  mm::Rng rng(31);
  mn::SpectralConv2d spec(kCin, kCout, mx, my, rng);
  const mn::Tensor x = random_input({kBatch, kCin, H, W}, 32);
  const mn::Tensor g = random_input({kBatch, kCout, H, W}, 35);
  std::vector<std::vector<double>> phase;
  for (index_t b = 0; b < 2; ++b) {
    for (index_t km = 0; km < mx; ++km) {
      const index_t kx = kept_freq(b, km, mx, W);
      for (index_t ky = 0; ky < my; ++ky) {
        std::vector<double> ph(static_cast<std::size_t>(H * W));
        for (index_t h = 0; h < H; ++h) {
          for (index_t w = 0; w < W; ++w) {
            ph[h * W + w] = kTwoPi * (static_cast<double>(kx * w) / W +
                                      static_cast<double>(ky * h) / H);
          }
        }
        phase.push_back(std::move(ph));
      }
    }
  }
  const auto w_index = [&](index_t ci, index_t co, index_t k) {
    const index_t b = k / (mx * my), km = (k / my) % mx, ky = k % my;
    return ((((b * kCin + ci) * kCout + co) * mx + km) * my + ky) * 2;
  };
  const Golden ref =
      direct_eval(x, g, spec.parameters()[0]->value, 1,
                  std::vector<index_t>(static_cast<std::size_t>(H * W), 0), phase,
                  w_index, 1.0 / static_cast<double>(H * W));
  expect_matches_golden(spec, x, g, ref);
}

void check_spectral1d_golden(mn::FftAxis axis, index_t H, index_t W, index_t m) {
  mm::Rng rng(33);
  mn::SpectralConv1d spec(kCin, kCout, m, axis, rng);
  const mn::Tensor x = random_input({kBatch, kCin, H, W}, 34);
  const mn::Tensor g = random_input({kBatch, kCout, H, W}, 35);
  const bool along_x = axis == mn::FftAxis::X;
  const index_t L = along_x ? W : H;
  std::vector<index_t> line_of(static_cast<std::size_t>(H * W));
  for (index_t h = 0; h < H; ++h) {
    for (index_t w = 0; w < W; ++w) line_of[h * W + w] = along_x ? h : w;
  }
  std::vector<std::vector<double>> phase;
  for (index_t b = 0; b < 2; ++b) {
    for (index_t km = 0; km < m; ++km) {
      const index_t k = kept_freq(b, km, m, L);
      std::vector<double> ph(static_cast<std::size_t>(H * W));
      for (index_t h = 0; h < H; ++h) {
        for (index_t w = 0; w < W; ++w) {
          ph[h * W + w] = kTwoPi * static_cast<double>(k * (along_x ? w : h)) / L;
        }
      }
      phase.push_back(std::move(ph));
    }
  }
  const auto w_index = [&](index_t ci, index_t co, index_t k) {
    const index_t b = k / m, km = k % m;
    return (((b * kCin + ci) * kCout + co) * m + km) * 2;
  };
  const Golden ref = direct_eval(x, g, spec.parameters()[0]->value,
                                 along_x ? H : W, line_of, phase, w_index,
                                 1.0 / static_cast<double>(L));
  expect_matches_golden(spec, x, g, ref);
}

}  // namespace

TEST(Spectral2d, OutputShape) {
  mm::Rng rng(1);
  mn::SpectralConv2d spec(2, 3, 4, 4, rng);
  auto y = spec.forward(random_input({2, 2, 16, 16}, 2));
  EXPECT_EQ(y.size(0), 2);
  EXPECT_EQ(y.size(1), 3);
  EXPECT_EQ(y.size(2), 16);
  EXPECT_EQ(y.size(3), 16);
}

TEST(Spectral2d, IsLinearInInput) {
  mm::Rng rng(3);
  mn::SpectralConv2d spec(1, 1, 3, 3, rng);
  auto a = random_input({1, 1, 8, 8}, 4);
  auto b = random_input({1, 1, 8, 8}, 5);
  mn::Tensor sum = a;
  sum.add_(b, 2.0f);
  auto ya = spec.forward(a);
  auto yb = spec.forward(b);
  auto ys = spec.forward(sum);
  for (index_t i = 0; i < ys.numel(); ++i) {
    EXPECT_NEAR(ys[i], ya[i] + 2.0f * yb[i], 1e-4);
  }
}

TEST(Spectral2d, HighFrequencyInputIsFiltered) {
  // A Nyquist-rate checkerboard has no energy in the retained low modes.
  mm::Rng rng(6);
  mn::SpectralConv2d spec(1, 1, 2, 2, rng);
  mn::Tensor x({1, 1, 16, 16});
  for (index_t h = 0; h < 16; ++h) {
    for (index_t w = 0; w < 16; ++w) {
      x.at(0, 0, h, w) = ((h + w) % 2 == 0) ? 1.0f : -1.0f;
    }
  }
  auto y = spec.forward(x);
  EXPECT_LT(y.sumsq(), 1e-8);
}

TEST(Spectral2d, DcInputPassesThroughDcWeight) {
  mm::Rng rng(7);
  mn::SpectralConv2d spec(1, 1, 2, 2, rng);
  mn::Tensor x({1, 1, 8, 8}, 1.0f);  // pure DC
  auto y = spec.forward(x);
  // Output = Re(W[block0, k=0] * DC) — constant across the grid.
  for (index_t i = 1; i < y.numel(); ++i) EXPECT_NEAR(y[i], y[0], 1e-5);
}

TEST(Spectral2d, GradCheck) {
  mm::Rng rng(8);
  mn::SpectralConv2d spec(2, 2, 3, 3, rng);
  auto res = mn::gradcheck(spec, random_input({2, 2, 8, 8}, 9), 10, 24, 16, 1e-2);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Spectral1d, GradCheckAxisX) {
  mm::Rng rng(11);
  mn::SpectralConv1d spec(2, 2, 3, mn::FftAxis::X, rng);
  auto res = mn::gradcheck(spec, random_input({2, 2, 8, 8}, 12), 13, 24, 16, 1e-2);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Spectral1d, GradCheckAxisY) {
  mm::Rng rng(14);
  mn::SpectralConv1d spec(2, 2, 3, mn::FftAxis::Y, rng);
  auto res = mn::gradcheck(spec, random_input({2, 2, 8, 8}, 15), 16, 24, 16, 1e-2);
  EXPECT_LT(res.max_param_err, 2e-2);
  EXPECT_LT(res.max_input_err, 2e-2);
}

TEST(Spectral1d, XAxisActsPerRow) {
  // Zeroing one row of the input leaves that row zero in the output for the
  // X-axis transform (rows are independent).
  mm::Rng rng(17);
  mn::SpectralConv1d spec(1, 1, 2, mn::FftAxis::X, rng);
  auto x = random_input({1, 1, 8, 8}, 18);
  for (index_t w = 0; w < 8; ++w) x.at(0, 0, 3, w) = 0.0f;
  auto y = spec.forward(x);
  for (index_t w = 0; w < 8; ++w) EXPECT_NEAR(y.at(0, 0, 3, w), 0.0f, 1e-6);
}

TEST(Spectral2d, ModesMustFitGrid) {
  mm::Rng rng(19);
  mn::SpectralConv2d spec(1, 1, 5, 5, rng);
  EXPECT_THROW(spec.forward(random_input({1, 1, 8, 8}, 20)), maps::MapsError);
}

// --- golden: direct double-precision sums of the layer definitions -----------

TEST(SpectralGolden, Conv2dPowerOfTwoGrid) { check_spectral2d_golden(16, 16, 4, 4); }

TEST(SpectralGolden, Conv2dNonPowerOfTwoGrid) { check_spectral2d_golden(12, 20, 4, 3); }

TEST(SpectralGolden, Conv1dAxisXPowerOfTwoGrid) {
  check_spectral1d_golden(mn::FftAxis::X, 16, 16, 4);
}

TEST(SpectralGolden, Conv1dAxisYPowerOfTwoGrid) {
  check_spectral1d_golden(mn::FftAxis::Y, 16, 16, 4);
}

TEST(SpectralGolden, Conv1dAxisXNonPowerOfTwoGrid) {
  check_spectral1d_golden(mn::FftAxis::X, 12, 20, 4);
}

TEST(SpectralGolden, Conv1dAxisYNonPowerOfTwoGrid) {
  check_spectral1d_golden(mn::FftAxis::Y, 12, 20, 3);
}
