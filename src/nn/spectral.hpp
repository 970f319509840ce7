// Spectral convolution layers: the Fourier-domain kernels of FNO [6] and
// Factorized-FNO [7].
//
// SpectralConv2d: Fourier transform -> complex channel-mixing weights on the
// low-frequency corner blocks (kx in [0,m1) u [nx-m1,nx), ky in [0,m2)) ->
// inverse transform, real part. SpectralConv1d applies the same idea along a
// single axis (weights shared across the other axis), which is the
// factorization of F-FNO.
//
// Only the retained modes are ever formed: each transform is a
// mode-truncated real DFT lowered onto math::sgemm ([cos | -sin] bases over
// the kept frequencies, batched across every (sample, channel) plane), so
// the cost is O(H*W*modes) GEMM work and any grid size is exact. Both layers
// have exact adjoint backward passes: the same GEMMs with the bases
// transposed, and weight gradients from the conjugated products of the
// cached kept-mode coefficients. Transform scratch and kept-mode buffers are
// recycled blocks (math/recycle.hpp): a forward allocates the same sizes on
// every call.
#pragma once

#include "math/recycle.hpp"
#include "nn/module.hpp"

namespace maps::nn {

class SpectralConv2d final : public Module {
 public:
  SpectralConv2d(index_t c_in, index_t c_out, index_t modes_x, index_t modes_y,
                 maps::math::Rng& rng, std::string tag = "spectral2d");

  std::string name() const override { return tag_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param*> parameters() override { return {&w_}; }

 private:
  /// Truncated DFT -> corner-block channel mixing -> inverse DFT, shared by
  /// forward() and infer(). On return `x_hat` holds the input's kept-mode
  /// coefficients (the forward path moves it into the backward cache; infer
  /// drops it).
  Tensor run_forward(const Tensor& x, maps::math::RecycledVector<float>& x_hat) const;

  index_t c_in_, c_out_, mx_, my_;
  std::string tag_;
  // (2 blocks, c_in, c_out, mx, my, 2[re/im])
  Param w_;
  // Cached kept-mode coefficients of the input.
  maps::math::RecycledVector<float> x_hat_;
  std::vector<index_t> in_shape_;
};

enum class FftAxis { X, Y };

class SpectralConv1d final : public Module {
 public:
  SpectralConv1d(index_t c_in, index_t c_out, index_t modes, FftAxis axis,
                 maps::math::Rng& rng, std::string tag = "spectral1d");

  std::string name() const override { return tag_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param*> parameters() override { return {&w_}; }

 private:
  Tensor run_forward(const Tensor& x, maps::math::RecycledVector<float>& x_hat) const;

  index_t c_in_, c_out_, m_;
  FftAxis axis_;
  std::string tag_;
  // (2 blocks, c_in, c_out, m, 2[re/im])
  Param w_;
  maps::math::RecycledVector<float> x_hat_;
  std::vector<index_t> in_shape_;
};

}  // namespace maps::nn
