// Standard layers: convolution, linear, activations, normalization,
// pooling/upsampling. All backwards are exact (verified by gradcheck tests).
#pragma once

#include "nn/module.hpp"

namespace maps::nn {

/// 2D convolution, stride 1, zero "same" padding (odd kernel).
///
/// Forward and backward are lowered onto the GEMM substrate (math/gemm.hpp):
/// per sample, im2col unrolls the input into a (c_in*k*k) x (H*W) column
/// matrix, the forward is one GEMM against the (c_out, c_in*k*k) weight
/// matrix, the weight gradient is a GEMM over the same column buffer and the
/// input gradient is a transposed GEMM followed by col2im. For k = 1 the
/// input plane is the column matrix, so the GEMMs read and write the
/// tensors directly, with no im2col/col2im copy and no column scratch.
class Conv2d final : public Module {
 public:
  Conv2d(index_t c_in, index_t c_out, index_t k, maps::math::Rng& rng,
         std::string tag = "conv");

  std::string name() const override { return tag_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param*> parameters() override { return {&w_, &b_}; }

  index_t in_channels() const { return c_in_; }
  index_t out_channels() const { return c_out_; }

 private:
  /// The im2col+GEMM forward shared by forward() and infer(); `col` is the
  /// caller-provided per-sample column scratch (untouched when k = 1).
  Tensor run_forward(const Tensor& x, std::vector<float>& col) const;

  index_t c_in_, c_out_, k_;
  std::string tag_;
  Param w_;  // (c_out, c_in, k, k)
  Param b_;  // (c_out)
  Tensor x_cache_;
  // Per-sample im2col scratch, reused across samples and steps ((c_in*k*k) x
  // (H*W) floats — the memory cost of the GEMM lowering; empty when k = 1).
  std::vector<float> col_, dcol_;
};

/// Fully connected layer on (N, F) tensors.
class Linear final : public Module {
 public:
  Linear(index_t f_in, index_t f_out, maps::math::Rng& rng, std::string tag = "linear");

  std::string name() const override { return tag_; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param*> parameters() override { return {&w_, &b_}; }

 private:
  Tensor run_forward(const Tensor& x) const;

  index_t f_in_, f_out_;
  std::string tag_;
  Param w_;  // (f_out, f_in)
  Param b_;  // (f_out)
  Tensor x_cache_;
};

enum class Act { Relu, Gelu, Tanh, Sigmoid };

class Activation final : public Module {
 public:
  explicit Activation(Act kind) : kind_(kind) {}
  std::string name() const override { return "activation"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;

 private:
  Act kind_;
  Tensor x_cache_;
};

/// GroupNorm over (channels/groups, H, W) per sample with learned affine.
class GroupNorm final : public Module {
 public:
  GroupNorm(index_t groups, index_t channels, double eps = 1e-5);

  std::string name() const override { return "group_norm"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;
  std::vector<Param*> parameters() override { return {&gamma_, &beta_}; }

 private:
  /// Shared normalization core: writes y; optionally records xhat and the
  /// per-(n, g) inverse stddev for backward (null in the infer path).
  void run_forward(const Tensor& x, Tensor& y, Tensor* xhat,
                   std::vector<double>* inv_std) const;

  index_t groups_, channels_;
  double eps_;
  Param gamma_, beta_;
  Tensor x_cache_, xhat_cache_;
  std::vector<double> inv_std_;  // per (n, g)
};

/// 2x2 max pooling, stride 2 (even H, W).
class MaxPool2d final : public Module {
 public:
  std::string name() const override { return "max_pool2d"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;

 private:
  Tensor run_forward(const Tensor& x, std::vector<index_t>* argmax) const;

  std::vector<index_t> argmax_;
  std::vector<index_t> in_shape_;
};

/// 2x nearest-neighbour upsampling.
class Upsample2x final : public Module {
 public:
  std::string name() const override { return "upsample2x"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor infer(const Tensor& x) const override;

 private:
  Tensor run_forward(const Tensor& x) const;

  std::vector<index_t> in_shape_;
};

}  // namespace maps::nn
