// Batched inference entry points over Module::infer.
//
// The serving layer coalesces many single-sample requests into one (N, C, H,
// W) forward so the GEMM batch kernels see a full batch and the
// per-forward dispatch cost is paid once. These helpers do the stacking and
// splitting; because every layer's infer() processes batch rows
// independently, a stacked forward is bit-identical to N single-sample
// forwards.
#pragma once

#include <span>
#include <vector>

#include "nn/module.hpp"

namespace maps::nn {

/// Stack single-sample inputs (each (1, C, H, W)) into one (N, C, H, W)
/// batch. All inputs must share one shape.
Tensor stack_batch(std::span<const Tensor> inputs);

/// Split a batched output into per-sample (1, C, H, W) tensors.
std::vector<Tensor> split_batch(const Tensor& batch);

/// One stacked const forward over the inputs; returns per-sample outputs.
std::vector<Tensor> infer_batch(const Module& model, std::span<const Tensor> inputs);

}  // namespace maps::nn
