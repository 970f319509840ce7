// Dense float32 tensor for the MAPS-Train neural framework.
//
// Row-major, value semantics. Field maps follow the (N, C, H, W) layout with
// W indexing x and H indexing y, so W lines up with the Grid2D fast axis.
// Storage comes from the block recycler (math/recycle.hpp): a forward
// allocates the same few activation sizes on every call.
#pragma once

#include <cstdint>
#include <vector>

#include "math/recycle.hpp"
#include "math/types.hpp"

namespace maps::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<index_t> shape, float fill = 0.0f);

  static Tensor zeros_like(const Tensor& t) { return Tensor(t.shape_); }

  index_t numel() const { return static_cast<index_t>(data_.size()); }
  int ndim() const { return static_cast<int>(shape_.size()); }
  index_t size(int d) const;
  const std::vector<index_t>& shape() const { return shape_; }
  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](index_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](index_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// 4D accessor (N, C, H, W); bounds unchecked in release paths.
  float& at(index_t n, index_t c, index_t h, index_t w) {
    return data_[static_cast<std::size_t>(((n * shape_[1] + c) * shape_[2] + h) *
                                          shape_[3] + w)];
  }
  float at(index_t n, index_t c, index_t h, index_t w) const {
    return data_[static_cast<std::size_t>(((n * shape_[1] + c) * shape_[2] + h) *
                                          shape_[3] + w)];
  }

  /// Reinterpret with a new shape of equal numel.
  Tensor reshaped(std::vector<index_t> new_shape) const;

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void add_(const Tensor& o, float scale = 1.0f);
  void scale_(float s);
  double sum() const;
  double sumsq() const;

 private:
  std::vector<index_t> shape_;
  maps::math::RecycledVector<float> data_;
};

}  // namespace maps::nn
