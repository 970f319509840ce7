// Dense 2D array with the MAPS flattening convention.
//
// Grid2D<T> stores an (nx, ny) scalar field with flattened index
// n = i + nx*j (x fastest). This matches the FDFD unknown ordering so field
// vectors returned by the solver can be viewed as Grid2D without copies.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "math/types.hpp"

namespace maps::math {

template <typename T>
class Grid2D {
 public:
  Grid2D() = default;
  Grid2D(index_t nx, index_t ny, T fill = T{})
      : nx_(nx), ny_(ny), data_(checked_size(nx, ny), fill) {}
  Grid2D(index_t nx, index_t ny, std::vector<T> data)
      : nx_(nx), ny_(ny), data_(std::move(data)) {
    require(data_.size() == checked_size(nx, ny), "Grid2D: data size mismatch");
  }

  index_t nx() const { return nx_; }
  index_t ny() const { return ny_; }
  index_t size() const { return nx_ * ny_; }
  bool in_bounds(index_t i, index_t j) const {
    return i >= 0 && i < nx_ && j >= 0 && j < ny_;
  }

  T& operator()(index_t i, index_t j) { return data_[idx(i, j)]; }
  const T& operator()(index_t i, index_t j) const { return data_[idx(i, j)]; }
  T& operator[](index_t n) { return data_[static_cast<std::size_t>(n)]; }
  const T& operator[](index_t n) const { return data_[static_cast<std::size_t>(n)]; }

  std::size_t idx(index_t i, index_t j) const {
    return static_cast<std::size_t>(i + nx_ * j);
  }

  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Elementwise map to a new grid.
  template <typename F>
  auto map(F f) const {
    using U = decltype(f(std::declval<T>()));
    Grid2D<U> out(nx_, ny_);
    for (index_t n = 0; n < size(); ++n) out[n] = f(data_[static_cast<std::size_t>(n)]);
    return out;
  }

  bool same_shape(const Grid2D& o) const { return nx_ == o.nx_ && ny_ == o.ny_; }

 private:
  /// nx * ny, after rejecting a negative dimension (before anything is sized).
  static std::size_t checked_size(index_t nx, index_t ny) {
    require(nx >= 0 && ny >= 0, "Grid2D: negative dimensions");
    return static_cast<std::size_t>(nx * ny);
  }

  index_t nx_ = 0, ny_ = 0;
  std::vector<T> data_;
};

using RealGrid = Grid2D<double>;
using CplxGrid = Grid2D<cplx>;

}  // namespace maps::math
