#include "math/csr.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "math/parallel.hpp"

namespace maps::math {

template <typename T>
CsrMatrix<T> CsrMatrix<T>::from_triplets(index_t rows, index_t cols,
                                         std::vector<Triplet<T>> triplets) {
  require(rows >= 0 && cols >= 0, "CsrMatrix: negative shape");
  for (const auto& t : triplets) {
    require(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
            "CsrMatrix: triplet out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet<T>& a, const Triplet<T>& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  for (std::size_t k = 0; k < triplets.size();) {
    const index_t r = triplets[k].row;
    const index_t c = triplets[k].col;
    T v{};
    while (k < triplets.size() && triplets[k].row == r && triplets[k].col == c) {
      v += triplets[k].value;
      ++k;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    m.row_ptr_[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(m.values_.size());
  }
  // Rows with no entries inherit the previous offset.
  for (std::size_t r = 1; r < m.row_ptr_.size(); ++r) {
    m.row_ptr_[r] = std::max(m.row_ptr_[r], m.row_ptr_[r - 1]);
  }
  return m;
}

template <typename T>
std::vector<T> CsrMatrix<T>::matvec(const std::vector<T>& x) const {
  require(static_cast<index_t>(x.size()) == cols_, "CsrMatrix::matvec: size mismatch");
  std::vector<T> y(static_cast<std::size_t>(rows_), T{});
  parallel_for_chunked(
      0, static_cast<std::size_t>(rows_),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t r = rb; r < re; ++r) {
          T s{};
          for (index_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            s += values_[static_cast<std::size_t>(k)] *
                 x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
          }
          y[r] = s;
        }
      },
      4096);
  return y;
}

template <typename T>
std::vector<T> CsrMatrix<T>::matvec_transposed(const std::vector<T>& x) const {
  require(static_cast<index_t>(x.size()) == rows_,
          "CsrMatrix::matvec_transposed: size mismatch");
  std::vector<T> y(static_cast<std::size_t>(cols_), T{});
  for (index_t r = 0; r < rows_; ++r) {
    const T xr = x[static_cast<std::size_t>(r)];
    for (index_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      y[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
          values_[static_cast<std::size_t>(k)] * xr;
    }
  }
  return y;
}

template <typename T>
CsrMatrix<T> CsrMatrix<T>::transposed() const {
  std::vector<Triplet<T>> tris;
  tris.reserve(values_.size());
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      tris.push_back({col_idx_[static_cast<std::size_t>(k)], r,
                      values_[static_cast<std::size_t>(k)]});
    }
  }
  return from_triplets(cols_, rows_, std::move(tris));
}

template <typename T>
std::vector<T> CsrMatrix<T>::diagonal() const {
  std::vector<T> d(static_cast<std::size_t>(std::min(rows_, cols_)), T{});
  for (index_t r = 0; r < static_cast<index_t>(d.size()); ++r) {
    for (index_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      if (col_idx_[static_cast<std::size_t>(k)] == r) {
        d[static_cast<std::size_t>(r)] = values_[static_cast<std::size_t>(k)];
      }
    }
  }
  return d;
}

template <typename T>
index_t CsrMatrix<T>::bandwidth() const {
  index_t bw = 0;
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      bw = std::max(bw, std::abs(col_idx_[static_cast<std::size_t>(k)] - r));
    }
  }
  return bw;
}

template <typename T>
double CsrMatrix<T>::residual_norm(const std::vector<T>& x,
                                   const std::vector<T>& b) const {
  require(static_cast<index_t>(b.size()) == rows_,
          "CsrMatrix::residual_norm: rhs size mismatch");
  const std::vector<T> ax = matvec(x);
  double s = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    if constexpr (std::is_same_v<T, cplx>) {
      s += std::norm(ax[i] - b[i]);
    } else {
      const double d = ax[i] - b[i];
      s += d * d;
    }
  }
  return std::sqrt(s);
}

template class CsrMatrix<double>;
template class CsrMatrix<cplx>;

template <typename T>
BandMatrix<T> to_band(const CsrMatrix<T>& a) {
  require(a.rows() == a.cols(), "to_band: matrix must be square");
  index_t kl = 0, ku = 0;
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const index_t c = a.col_idx()[static_cast<std::size_t>(k)];
      kl = std::max(kl, r - c);
      ku = std::max(ku, c - r);
    }
  }
  BandMatrix<T> b(a.rows(), kl, ku);
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      b.set(r, a.col_idx()[static_cast<std::size_t>(k)],
            a.values()[static_cast<std::size_t>(k)]);
    }
  }
  return b;
}

template BandMatrix<double> to_band(const CsrMatrix<double>&);
template BandMatrix<cplx> to_band(const CsrMatrix<cplx>&);

}  // namespace maps::math
