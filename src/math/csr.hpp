// Compressed sparse row matrices over real or complex scalars.
//
// Used for FDFD operator export ("Maxwell equation matrices" label in
// MAPS-Data), physics-residual losses in MAPS-Train, and as the operator view
// for the iterative solver. Assembly goes through a coordinate (COO) builder.
#pragma once

#include <span>
#include <vector>

#include "math/banded.hpp"
#include "math/types.hpp"

namespace maps::math {

template <typename T>
struct Triplet {
  index_t row;
  index_t col;
  T value;
};

template <typename T>
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix from_triplets(index_t rows, index_t cols,
                                 std::vector<Triplet<T>> triplets);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(values_.size()); }

  std::vector<T> matvec(const std::vector<T>& x) const;
  /// y = A^T x (no conjugation).
  std::vector<T> matvec_transposed(const std::vector<T>& x) const;

  CsrMatrix transposed() const;

  /// Extract the main diagonal (zero where absent).
  std::vector<T> diagonal() const;

  /// Max |i - j| over stored entries: the bandwidth a BandMatrix needs.
  index_t bandwidth() const;

  /// ||A x - b||_2 (residual norm helper used by the Maxwell residual loss).
  double residual_norm(const std::vector<T>& x, const std::vector<T>& b) const;

  std::span<const index_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const T> values() const { return values_; }

 private:
  index_t rows_ = 0, cols_ = 0;
  std::vector<index_t> row_ptr_;  // size rows_+1
  std::vector<index_t> col_idx_;  // size nnz
  std::vector<T> values_;         // size nnz
};

using CsrReal = CsrMatrix<double>;
using CsrCplx = CsrMatrix<cplx>;

extern template class CsrMatrix<double>;
extern template class CsrMatrix<cplx>;

/// Convert a square CSR matrix to banded storage (bands auto-detected). No
/// FDFD solve path uses it: BandMatrix<cplx> is the reference the LDL^T
/// kernel is tested and benchmarked against (fdfd::symmetric_band_t is the
/// CSR -> kernel conversion).
template <typename T>
BandMatrix<T> to_band(const CsrMatrix<T>& a);

extern template BandMatrix<double> to_band(const CsrMatrix<double>&);
extern template BandMatrix<cplx> to_band(const CsrMatrix<cplx>&);

}  // namespace maps::math
