// Split-complex banded LU: the one complex direct-solve kernel. Every
// complex banded factorization and solve in the library runs on it.
//
// Same algorithm and storage convention as the complex BandMatrix (LAPACK
// xGBTF2/xGBTRS with partial pivoting, column-major (2*kl+ku+1) x n band
// array), but the complex entries are stored as two separate scalar arrays
// (re/im). The factorization inner loops then compile to plain FMAs with no
// interleave shuffles and no libstdc++ complex-multiply fixups, which is
// worth several-fold on the FDFD band profile (n = nx*ny, kl = ku = nx;
// BM_BandedFactorize vs BM_BandedFactorizeReference). Pivot selection uses
// the same |re| + |im| magnitude as BandMatrix, so the elimination order is
// identical; entries agree with the complex BandMatrix, kept as the tests'
// reference, to rounding (~1e-15 relative), not bit-for-bit.
//
// Precision: the kernel is templated on the factor scalar T.
//   SplitBandMatrixT<double> (alias SplitBandMatrix)   the exact path; all
//     arithmetic is double, results are unchanged from the untemplated
//     kernel bit for bit.
//   SplitBandMatrixT<float> (alias SplitBandMatrixF)   factors occupy half
//     the bytes and the O(n*bw^2) factorization sweep runs in fp32 at twice
//     the effective memory bandwidth. Right-hand sides stay double complex:
//     the solve loops widen factor loads to double, so a solve against fp32
//     factors loses accuracy only through the factors themselves (~1e-7
//     relative). solver::DirectBandedBackend layers mixed-precision
//     iterative refinement on top to recover double accuracy.
#pragma once

#include <vector>

#include "math/types.hpp"

namespace maps::math {

template <typename T>
class SplitBandMatrixT {
 public:
  SplitBandMatrixT() = default;
  /// n x n matrix with kl subdiagonals and ku superdiagonals.
  SplitBandMatrixT(index_t n, index_t kl, index_t ku);

  /// Precision conversion: copy another instantiation's band entries,
  /// rounding each to T. Requires the source to be unfactorized (converting
  /// pivoted factors would not produce a valid factorization in T).
  template <typename U>
  explicit SplitBandMatrixT(const SplitBandMatrixT<U>& other);

  index_t n() const { return n_; }
  index_t kl() const { return kl_; }
  index_t ku() const { return ku_; }

  /// In-band element write (pre-factorization assembly).
  void set(index_t i, index_t j, cplx v);
  cplx get(index_t i, index_t j) const;

  /// In-place LU with partial pivoting (throws MapsError on singularity).
  /// Elimination arithmetic runs in T: exact for double, fp32 (refinable)
  /// for float.
  void factorize();
  bool factorized() const { return factorized_; }

  /// Solve A x = b / A^T x = b against the factors; b is overwritten.
  /// RHS vectors are always double complex; factor loads widen to double.
  void solve_inplace(std::vector<cplx>& b) const;
  void solve_transposed_inplace(std::vector<cplx>& b) const;

  /// Multi-RHS variants: one sweep over the factors per batch (the band
  /// array dominates the working set; RHS vectors are small).
  void solve_multi_inplace(std::vector<std::vector<cplx>>& bs) const;
  void solve_transposed_multi_inplace(std::vector<std::vector<cplx>>& bs) const;

  std::size_t storage_bytes() const {
    return (re_.size() + im_.size()) * sizeof(T) + ipiv_.size() * sizeof(index_t);
  }

 private:
  template <typename U>
  friend class SplitBandMatrixT;

  std::size_t at(index_t i, index_t j) const {
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(ldab_) +
           static_cast<std::size_t>(kl_ + ku_ + i - j);
  }

  index_t n_ = 0, kl_ = 0, ku_ = 0;
  index_t ldab_ = 0;  // 2*kl + ku + 1
  std::vector<T> re_, im_;
  std::vector<index_t> ipiv_;
  bool factorized_ = false;
};

extern template class SplitBandMatrixT<double>;
extern template class SplitBandMatrixT<float>;
extern template SplitBandMatrixT<float>::SplitBandMatrixT(
    const SplitBandMatrixT<double>&);
extern template SplitBandMatrixT<double>::SplitBandMatrixT(
    const SplitBandMatrixT<float>&);

/// The exact double-precision kernel (the historical SplitBandMatrix name;
/// every pre-existing consumer compiles unchanged against the alias).
using SplitBandMatrix = SplitBandMatrixT<double>;
/// The half-byte fp32 sibling backing mixed-precision refinement.
using SplitBandMatrixF = SplitBandMatrixT<float>;

}  // namespace maps::math
