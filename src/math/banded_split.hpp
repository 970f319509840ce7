// Complex-symmetric banded LDL^T: the one complex direct-solve kernel. Every
// FDFD direct factorization and solve in the library runs on it.
//
// Algorithm. The FDFD operator A is not symmetric, but its row-scaled form
// S = W·A is complex symmetric (S = S^T, no conjugation; fdfd/assembler.hpp
// builds W). S is factorized as S = L D L^T with L unit lower triangular and
// D diagonal, in natural order and without pivoting, so L keeps the band of
// S. A solve is one forward sweep L y = b followed by one fused sweep
// x_j = y_j / d_j - sum_k l_{j+k,j} x_{j+k}. Forward systems A x = b and
// adjoint systems A^T y = g both reduce to S (solver/direct.hpp), so there is
// no transposed sweep.
//
// Storage. Only the lower band: a column-major (kl+1) x n array per plane,
// S(i, j) for j <= i <= j+kl at [j*(kl+1) + i - j], with the complex entries
// split into two scalar planes (re/im). The inner loops then compile to
// plain FMAs with no interleave shuffles and no libstdc++ complex-multiply
// fixups. After factorize() the diagonal holds d_j and the subdiagonals the
// multipliers l_{i,j}. No pivot vector exists. Both planes come from the
// block recycler (math/recycle.hpp), so a repeated solve of one shape
// reuses the previous band's pages instead of faulting in fresh ones.
//
// Cost (n = nx*ny, kl = nx for FDFD): the factorization is ~n·kl²/2
// complex FMAs, against ~n·kl·(kl+ku) for pivoted banded LU, and the band
// has kl+1 rows against LU's 2kl+ku+1.
//
// Guard. Static pivots are only safe while the elimination stays tame, so
// factorize() checks every column at no extra pass: a pivot with
// |d_j| < kLdltPivotFloor · max_j |S_jj| or a multiplier with
// |l| > kLdltMultiplierBound throws MapsError before any solve can answer.
// On every device the repo builds (six builders, fidelity 1 and 2, gray,
// binary and uniform designs) the smallest pivot ratio is 6.5e-3 and the
// largest |l| 8.2; the factor-2 coarse grid of the Low fidelity reaches
// 7.2e-4 and 38.
//
// Factorization runs right-looking in panels of four columns, so each
// trailing entry is loaded and stored once per four eliminated columns.
//
// Precision: the kernel is templated on the factor scalar T.
//   SymBandLdltT<double> (alias SymBandLdlt)   the exact path.
//   SymBandLdltT<float>  (alias SymBandLdltF)  factors occupy half the
//     bytes and the elimination runs in fp32. Right-hand sides stay double
//     complex: the sweeps widen factor loads to double, so a solve against
//     fp32 factors loses accuracy only through the factors (~1e-7
//     relative). solver::DirectBandedBackend layers mixed-precision
//     iterative refinement on top to recover double accuracy.
#pragma once

#include <vector>

#include "math/recycle.hpp"
#include "math/types.hpp"

namespace maps::math {

/// Pivot floor of the static-pivot guard, relative to max_j |S_jj|.
inline constexpr double kLdltPivotFloor = 1e-6;
/// Largest multiplier |l_ij| the guard accepts.
inline constexpr double kLdltMultiplierBound = 1e3;

template <typename T>
class SymBandLdltT {
 public:
  SymBandLdltT() = default;
  /// n x n complex-symmetric matrix with kl sub- (and super-) diagonals.
  SymBandLdltT(index_t n, index_t kl);

  index_t n() const { return n_; }
  index_t kl() const { return kl_; }

  /// Lower-band element write, j <= i <= j + kl (pre-factorization).
  void set(index_t i, index_t j, cplx v);
  /// Symmetric read: (i, j) and (j, i) address the same entry.
  cplx get(index_t i, index_t j) const;

  /// In-place S = L D L^T. Throws MapsError when the guard trips (a zero,
  /// tiny or non-finite pivot, or a multiplier over the growth bound).
  void factorize();
  bool factorized() const { return factorized_; }

  /// Solve S x = b for every b in bs (overwritten with x): one pass over the
  /// factors per sweep for the whole batch. RHS vectors are double complex.
  void solve_multi_inplace(std::vector<std::vector<cplx>>& bs) const;

  std::size_t storage_bytes() const { return (re_.size() + im_.size()) * sizeof(T); }

 private:
  std::size_t at(index_t i, index_t j) const {
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(kl_ + 1) +
           static_cast<std::size_t>(i - j);
  }

  index_t n_ = 0, kl_ = 0;
  RecycledVector<T> re_, im_;
  bool factorized_ = false;
};

extern template class SymBandLdltT<double>;
extern template class SymBandLdltT<float>;

using SymBandLdlt = SymBandLdltT<double>;
using SymBandLdltF = SymBandLdltT<float>;

}  // namespace maps::math
