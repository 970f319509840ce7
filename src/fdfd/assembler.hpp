// FDFD operator assembly for the 2D TM (Ez) Helmholtz problem.
//
// Discretizes (with SC-PML stretch factors folded into the differences)
//
//   (1/sc_x) d/dx (1/se_x dEz/dx) + (1/sc_y) d/dy (1/se_y dEz/dy)
//     + omega^2 eps_r Ez = -i omega Jz
//
// on a uniform Yee grid with Dirichlet exterior, flattening n = i + nx*j.
//
// The assembler also exposes the diagonal row scaling W (w_n = sc_x(i)*sc_y(j))
// that symmetrizes the operator: W*A = (W*A)^T. MAPS uses this to express the
// adjoint solve A^T lambda = g as the *forward* solve A (W^{-1} lambda) =
// W^{-1} g, which is what lets a forward-field neural surrogate predict
// adjoint fields (paper Fig. 3, "adj src").
#pragma once

#include "fdfd/pml.hpp"
#include "grid/yee_grid.hpp"
#include "math/banded_split.hpp"
#include "math/csr.hpp"
#include "math/field2d.hpp"

namespace maps::fdfd {

struct FdfdOperator {
  maps::math::CsrCplx A;            // N x N Helmholtz operator
  std::vector<cplx> W;              // symmetrizing row scale, size N
  double omega = 0.0;
  grid::GridSpec spec;
};

/// Assemble the FDFD matrix for permittivity map `eps` at angular frequency
/// `omega` with the given PML. `eps` shape must match `spec`.
FdfdOperator assemble(const grid::GridSpec& spec, const maps::math::RealGrid& eps,
                      double omega, const PmlSpec& pml);

/// The same operator assembled directly into split-complex band storage
/// (kl = ku = nx under the natural n = i + nx*j ordering), skipping the
/// triplet -> CSR -> band conversion chain. This is the prepared-operator
/// fast path of the dataset-generation runtime: coefficient arithmetic is
/// identical to assemble(), so the banded system equals
/// to_split_band(assemble().A) entry-for-entry; only W and the band are produced (no CSR A).
///
/// The band scalar T is a template parameter so the mixed-precision solver
/// path (solver::SolverPrecision::Mixed) assembles straight into fp32 band
/// storage: coefficient arithmetic stays double (identical stretch/coupling
/// values), only the final store rounds to T — the same rounding a
/// double-assemble + convert would produce, without ever allocating or
/// writing the double-sized band.
template <typename T>
struct BandedOperatorT {
  maps::math::SplitBandMatrixT<T> AB;
  std::vector<cplx> W;              // symmetrizing row scale, size N
  double omega = 0.0;
  grid::GridSpec spec;
};

using BandedOperator = BandedOperatorT<double>;
using BandedOperatorF = BandedOperatorT<float>;

template <typename T>
BandedOperatorT<T> assemble_banded_t(const grid::GridSpec& spec,
                                     const maps::math::RealGrid& eps, double omega,
                                     const PmlSpec& pml);

extern template BandedOperatorT<double> assemble_banded_t<double>(
    const grid::GridSpec&, const maps::math::RealGrid&, double, const PmlSpec&);
extern template BandedOperatorT<float> assemble_banded_t<float>(
    const grid::GridSpec&, const maps::math::RealGrid&, double, const PmlSpec&);

inline BandedOperator assemble_banded(const grid::GridSpec& spec,
                                      const maps::math::RealGrid& eps, double omega,
                                      const PmlSpec& pml) {
  return assemble_banded_t<double>(spec, eps, omega, pml);
}

/// Right-hand side from a current source: b = -i omega J.
std::vector<cplx> rhs_from_current(const maps::math::CplxGrid& J, double omega);

}  // namespace maps::fdfd
