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
// that symmetrizes the operator: S = W*A = (W*A)^T. The direct solver
// assembles the lower band of W·A and factorizes S = L D L^T, so forward and
// adjoint solves share one kernel. MAPS also uses W to express the adjoint
// solve A^T lambda = g as the *forward* solve A (W^{-1} lambda) = W^{-1} g,
// which is what lets a forward-field neural surrogate predict adjoint fields
// (paper Fig. 3, "adj src").
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

/// The lower band of S = W·A, assembled straight into the LDL^T kernel's
/// storage (math::SymBandLdltT, kl = nx under the natural n = i + nx*j
/// ordering, 1 on a single-row grid). This is the direct solver's operator:
/// solver::DirectBandedBackend factorizes S and solves forward and adjoint
/// systems through it. Coefficient arithmetic is identical to assemble();
/// each stored entry is W_n times the A(n, m), m <= n, that assemble()
/// produces, rounded to T at the store. No CSR A is built.
///
/// T = float is the mixed-precision path (solver::SolverPrecision::Mixed):
/// the double-sized band is never allocated or written.
template <typename T>
struct BandedOperatorT {
  maps::math::SymBandLdltT<T> S;    // lower band of W·A
  std::vector<cplx> W;              // symmetrizing row scale, size N
  double omega = 0.0;
  grid::GridSpec spec;
};

template <typename T>
BandedOperatorT<T> assemble_banded_t(const grid::GridSpec& spec,
                                     const maps::math::RealGrid& eps, double omega,
                                     const PmlSpec& pml);

/// The same lower band of S = W·A from an already-assembled operator (the TE
/// operator, or any FdfdOperator handed to DirectBandedBackend). Throws
/// MapsError when W·A is not symmetric to rounding.
template <typename T>
maps::math::SymBandLdltT<T> symmetric_band_t(const FdfdOperator& op);

extern template BandedOperatorT<double> assemble_banded_t<double>(
    const grid::GridSpec&, const maps::math::RealGrid&, double, const PmlSpec&);
extern template BandedOperatorT<float> assemble_banded_t<float>(
    const grid::GridSpec&, const maps::math::RealGrid&, double, const PmlSpec&);
extern template maps::math::SymBandLdltT<double> symmetric_band_t<double>(
    const FdfdOperator&);
extern template maps::math::SymBandLdltT<float> symmetric_band_t<float>(
    const FdfdOperator&);

/// Right-hand side from a current source: b = -i omega J.
std::vector<cplx> rhs_from_current(const maps::math::CplxGrid& J, double omega);

}  // namespace maps::fdfd
