// TE (Hz) polarization FDFD: the second 2D polarization of the MAPS solver.
//
// Discretizes, with the same SC-PML stretch factors as the TM assembler,
//
//   (1/sc_x) d/dx ( (1/(eps se_x)) dHz/dx )
//     + (1/sc_y) d/dy ( (1/(eps se_y)) dHz/dy ) + omega^2 Hz = -i omega Mz
//
// where Mz is a magnetic current sheet. The permittivity enters through
// inverse-averaged *edge* coefficients g_e = (1/eps_a + 1/eps_b)/2, so the
// adjoint gradient lives on edges and is scattered back to cells with the
// exact d(g_e)/d(eps) = -1/(2 eps^2) chain factor — structurally different
// from the TM case (where eps sits on the diagonal) and verified against
// finite differences in the tests.
//
// The same row scaling W = sc_x sc_y symmetrizes the operator, so adjoint
// solves reuse the transposed-LU path.
#pragma once

#include <memory>
#include <optional>

#include "fdfd/assembler.hpp"
#include "fdfd/objective.hpp"
#include "fdfd/pml.hpp"
#include "fdfd/port.hpp"
#include "grid/yee_grid.hpp"
#include "math/banded_split.hpp"
#include "math/field2d.hpp"

namespace maps::fdfd {

/// TE field solution: Hz plus derived in-plane E.
struct TeFields {
  maps::math::CplxGrid Hz;
  maps::math::CplxGrid Ex;  // (i/(omega eps)) dHz/dy
  maps::math::CplxGrid Ey;  // -(i/(omega eps)) dHz/dx
};

/// Assemble the TE operator; W is the symmetrizing row scale.
FdfdOperator assemble_te(const grid::GridSpec& spec, const maps::math::RealGrid& eps,
                         double omega, const PmlSpec& pml);

class TeSimulation {
 public:
  TeSimulation(grid::GridSpec spec, maps::math::RealGrid eps, double omega,
               PmlSpec pml = {});

  const grid::GridSpec& spec() const { return spec_; }
  const maps::math::RealGrid& eps() const { return eps_; }
  double omega() const { return omega_; }
  const FdfdOperator& op() const { return op_; }
  const PmlSpec& pml_spec() const { return pml_; }

  /// Solve A Hz = -i omega Mz.
  maps::math::CplxGrid solve(const maps::math::CplxGrid& Mz);
  /// Solve A^T x = rhs (adjoint systems; shares the LU factors).
  maps::math::CplxGrid solve_transposed(const std::vector<cplx>& rhs);

  /// Derive the in-plane electric field from Hz.
  TeFields derive_fields(maps::math::CplxGrid Hz) const;
  TeFields run(const maps::math::CplxGrid& Mz) { return derive_fields(solve(Mz)); }

 private:
  void ensure_factorized();

  grid::GridSpec spec_;
  maps::math::RealGrid eps_;
  double omega_;
  PmlSpec pml_;
  FdfdOperator op_;
  // Split-complex banded LU, factorized on the first solve.
  std::optional<maps::math::SplitBandMatrix> split_;
};

/// Quadratic intensity objective T = sum_n w_n |Hz_n|^2 / norm over a box
/// (focusing objectives; also usable for TM fields). Wirtinger derivative
/// dT/dHz_n = w_n conj(Hz_n) / norm.
struct IntensityTerm {
  grid::BoxRegion box;
  maps::math::RealGrid weights;  // box-shaped; empty = uniform 1
  double norm = 1.0;
  double weight = 1.0;
  Goal goal = Goal::Maximize;
  std::string name = "intensity";

  double sign() const { return goal == Goal::Maximize ? 1.0 : -1.0; }
};

double intensity_value(const IntensityTerm& term, const maps::math::CplxGrid& Hz);

/// Signed objective over terms and its Wirtinger gradient dF/dHz.
double intensity_objective(const std::vector<IntensityTerm>& terms,
                           const maps::math::CplxGrid& Hz);
std::vector<cplx> intensity_dHz(const std::vector<IntensityTerm>& terms,
                                const maps::math::CplxGrid& Hz);

struct TeAdjointResult {
  maps::math::RealGrid grad_eps;  // dF/deps per cell
  maps::math::CplxGrid lambda;    // adjoint field
  double fom = 0.0;
};

/// Adjoint gradient for intensity objectives on a solved TE field. The
/// simulation must be the one that produced Hz.
TeAdjointResult compute_te_adjoint(TeSimulation& sim, const maps::math::CplxGrid& Hz,
                                   const std::vector<IntensityTerm>& terms);

/// Time-averaged Poynting flux of a TE solution through a port line, along
/// the port direction.
double te_port_flux(const TeFields& f, const Port& port, double dl);

}  // namespace maps::fdfd
