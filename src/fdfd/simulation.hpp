// High-level FDFD simulation: assemble once, factorize once, solve many.
//
// A Simulation binds one (eps, omega, pml) configuration to a solver backend
// (src/solver/): forward solves (current sources), transposed solves
// (adjoint) and batched multi-RHS solves all share the backend's single
// preparation. The solver kind doubles as the fidelity axis — Direct is the
// High-fidelity exact path, Iterative the Medium tolerance path, CoarseGrid
// the Low-fidelity surrogate feed. When SimOptions carries a
// FactorizationCache, identical operators (wavelength sweeps, corner
// re-evaluations) reuse one prepared backend across Simulation instances.
// H fields are derived from Ez exactly as the paper derives its Hx/Hy labels.
#pragma once

#include <memory>

#include "fdfd/assembler.hpp"
#include "solver/cache.hpp"

namespace maps::fdfd {

using solver::FidelityLevel;
using solver::SolverKind;

struct SimOptions {
  PmlSpec pml;
  SolverKind solver = SolverKind::Direct;
  maps::math::BicgstabOptions iterative;
  int coarse_factor = 2;  // CoarseGrid backend coarsening
  /// Factor precision of the direct path: Double (exact) or Mixed (fp32
  /// factors + iterative refinement back to double accuracy). Defaults to
  /// the MAPS_SOLVER_PRECISION environment override, else Double.
  solver::SolverPrecision precision = solver::default_solver_precision();
  solver::RefinementOptions refinement;
  /// Optional shared cache: Simulations with identical (eps, omega, pml,
  /// solver) then share one factorization.
  std::shared_ptr<solver::FactorizationCache> cache;

  /// Select the solver by fidelity level (low -> coarse grid, medium ->
  /// iterative, high -> direct banded).
  void set_fidelity(FidelityLevel level) { solver = solver::solver_kind_for(level); }

  solver::SolverConfig solver_config() const {
    solver::SolverConfig cfg;
    cfg.kind = solver;
    cfg.iterative = iterative;
    cfg.coarse_factor = coarse_factor;
    cfg.precision = precision;
    cfg.refinement = refinement;
    return cfg;
  }
};

/// Full electromagnetic field solution on the simulation grid.
struct Fields {
  maps::math::CplxGrid Ez;
  maps::math::CplxGrid Hx;  // staggered at (i, j+1/2), stored at (i, j)
  maps::math::CplxGrid Hy;  // staggered at (i+1/2, j), stored at (i, j)
};

class Simulation {
 public:
  Simulation(grid::GridSpec spec, maps::math::RealGrid eps, double omega,
             SimOptions options = {});

  const grid::GridSpec& spec() const { return spec_; }
  const maps::math::RealGrid& eps() const { return eps_; }
  double omega() const { return omega_; }
  const SimOptions& options() const { return options_; }

  /// The assembled operator (also the "Maxwell matrices" label in MAPS-Data).
  const FdfdOperator& op() const { return backend_->op(); }

  /// The solver backend answering this simulation's solves.
  solver::SolverBackend& backend() { return *backend_; }

  /// Solve A Ez = -i omega J for a current source J.
  maps::math::CplxGrid solve(const maps::math::CplxGrid& J);

  /// Solve A x = rhs for a raw right-hand side.
  maps::math::CplxGrid solve_raw(const std::vector<cplx>& rhs);

  /// Solve A^T x = rhs (adjoint systems).
  maps::math::CplxGrid solve_transposed(const std::vector<cplx>& rhs);

  /// Batched multi-RHS solves against the shared preparation.
  std::vector<maps::math::CplxGrid> solve_batch(
      const std::vector<maps::math::CplxGrid>& Js);
  std::vector<maps::math::CplxGrid> solve_raw_batch(
      const std::vector<std::vector<cplx>>& rhs);
  std::vector<maps::math::CplxGrid> solve_transposed_batch(
      const std::vector<std::vector<cplx>>& rhs);

  /// Derive Hx, Hy from an Ez solution (forward differences / (i omega)).
  Fields derive_fields(maps::math::CplxGrid Ez) const;

  /// Convenience: solve + derive.
  Fields run(const maps::math::CplxGrid& J) { return derive_fields(solve(J)); }

  /// Number of factorizations performed by the backend (perf accounting in
  /// benches; cumulative across Simulations sharing a cached backend).
  int factorization_count() const { return backend_->factorization_count(); }

  /// Number of solves answered by the backend.
  int solve_count() const { return backend_->solve_count(); }

 private:
  grid::GridSpec spec_;
  maps::math::RealGrid eps_;
  double omega_;
  SimOptions options_;
  std::shared_ptr<solver::SolverBackend> backend_;
};

}  // namespace maps::fdfd
