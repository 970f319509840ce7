// Coarse-grid backend: the Low-fidelity solve path.
//
// Restricts the permittivity to a factor-coarsened Yee grid covering the same
// physical domain (PML thickness preserved in micrometres), solves there with
// a direct banded backend, and prolongates the solution back to the fine grid
// by bilinear interpolation. A factor-2 coarsening makes the band LDL^T ~8x
// cheaper (N * bw^2), which is the cost model the paper's multi-fidelity data
// generation is built on: fields carry the coarse grid's O(h^2) dispersion
// error but resolve the same guided-mode physics.
//
// Documented accuracy: on the test waveguide (tests/solver/test_backends.cpp)
// the factor-2 prolongated field agrees with the fine direct solve to an
// N-L2 error < 0.30; callers needing verification-grade fields must use
// FidelityLevel::High.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "solver/direct.hpp"

namespace maps::solver {

class CoarseGridBackend final : public SolverBackend {
 public:
  CoarseGridBackend(const grid::GridSpec& spec, const maps::math::RealGrid& eps,
                    double omega, const fdfd::PmlSpec& pml, int factor = 2,
                    SolverPrecision precision = default_solver_precision(),
                    const RefinementOptions& refinement = {});

  std::string name() const override { return "coarse_grid"; }
  void factorize() override { inner_->factorize(); }
  std::vector<cplx> solve(const std::vector<cplx>& rhs) override;
  std::vector<cplx> solve_transposed(const std::vector<cplx>& rhs) override;
  std::vector<std::vector<cplx>> solve_batch(
      std::span<const std::vector<cplx>> rhs) override;
  std::vector<std::vector<cplx>> solve_transposed_batch(
      std::span<const std::vector<cplx>> rhs) override;

  /// Fine-grid operator, assembled lazily: the coarse path never needs it for
  /// solving, but adjoint consumers read W and tests read A from here.
  const fdfd::FdfdOperator& op() const override;

  int factorization_count() const override { return inner_->factorization_count(); }
  int solve_count() const override { return inner_->solve_count(); }
  int refinement_iteration_count() const override {
    return inner_->refinement_iteration_count();
  }
  int refinement_fallback_count() const override {
    return inner_->refinement_fallback_count();
  }
  std::size_t factor_bytes() const override { return inner_->factor_bytes(); }

  const grid::GridSpec& coarse_spec() const { return coarse_spec_; }
  int factor() const { return factor_; }

 private:
  std::vector<cplx> restrict_rhs(const std::vector<cplx>& rhs) const;
  std::vector<cplx> prolongate(std::vector<cplx> coarse) const;

  grid::GridSpec fine_spec_;
  maps::math::RealGrid fine_eps_;
  double omega_;
  fdfd::PmlSpec pml_;
  int factor_;
  grid::GridSpec coarse_spec_;
  std::unique_ptr<DirectBandedBackend> inner_;

  mutable std::mutex op_mu_;
  mutable std::optional<fdfd::FdfdOperator> fine_op_;
};

}  // namespace maps::solver
