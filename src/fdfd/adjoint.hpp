// Adjoint gradient engine (Sec. II-A of the paper).
//
// With A(eps) Ez = b and real objective F(Ez), the adjoint system
// A^T lambda = dF/dEz gives dF/deps_n = -2 omega^2 Re(lambda_n Ez_n).
//
// Because the row scaling W (from the assembler) symmetrizes A, the adjoint
// field can equivalently be obtained from a *forward* solve:
//   lambda = W * A^{-1} (W^{-1} g),
// i.e. an ordinary simulation with current J_adj = W^{-1} g / (-i omega).
// That equivalent-forward-source form is what MAPS feeds to neural
// surrogates ("adj src" in Fig. 3), and it is exported here both ways.
//
// The adjoint consumes the same solver backend as the forward solve (one
// factorization serves both directions): the direct backend factorizes
// S = W·A = L D L^T and answers A^T lambda = g as lambda = W S^{-1} g, the
// same sweep that answers forward solves, so there is no transposed sweep.
// The batched entry point pushes every adjoint system of a device through
// one multi-RHS solve_transposed_batch.
#pragma once

#include "fdfd/objective.hpp"
#include "fdfd/simulation.hpp"

namespace maps::fdfd {

struct AdjointResult {
  maps::math::RealGrid grad_eps;     // dF/deps per cell
  maps::math::CplxGrid lambda;       // true adjoint field (A^T solve)
  maps::math::CplxGrid adj_current;  // J_adj: forward-source equivalent
  double fom = 0.0;                  // objective value at Ez
};

/// Run the adjoint for a solved forward field. The Simulation must be the one
/// that produced Ez (same operator / backend).
AdjointResult compute_adjoint(Simulation& sim, const maps::math::CplxGrid& Ez,
                              const std::vector<FomTerm>& terms);

/// Backend-level adjoint: identical math, expressed directly against the
/// solver layer (upper layers that manage their own backends use this form).
AdjointResult compute_adjoint(solver::SolverBackend& backend,
                              const grid::GridSpec& spec, double omega,
                              const maps::math::CplxGrid& Ez,
                              const std::vector<FomTerm>& terms);

/// Batched adjoint: one entry per (Ez, terms) pair, all transposed systems
/// solved in a single multi-RHS batch against the shared factorization.
std::vector<AdjointResult> compute_adjoint_batch(
    solver::SolverBackend& backend, const grid::GridSpec& spec, double omega,
    const std::vector<const maps::math::CplxGrid*>& Ez,
    const std::vector<const std::vector<FomTerm>*>& terms);

/// Gradient from separately predicted forward and adjoint-as-forward fields
/// (the paper's "Fwd & Adj Field" gradient mode, Table II). `lambda_fwd`
/// must be the field of a forward run with source `adj_current`; W restores
/// the true adjoint inside the PML (it is identity elsewhere).
maps::math::RealGrid grad_from_fields(const maps::math::CplxGrid& Ez,
                                      const maps::math::CplxGrid& lambda_fwd,
                                      const std::vector<cplx>& W, double omega);

}  // namespace maps::fdfd
