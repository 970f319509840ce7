// Direct banded-LU backend: the High-fidelity (exact) solve path.
//
// The kernel is the split-complex banded LU (math::SplitBandMatrix): when
// constructed from a problem definition the operator is assembled straight
// into split band storage (fdfd::assemble_banded — no triplet/CSR chain) and
// factorized/solved by the split kernel. An already-assembled operator is
// converted with math::to_split_band at factorization time. Every consumer of the solver layer — Simulation, adjoint batches,
// S-parameter sweeps, the invdes engine, the datagen prep stage — inherits
// this path through make_backend/make_cached_backend.
//
// SolverPrecision::Mixed swaps the factor storage for the fp32 sibling
// (math::SplitBandMatrixF — assembled directly in float32 by
// fdfd::assemble_banded_t<float>, half the bytes, twice the effective
// bandwidth through the O(n*bw^2) elimination sweep) and recovers double
// accuracy by classical iterative refinement: after the fp32 solve, iterate
//   r = b - A x        (residual accumulated in double against the CSR op)
//   d = solve(LU_f32, r)
//   x += d
// until the relative residual reaches RefinementOptions::rtol. Each step
// shrinks the error by ~cond(A) * eps_f32, so well-conditioned FDFD
// operators converge in a handful of iterations; if a step fails to shrink
// the residual 2x (ill-conditioned / PML-heavy operators) or the iteration
// cap is hit, the backend falls back to a double factorization — sticky for
// the backend's lifetime — and re-answers from the exact path. Refinement
// steps and fallbacks are counted in the backend stats.
//
// The CSR fine-grid operator is assembled lazily on op() access — the hot
// paths only ever need W, which the banded assembly already provides (the
// mixed path triggers it on the first refined solve for residuals). The
// factorization is computed lazily on first solve (thread-safe) and reused
// for every subsequent forward, transposed and batched solve. Batches are
// split across the thread pool; each worker's slice goes through the
// multi-RHS banded sweep so the factor array streams through cache once per
// slice instead of once per right-hand side.
#pragma once

#include <atomic>
#include <mutex>
#include <optional>

#include "solver/backend.hpp"

namespace maps::solver {

class DirectBandedBackend final : public SolverBackend {
 public:
  DirectBandedBackend(const grid::GridSpec& spec, const maps::math::RealGrid& eps,
                      double omega, const fdfd::PmlSpec& pml,
                      SolverPrecision precision = default_solver_precision(),
                      const RefinementOptions& refinement = {});
  /// Take ownership of an already-assembled operator (band storage is then
  /// converted from the CSR matrix at factorization time).
  explicit DirectBandedBackend(fdfd::FdfdOperator op,
                               SolverPrecision precision = default_solver_precision(),
                               const RefinementOptions& refinement = {});

  std::string name() const override { return "direct_banded"; }
  void factorize() override;
  std::vector<cplx> solve(const std::vector<cplx>& rhs) override;
  std::vector<cplx> solve_transposed(const std::vector<cplx>& rhs) override;
  std::vector<std::vector<cplx>> solve_batch(
      std::span<const std::vector<cplx>> rhs) override;
  std::vector<std::vector<cplx>> solve_transposed_batch(
      std::span<const std::vector<cplx>> rhs) override;

  /// Fine-grid operator with CSR A, assembled lazily on first access.
  const fdfd::FdfdOperator& op() const override;

  /// The symmetrizing row scale (always available, never triggers the lazy
  /// CSR assembly).
  const std::vector<cplx>& W() const override { return W_; }

  /// The precision this backend was configured with.
  SolverPrecision precision() const { return precision_; }
  /// True while solves are answered by the fp32 factors + refinement. Flips
  /// to false permanently once refinement has stalled and the backend fell
  /// back to double factors.
  bool mixed_active() const { return mixed_active_.load(); }

  /// Bytes of band solve state. Built from a problem definition, the band
  /// array exists (and is resident) from construction, so this reports its
  /// size immediately — factorization happens in place and adds nothing;
  /// under SolverPrecision::Mixed this is the fp32 array, i.e. ~half the
  /// double footprint (plus the double factors too after a refinement
  /// fallback). Built from an assembled operator, the band is converted
  /// lazily, so it reports 0 until the first factorize(). Do not use == 0
  /// as a "not yet factorized" probe. Locked: the cache polls this
  /// concurrently with lazy factorization.
  std::size_t factor_bytes() const override;

  /// Predicted factor_bytes() for a backend built from `spec` at `precision`,
  /// without assembling anything: the split band array is 2 scalar planes of
  /// (2*kl+ku+1) x n with kl = ku = (ny > 1 ? nx : 1), the assembler's
  /// bandwidth rule, plus the pivot vector. Mixed counts fp32 planes (half
  /// the double footprint). Used by capacity planners (e.g. the datagen
  /// memory budget) that must size windows before any solve.
  static std::size_t estimate_factor_bytes(const grid::GridSpec& spec,
                                           SolverPrecision precision);

 private:
  std::vector<std::vector<cplx>> batch_solve_impl(
      std::span<const std::vector<cplx>> rhs, bool transposed);
  /// Refine the fp32 solutions in `xs` (solved from `rhs`) to double
  /// accuracy in place. Returns false when refinement stalled or hit the
  /// iteration cap and the caller must fall back to the double path.
  bool refine_batch(std::span<const std::vector<cplx>> rhs,
                    std::vector<std::vector<cplx>>& xs, bool transposed);
  /// Build + factorize the double factors after a refinement stall (or an
  /// fp32 factorization failure). Idempotent; flips mixed_active_ off. The
  /// fp32 factors are left in place so concurrent in-flight refinements
  /// stay valid — they re-check mixed_active_ and re-solve on the double
  /// path themselves.
  void fall_back_to_double();
  void factorize_locked();
  /// Double-path slice of factorize_locked(): build + factorize split_ only,
  /// ignoring mixed_active_. fall_back_to_double() needs it directly so the
  /// double factors are complete before the flag flips off.
  void factorize_double_locked();

  SolverPrecision precision_ = SolverPrecision::Double;
  RefinementOptions refinement_;
  std::atomic<bool> mixed_active_{false};

  // Problem definition for the lazy CSR assembly (unused when the backend
  // was handed an already-assembled operator).
  grid::GridSpec spec_;
  maps::math::RealGrid eps_;
  double omega_ = 0.0;
  fdfd::PmlSpec pml_;
  std::vector<cplx> W_;

  mutable std::mutex mu_;  // guards lazy factorization + fallback
  std::optional<maps::math::SplitBandMatrix> split_;
  std::optional<maps::math::SplitBandMatrixF> split_f_;  // mixed-precision path

  mutable std::mutex op_mu_;  // guards lazy CSR assembly
  mutable std::optional<fdfd::FdfdOperator> csr_op_;
};

}  // namespace maps::solver
