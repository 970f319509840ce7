// Direct banded backend: the High-fidelity (exact) solve path.
//
// The kernel is the complex-symmetric band LDL^T (math::SymBandLdlt) of
// S = W·A, where W is the assembler's symmetrizing row scale. Built from a
// problem definition, the backend assembles the lower band of S straight
// into kernel storage (fdfd::assemble_banded_t — no triplet/CSR chain);
// handed an already-assembled operator (the TE path), it converts the CSR
// matrix with fdfd::symmetric_band_t at factorization time. Both directions
// run the same multi-RHS sweep:
//   forward  A x = b      solve S x = W b
//   adjoint  A^T l = g    solve S y = g, then l = W y   (A^T = S W^{-1})
// Every consumer of the solver layer — Simulation, adjoint batches,
// S-parameter sweeps, the invdes engine, datagen, fdfd::TeSimulation —
// inherits this path through make_backend/make_cached_backend or directly.
//
// SolverPrecision::Mixed swaps the factors for the fp32 sibling
// (math::SymBandLdltF — assembled directly in float32, half the bytes) and
// recovers double accuracy by classical iterative refinement against the CSR
// operator: after the fp32 solve, iterate
//   r = b - A x   (forward)    or   r = g - A^T l   (adjoint), in double
//   x += S_f^{-1} (W r)        or   l += W S_f^{-1} r
// until the relative residual reaches RefinementOptions::rtol. If a step
// fails to shrink the residual 2x or the iteration cap is hit, the backend
// falls back to double factors — sticky for its lifetime — and re-answers
// from the exact path. Refinement steps and fallbacks are counted in the
// backend stats.
//
// A factorization whose static-pivot guard trips (math/banded_split.hpp)
// throws MapsError from factorize() before any solve answers; the fp32
// path takes the double fallback first, since fp32 can trip where double
// does not.
//
// The CSR operator is assembled lazily on op() access — the hot paths only
// ever need W, which the banded assembly already provides (the mixed path
// triggers it on the first refined solve for residuals). The factorization
// is computed lazily on first solve (thread-safe) and reused for every
// subsequent forward, adjoint and batched solve. Batches are split across
// the thread pool; each worker's slice goes through the multi-RHS sweep so
// the factor array streams through cache once per slice instead of once per
// right-hand side.
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
  /// Take ownership of an already-assembled operator (its W·A must be
  /// symmetric; the band is converted from the CSR matrix at factorization
  /// time).
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
  /// under SolverPrecision::Mixed this is the fp32 array, i.e. half the
  /// double footprint (plus the double factors too after a refinement
  /// fallback). Built from an assembled operator, the band is converted
  /// lazily, so it reports 0 until the first factorize(). Do not use == 0
  /// as a "not yet factorized" probe. Locked: the cache polls this
  /// concurrently with lazy factorization.
  std::size_t factor_bytes() const override;

  /// Predicted factor_bytes() for a backend built from `spec` at `precision`,
  /// without assembling anything: 2 scalar planes of (bw+1) x n, with
  /// bw = (ny > 1 ? nx : 1), the assembler's bandwidth rule. Mixed counts
  /// fp32 planes (half the double footprint). Used by capacity planners
  /// (e.g. the datagen memory budget) that must size windows before any
  /// solve.
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
  /// Double-path slice of factorize_locked(): build + factorize ldlt_ only,
  /// ignoring mixed_active_. fall_back_to_double() needs it directly so the
  /// double factors are complete before the flag flips off.
  void factorize_double_locked();
  /// The lower band of S in T, from the problem definition or the CSR op.
  template <typename T>
  maps::math::SymBandLdltT<T> build_band() const;

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
  std::optional<maps::math::SymBandLdlt> ldlt_;
  std::optional<maps::math::SymBandLdltF> ldlt_f_;  // mixed-precision path

  mutable std::mutex op_mu_;  // guards lazy CSR assembly
  mutable std::optional<fdfd::FdfdOperator> csr_op_;
};

}  // namespace maps::solver
