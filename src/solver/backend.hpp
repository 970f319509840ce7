// SolverBackend: the uniform solve interface every upper layer consumes.
//
// A backend owns one assembled FDFD operator (one (eps, omega, pml)
// configuration) and answers forward solves (A x = b), transposed solves
// (A^T x = b, the adjoint system) and batched multi-RHS solves against it.
// Factorization state lives inside the backend, so forward and adjoint
// solves — and every excitation of a multi-source device — share one
// preparation. Concrete backends:
//
//   DirectBandedBackend  band LDL^T of W·A, exact, High fidelity
//   IterativeBackend     BiCGSTAB on the CSR operator, Medium fidelity
//   CoarseGridBackend    direct solve on a 2x-coarsened Yee grid with
//                        bilinear restriction/prolongation, Low fidelity
//
// The FidelityLevel axis is the paper's multi-fidelity knob: Low feeds AI
// surrogates cheap approximate fields, High verifies. Backends are cheap to
// construct (assembly) but expensive to prepare (factorization); the
// FactorizationCache (cache.hpp) reuses prepared backends across sweeps.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fdfd/assembler.hpp"
#include "math/bicgstab.hpp"

namespace maps::solver {

enum class SolverKind { Direct, Iterative, CoarseGrid };

/// Factor precision of the direct banded path. Double is the exact kernel;
/// Mixed factorizes in fp32 (half the factor bytes, ~2x effective bandwidth)
/// and iteratively refines each solve back to double accuracy, falling back
/// to a double factorization when refinement stalls.
enum class SolverPrecision { Double, Mixed };

/// The multi-fidelity axis (Sec. III-A.3): High = exact direct solve,
/// Medium = iterative to a residual tolerance, Low = coarse-grid surrogate.
enum class FidelityLevel { Low, Medium, High };

const char* solver_kind_name(SolverKind kind);
const char* fidelity_name(FidelityLevel level);
FidelityLevel fidelity_from_name(const std::string& name);
SolverKind solver_kind_for(FidelityLevel level);

const char* solver_precision_name(SolverPrecision precision);
SolverPrecision solver_precision_from_name(const std::string& name);
/// The session default: Mixed when the MAPS_SOLVER_PRECISION environment
/// variable is set to "mixed", Double otherwise. Read per call, so tests,
/// benches and the CI mixed leg can toggle it with setenv without touching
/// configs.
SolverPrecision default_solver_precision();

/// Tuning of the mixed-precision iterative refinement loop (Direct backends
/// with SolverPrecision::Mixed).
struct RefinementOptions {
  /// Converged when ||b - A x|| / ||b|| drops to rtol (double-accumulated
  /// residual against the CSR operator). The default sits at the double
  /// round-off floor so refined solves pass the 1e-12 agreement tests.
  double rtol = 1e-13;
  /// Refinement iteration cap; hitting it (or stalling — a step that fails
  /// to shrink the residual by at least 2x) falls back to a double
  /// factorization. 0 forces the fallback on the first solve (test hook).
  int max_iters = 20;
};

/// Everything needed to pick and tune a backend for one operator.
struct SolverConfig {
  SolverKind kind = SolverKind::Direct;
  maps::math::BicgstabOptions iterative;
  int coarse_factor = 2;  // grid coarsening of the Low-fidelity path
  /// Factor precision of the direct path (defaults to the
  /// MAPS_SOLVER_PRECISION environment override, else Double).
  SolverPrecision precision = default_solver_precision();
  RefinementOptions refinement;

  /// Config preset for a fidelity level (kind chosen per solver_kind_for).
  static SolverConfig for_fidelity(FidelityLevel level);
};

/// Per-backend work accounting snapshot (perf measurement in benches and
/// tests). Backends count atomically so shared cached backends can be used
/// from multiple threads.
struct SolverStats {
  int factorizations = 0;  // direct factorizations (0 for purely iterative)
  int solves = 0;          // forward + transposed solves, batch entries included
  int refine_iterations = 0;  // mixed-precision refinement steps taken
  int refine_fallbacks = 0;   // refinement stalls that re-factorized in double
};

class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  virtual std::string name() const = 0;

  /// Prepare the operator for repeated solves (direct backends factorize
  /// here, the iterative backend is a no-op). Idempotent and thread-safe;
  /// solve() calls it implicitly.
  virtual void factorize() = 0;

  virtual std::vector<cplx> solve(const std::vector<cplx>& rhs) = 0;
  virtual std::vector<cplx> solve_transposed(const std::vector<cplx>& rhs) = 0;

  /// Solve many right-hand sides against one preparation. The default loops;
  /// backends override with genuinely batched kernels (multi-RHS banded
  /// sweeps, parallel Krylov solves).
  virtual std::vector<std::vector<cplx>> solve_batch(
      std::span<const std::vector<cplx>> rhs);
  virtual std::vector<std::vector<cplx>> solve_transposed_batch(
      std::span<const std::vector<cplx>> rhs);

  /// The assembled operator this backend answers for, on the *fine* grid
  /// (the CoarseGridBackend assembles it lazily for consumers that need W
  /// or residuals; its internal solve grid stays coarse).
  virtual const fdfd::FdfdOperator& op() const = 0;

  /// The symmetrizing row scale W of the operator. Equivalent to op().W, but
  /// backends that assemble the CSR operator lazily (prepared band, coarse
  /// grid) can serve it without triggering that assembly — the adjoint path
  /// only ever needs W.
  virtual const std::vector<cplx>& W() const { return op().W; }

  virtual int factorization_count() const { return factorizations_.load(); }
  virtual int solve_count() const { return solves_.load(); }
  /// Mixed-precision refinement accounting (0 on every non-mixed backend).
  virtual int refinement_iteration_count() const { return refine_iterations_.load(); }
  virtual int refinement_fallback_count() const { return refine_fallbacks_.load(); }
  SolverStats stats() const {
    return {factorization_count(), solve_count(), refinement_iteration_count(),
            refinement_fallback_count()};
  }

  /// Bytes of resident solve state held by this backend (band storage,
  /// factors, cached transposes) — whatever is allocated *now*, which for
  /// band-direct backends includes the unfactorized band array. Drives the
  /// FactorizationCache's memory-aware eviction.
  virtual std::size_t factor_bytes() const { return 0; }

 protected:
  std::atomic<int> factorizations_{0};
  std::atomic<int> solves_{0};
  std::atomic<int> refine_iterations_{0};
  std::atomic<int> refine_fallbacks_{0};
};

/// Construct a backend for one (spec, eps, omega, pml) problem.
std::unique_ptr<SolverBackend> make_backend(const grid::GridSpec& spec,
                                            const maps::math::RealGrid& eps,
                                            double omega, const fdfd::PmlSpec& pml,
                                            const SolverConfig& config = {});

}  // namespace maps::solver
