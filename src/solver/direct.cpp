#include "solver/direct.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "math/csr.hpp"
#include "math/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/deadline.hpp"
#include "runtime/fault.hpp"

namespace maps::solver {

namespace {

// Stage histograms for the serve scrape (stable refs, created on first
// use). Spans attach to the ambient obs::current_trace() installed by the
// serving layer's worker thread — the solver interfaces stay trace-free.
obs::Histogram& factorize_hist() {
  static obs::Histogram& h = obs::registry().histogram("solver.factorize_ms");
  return h;
}
obs::Histogram& solve_hist() {
  static obs::Histogram& h = obs::registry().histogram("solver.solve_ms");
  return h;
}
obs::Histogram& refine_hist() {
  static obs::Histogram& h = obs::registry().histogram("solver.refine_ms");
  return h;
}

double l2_norm(const std::vector<cplx>& v) {
  double s = 0.0;
  for (const cplx& z : v) s += std::norm(z);
  return std::sqrt(s);
}

// A^{-1} (forward) or A^{-T} (adjoint) applied in place through S = W·A:
//   A x = b    <=>  S x = W b
//   A^T l = g  <=>  l = W S^{-1} g      (A^T = S W^{-1}, as S = S^T)
template <typename T>
void solve_through_s(const maps::math::SymBandLdltT<T>& s, const std::vector<cplx>& w,
                     std::vector<std::vector<cplx>>& xs, bool transposed) {
  const auto scale = [&w](std::vector<cplx>& x) {
    for (std::size_t t = 0; t < x.size(); ++t) {
      const double xr = x[t].real(), xi = x[t].imag();
      const double wr = w[t].real(), wi = w[t].imag();
      x[t] = cplx{xr * wr - xi * wi, xr * wi + xi * wr};
    }
  };
  if (!transposed) {
    for (auto& x : xs) scale(x);
  }
  s.solve_multi_inplace(xs);
  if (transposed) {
    for (auto& x : xs) scale(x);
  }
}

}  // namespace

DirectBandedBackend::DirectBandedBackend(const grid::GridSpec& spec,
                                         const maps::math::RealGrid& eps, double omega,
                                         const fdfd::PmlSpec& pml,
                                         SolverPrecision precision,
                                         const RefinementOptions& refinement)
    : precision_(precision),
      refinement_(refinement),
      spec_(spec), eps_(eps), omega_(omega), pml_(pml) {
  // Assemble the lower band of S = W·A straight into kernel storage; the
  // CSR operator is only built if a consumer asks for op() (or the mixed
  // path needs refinement residuals).
  if (precision_ == SolverPrecision::Mixed) {
    // Assemble directly into fp32 band storage: the coefficients round to
    // float at the store, and the double-sized band is never allocated or
    // written — the resident factor state is half-sized from construction.
    auto band = fdfd::assemble_banded_t<float>(spec_, eps_, omega_, pml_);
    W_ = std::move(band.W);
    ldlt_f_.emplace(std::move(band.S));
    mixed_active_.store(true);
  } else {
    auto band = fdfd::assemble_banded_t<double>(spec_, eps_, omega_, pml_);
    W_ = std::move(band.W);
    ldlt_.emplace(std::move(band.S));
  }
}

DirectBandedBackend::DirectBandedBackend(fdfd::FdfdOperator op,
                                         SolverPrecision precision,
                                         const RefinementOptions& refinement)
    : precision_(precision),
      refinement_(refinement),
      spec_(op.spec), omega_(op.omega), W_(op.W) {
  csr_op_ = std::move(op);
  if (precision_ == SolverPrecision::Mixed) mixed_active_.store(true);
}

void DirectBandedBackend::factorize() {
  std::lock_guard<std::mutex> lock(mu_);
  factorize_locked();
}

void DirectBandedBackend::factorize_locked() {
  // Reliability instrumentation: a request-scoped deadline aborts before the
  // (expensive) factorization starts, and the chaos harness can break or
  // stall this exact point (MAPS_FAULTS "solver.factorize").
  runtime::check_deadline("DirectBandedBackend::factorize");
  runtime::fault::point("solver.factorize");
  // The "solver.factorize" span and histogram record only real
  // factorizations: a re-entry on a factorized backend returns before
  // opening one, so the trace shows the request only paid back-substitution.
  if (mixed_active_.load()) {
    if (!ldlt_f_) ldlt_f_.emplace(build_band<float>());
    if (ldlt_f_->factorized()) return;
    try {
      // Scoped to the attempt: a failed fp32 factorization closes its span
      // before the double fallback opens its own.
      obs::ScopedSpan span("solver.factorize", obs::current_trace(), &factorize_hist());
      ldlt_f_->factorize();
      ++factorizations_;
      return;
    } catch (const std::exception&) {
      // The guard tripped in fp32 (rounding can push a pivot or multiplier
      // past its bound where double stays inside). No solve has read the
      // half-eliminated fp32 band, so drop it and answer from double
      // factors. Build them before publishing the flag flip so no reader
      // ever sees mixed_active_ == false with unfactorized state.
      ldlt_f_.reset();
      ++refine_fallbacks_;
      factorize_double_locked();
      mixed_active_.store(false);
      return;
    }
  }
  factorize_double_locked();
}

template <typename T>
maps::math::SymBandLdltT<T> DirectBandedBackend::build_band() const {
  // Problem definition in hand: re-assemble straight into band storage.
  if (eps_.size() > 0) return fdfd::assemble_banded_t<T>(spec_, eps_, omega_, pml_).S;
  // Constructed from an assembled operator: csr_op_ was set in the
  // constructor and is immutable, so reading it here is race-free.
  return fdfd::symmetric_band_t<T>(*csr_op_);
}

void DirectBandedBackend::factorize_double_locked() {
  if (!ldlt_) ldlt_.emplace(build_band<double>());
  if (ldlt_->factorized()) return;
  obs::ScopedSpan span("solver.factorize", obs::current_trace(), &factorize_hist());
  try {
    ldlt_->factorize();
  } catch (const std::exception&) {
    ldlt_.reset();  // half eliminated: a retry must start from S again
    throw;
  }
  ++factorizations_;
}

void DirectBandedBackend::fall_back_to_double() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!mixed_active_.load()) return;  // another thread already fell back
  ++refine_fallbacks_;
  // Build the double factors BEFORE publishing mixed_active_ = false.
  // Backends are shared lock-free on the solve path (FactorizationCache
  // hands one instance to serve/datagen threads): a concurrent solve that
  // loads the flag between a store-first and the factorization would skip
  // the fp32 path and hit an empty/partially-factorized ldlt_. The
  // seq_cst flag store releases the ldlt_ writes, so any reader that
  // observes false finds fully built double factors. Note the order must
  // be explicit here — factorize_locked() with the flag still true takes
  // the (already factorized) mixed branch and never builds the double
  // path, hence the dedicated double-only routine.
  factorize_double_locked();
  mixed_active_.store(false);
  // The fp32 factors stay resident: concurrent solves may still be reading
  // them mid-refinement; they re-check mixed_active_ afterwards and answer
  // from the double factors built here.
}

// Classical mixed-precision iterative refinement over a batch: residuals are
// accumulated in double against the CSR operator, corrections come from one
// fused fp32 multi-RHS sweep per round. Converged right-hand sides drop out
// of the round; a stalled one (step shrinking the residual < 2x) or the
// iteration cap flags the whole batch for the double fallback.
bool DirectBandedBackend::refine_batch(std::span<const std::vector<cplx>> rhs,
                                       std::vector<std::vector<cplx>>& xs,
                                       bool transposed) {
  obs::ScopedSpan span("solver.refine", obs::current_trace(), &refine_hist());
  const auto& A = op().A;
  const std::size_t nrhs = rhs.size();
  std::vector<double> bnorm(nrhs), prev_rel(nrhs, std::numeric_limits<double>::max());
  std::vector<bool> done(nrhs, false);
  for (std::size_t r = 0; r < nrhs; ++r) bnorm[r] = l2_norm(rhs[r]);

  for (int it = 0; it <= refinement_.max_iters; ++it) {
    // A blown request deadline stops refining between rounds: the caller is
    // no longer waiting, so the remaining rounds are pure waste.
    runtime::check_deadline("DirectBandedBackend::refine");
    std::vector<std::vector<cplx>> residuals;
    std::vector<std::size_t> active;
    for (std::size_t r = 0; r < nrhs; ++r) {
      if (done[r]) continue;
      std::vector<cplx> res =
          transposed ? A.matvec_transposed(xs[r]) : A.matvec(xs[r]);
      for (std::size_t t = 0; t < res.size(); ++t) res[t] = rhs[r][t] - res[t];
      const double rnorm = l2_norm(res);
      const double rel = bnorm[r] > 0.0 ? rnorm / bnorm[r] : rnorm;
      if (rel <= refinement_.rtol) {
        done[r] = true;
        continue;
      }
      if (it >= refinement_.max_iters) return false;  // cap hit, still short
      if (rel > 0.5 * prev_rel[r]) return false;      // stalled
      prev_rel[r] = rel;
      active.push_back(r);
      residuals.push_back(std::move(res));
    }
    if (active.empty()) return true;
    solve_through_s(*ldlt_f_, W_, residuals, transposed);
    for (std::size_t k = 0; k < active.size(); ++k) {
      auto& x = xs[active[k]];
      const auto& d = residuals[k];
      for (std::size_t t = 0; t < x.size(); ++t) x[t] += d[t];
    }
    refine_iterations_ += static_cast<int>(active.size());
  }
  return false;
}

std::vector<cplx> DirectBandedBackend::solve(const std::vector<cplx>& rhs) {
  return std::move(batch_solve_impl({&rhs, 1}, /*transposed=*/false)[0]);
}

std::vector<cplx> DirectBandedBackend::solve_transposed(const std::vector<cplx>& rhs) {
  return std::move(batch_solve_impl({&rhs, 1}, /*transposed=*/true)[0]);
}

std::vector<std::vector<cplx>> DirectBandedBackend::batch_solve_impl(
    std::span<const std::vector<cplx>> rhs, bool transposed) {
  // Every direct solve passes this fault point: forward and adjoint, single
  // and batched, so armed chaos runs reach datagen and invdes solves too.
  runtime::fault::point("solver.solve");
  factorize();
  obs::ScopedSpan span("solver.solve", obs::current_trace(), &solve_hist());
  solves_ += static_cast<int>(rhs.size());
  std::vector<std::vector<cplx>> out(rhs.begin(), rhs.end());
  if (out.empty()) return out;
  const bool mixed = mixed_active_.load();

  // Split the batch into one contiguous slice per worker; each slice runs the
  // multi-RHS sweep, so with a single thread the whole batch still shares one
  // pass over the factors. On a pool worker thread (datagen's per-pattern
  // tasks run inside TaskQueue workers) nested parallel_for executes
  // serially, so slicing would degrade to per-RHS factor sweeps — keep the
  // whole batch in one fused sweep there.
  const std::size_t n_slices =
      maps::math::ThreadPool::is_worker_thread()
          ? 1
          : std::min<std::size_t>(out.size(),
                                  std::max<std::size_t>(1, maps::math::num_threads()));
  const std::size_t per_slice = (out.size() + n_slices - 1) / n_slices;
  // Exceptions must not escape into pool workers (the pool has no unwind
  // path); capture the first one and rethrow it, type intact (a
  // DeadlineExceeded from refinement must reach the serve layer as one), on
  // the calling thread.
  std::mutex err_mu;
  std::exception_ptr first_error;
  std::atomic<bool> need_fallback{false};
  maps::math::parallel_for(0, n_slices, [&](std::size_t s) {
    const std::size_t lo = s * per_slice;
    const std::size_t hi = std::min(out.size(), lo + per_slice);
    if (lo >= hi) return;
    try {
      std::vector<std::vector<cplx>> slice(std::make_move_iterator(out.begin() + lo),
                                           std::make_move_iterator(out.begin() + hi));
      if (mixed) {
        solve_through_s(*ldlt_f_, W_, slice, transposed);
        if (!refine_batch(rhs.subspan(lo, hi - lo), slice, transposed)) {
          need_fallback.store(true);
        }
      } else {
        solve_through_s(*ldlt_, W_, slice, transposed);
      }
      std::move(slice.begin(), slice.end(), out.begin() + lo);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) first_error = std::current_exception();
    }
  });
  if (first_error) std::rethrow_exception(first_error);
  if (need_fallback.load()) {
    // Some slice's refinement stalled: build the double factors and
    // re-answer the whole batch on the exact path (rare, so the duplicated
    // work is acceptable; correctness over partially refined results).
    fall_back_to_double();
    solves_ -= static_cast<int>(rhs.size());  // the re-run recounts them
    return batch_solve_impl(rhs, transposed);
  }
  return out;
}

std::vector<std::vector<cplx>> DirectBandedBackend::solve_batch(
    std::span<const std::vector<cplx>> rhs) {
  return batch_solve_impl(rhs, /*transposed=*/false);
}

std::vector<std::vector<cplx>> DirectBandedBackend::solve_transposed_batch(
    std::span<const std::vector<cplx>> rhs) {
  return batch_solve_impl(rhs, /*transposed=*/true);
}

const fdfd::FdfdOperator& DirectBandedBackend::op() const {
  std::lock_guard<std::mutex> lock(op_mu_);
  if (!csr_op_) {
    csr_op_ = fdfd::assemble(spec_, eps_, omega_, pml_);
  }
  return *csr_op_;
}

std::size_t DirectBandedBackend::factor_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = 0;
  if (ldlt_) bytes += ldlt_->storage_bytes();
  if (ldlt_f_) bytes += ldlt_f_->storage_bytes();
  return bytes;
}

std::size_t DirectBandedBackend::estimate_factor_bytes(const grid::GridSpec& spec,
                                                       SolverPrecision precision) {
  const auto n = static_cast<std::size_t>(spec.cells());
  // kl = bw, matching the assembler's rule: a single-row grid only couples
  // nearest neighbours along x, so its band collapses to width 1.
  const auto bw = static_cast<std::size_t>(spec.ny > 1 ? spec.nx : 1);
  const std::size_t scalar =
      precision == SolverPrecision::Mixed ? sizeof(float) : sizeof(double);
  return 2 * (bw + 1) * n * scalar;
}

}  // namespace maps::solver
