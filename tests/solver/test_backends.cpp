// Solver backend layer: Direct vs Iterative vs CoarseGrid cross-checks on a
// small waveguide problem, FactorizationCache hit/miss/eviction semantics,
// batched multi-RHS equivalence, and the wavelength-sweep accounting
// guarantee (factorizations strictly fewer than solves).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "fdfd/simulation.hpp"
#include "fdfd/source.hpp"
#include "math/recycle.hpp"
#include "math/rng.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault.hpp"
#include "solver/cache.hpp"
#include "solver/coarse.hpp"
#include "solver/direct.hpp"
#include "solver/iterative.hpp"

namespace ms = maps::solver;
namespace mf = maps::fdfd;
namespace mm = maps::math;
using maps::cplx;
using maps::index_t;

namespace {

// Straight horizontal waveguide (eps 4.0 core in silica-like cladding) with
// a vertical current line across the core: the canonical small problem every
// backend must agree on. The core index and wavelength keep the factor-2
// coarse grid above ~7 points per guided wavelength, so the low-fidelity
// solve stays inside its documented tolerance.
struct WaveguideRig {
  maps::grid::GridSpec spec{48, 48, 0.1};
  mm::RealGrid eps;
  double omega = maps::omega_of_wavelength(2.2);
  mf::PmlSpec pml;
  std::vector<cplx> rhs;

  WaveguideRig() : eps(48, 48, 2.07) {
    pml.ncells = 10;
    for (index_t j = 21; j < 27; ++j) {
      for (index_t i = 0; i < 48; ++i) eps(i, j) = 4.0;
    }
    mm::CplxGrid J(48, 48);
    for (index_t j = 20; j < 28; ++j) J(14, j) = cplx{1.0, 0.0};
    rhs = mf::rhs_from_current(J, omega);
  }
};

double rel_l2(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t n = 0; n < a.size(); ++n) {
    num += std::norm(a[n] - b[n]);
    den += std::norm(b[n]);
  }
  return std::sqrt(num / den);
}

std::vector<cplx> random_rhs(index_t n, unsigned seed) {
  mm::Rng rng(seed);
  std::vector<cplx> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return b;
}

}  // namespace

TEST(SolverBackends, IterativeMatchesDirectOnWaveguide) {
  WaveguideRig rig;
  ms::DirectBandedBackend direct(rig.spec, rig.eps, rig.omega, rig.pml);
  mm::BicgstabOptions iter_opt;
  iter_opt.max_iters = 20000;
  iter_opt.rtol = 1e-9;
  ms::IterativeBackend iterative(rig.spec, rig.eps, rig.omega, rig.pml, iter_opt);

  const auto xd = direct.solve(rig.rhs);
  const auto xi = iterative.solve(rig.rhs);
  EXPECT_LT(rel_l2(xi, xd), 1e-5);
}

TEST(SolverBackends, CoarseGridMatchesDirectToFidelityTolerance) {
  WaveguideRig rig;
  ms::DirectBandedBackend direct(rig.spec, rig.eps, rig.omega, rig.pml);
  ms::CoarseGridBackend coarse(rig.spec, rig.eps, rig.omega, rig.pml, 2);

  EXPECT_EQ(coarse.coarse_spec().nx, 24);
  EXPECT_DOUBLE_EQ(coarse.coarse_spec().dl, 0.2);

  const auto xd = direct.solve(rig.rhs);
  const auto xc = coarse.solve(rig.rhs);
  // Low-fidelity tolerance documented in src/solver/coarse.hpp: the factor-2
  // grid carries O(h^2) dispersion error but must resolve the same physics.
  const double err = rel_l2(xc, xd);
  EXPECT_LT(err, 0.30);
  // ...and it must actually be a solution-shaped field, not garbage.
  EXPECT_GT(err, 1e-6);
}

TEST(SolverBackends, CoarseGridTransposedSolveTracksDirect) {
  WaveguideRig rig;
  ms::DirectBandedBackend direct(rig.spec, rig.eps, rig.omega, rig.pml);
  ms::CoarseGridBackend coarse(rig.spec, rig.eps, rig.omega, rig.pml, 2);
  const auto xd = direct.solve_transposed(rig.rhs);
  const auto xc = coarse.solve_transposed(rig.rhs);
  EXPECT_LT(rel_l2(xc, xd), 0.30);
}

TEST(SolverBackends, DirectBatchMatchesIndividualSolves) {
  WaveguideRig rig;
  ms::DirectBandedBackend a(rig.spec, rig.eps, rig.omega, rig.pml);
  ms::DirectBandedBackend b(rig.spec, rig.eps, rig.omega, rig.pml);

  std::vector<std::vector<cplx>> batch;
  batch.push_back(rig.rhs);
  for (unsigned s = 1; s <= 4; ++s) batch.push_back(random_rhs(rig.spec.cells(), s));

  const auto batched = a.solve_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const auto single = b.solve(batch[k]);
    EXPECT_LT(rel_l2(batched[k], single), 1e-11) << "rhs " << k;
  }
  EXPECT_EQ(a.factorization_count(), 1);
  EXPECT_EQ(a.solve_count(), static_cast<int>(batch.size()));
}

TEST(SolverBackends, DirectTransposedBatchMatchesIndividualSolves) {
  WaveguideRig rig;
  ms::DirectBandedBackend a(rig.spec, rig.eps, rig.omega, rig.pml);
  std::vector<std::vector<cplx>> batch;
  for (unsigned s = 1; s <= 3; ++s) batch.push_back(random_rhs(rig.spec.cells(), 10 + s));
  const auto batched = a.solve_transposed_batch(batch);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const auto single = a.solve_transposed(batch[k]);
    EXPECT_LT(rel_l2(batched[k], single), 1e-11) << "rhs " << k;
  }
}

TEST(SolverBackends, IterativeBatchMatchesIndividualAndCachesTranspose) {
  WaveguideRig rig;
  mm::BicgstabOptions opt;
  opt.max_iters = 20000;
  opt.rtol = 1e-9;
  ms::IterativeBackend backend(rig.spec, rig.eps, rig.omega, rig.pml, opt);

  std::vector<std::vector<cplx>> batch;
  for (unsigned s = 1; s <= 2; ++s) batch.push_back(random_rhs(rig.spec.cells(), 20 + s));
  const auto batched = backend.solve_transposed_batch(batch);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const auto single = backend.solve_transposed(batch[k]);
    EXPECT_LT(rel_l2(batched[k], single), 1e-7) << "rhs " << k;
  }
  // The explicitly transposed CSR operator is built exactly once no matter
  // how many adjoint solves run (the old Simulation rebuilt it per call).
  EXPECT_EQ(backend.transpose_builds(), 1);
}

TEST(FactorizationCache, HitMissEvictionAccounting) {
  WaveguideRig rig;
  ms::FactorizationCache cache(2);
  ms::SolverConfig cfg;

  auto backend_for = [&](double omega) {
    return ms::make_cached_backend(&cache, rig.spec, rig.eps, omega, rig.pml, cfg);
  };

  auto b1 = backend_for(4.0);   // miss
  auto b2 = backend_for(4.0);   // hit: same problem -> same backend
  EXPECT_EQ(b1.get(), b2.get());
  auto b3 = backend_for(4.1);   // miss, cache full
  (void)b3;
  auto b4 = backend_for(4.2);   // miss, evicts omega=4.0 (LRU)
  (void)b4;
  auto b5 = backend_for(4.0);   // miss again: was evicted
  EXPECT_NE(b1.get(), b5.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NEAR(stats.hit_rate(), 0.2, 1e-12);
}

TEST(FactorizationCache, ByteBudgetEvictsLruButKeepsMru) {
  WaveguideRig rig;
  ms::FactorizationCache cache(8);
  ms::SolverConfig cfg;

  auto backend_for = [&](double omega) {
    auto b = ms::make_cached_backend(&cache, rig.spec, rig.eps, omega, rig.pml, cfg);
    b->solve(rig.rhs);  // force the lazy factorization so bytes are resident
    return b;
  };

  auto b1 = backend_for(4.0);
  const std::size_t one = b1->factor_bytes();
  ASSERT_GT(one, 0u);
  EXPECT_EQ(cache.factor_bytes(), one);
  EXPECT_EQ(cache.stats().factor_bytes, one);

  // Budget for one factorization only. The second backend's factors appear
  // lazily (after its first solve), so the budget trips on the next cache
  // access: the LRU entry goes, the MRU survives.
  cache.set_capacity_bytes(one + one / 2);
  auto b2 = backend_for(4.1);
  auto b2_again = ms::make_cached_backend(&cache, rig.spec, rig.eps, 4.1, rig.pml, cfg);
  EXPECT_EQ(b2.get(), b2_again.get());  // MRU survived
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // A budget below a single factorization still keeps the newest entry.
  cache.set_capacity_bytes(1);
  EXPECT_EQ(cache.size(), 1u);
  auto b3 = backend_for(4.2);
  EXPECT_EQ(cache.size(), 1u);
  auto b3_again = ms::make_cached_backend(&cache, rig.spec, rig.eps, 4.2, rig.pml, cfg);
  EXPECT_EQ(b3.get(), b3_again.get());

  // Lifting the budget restores entry-count-only semantics.
  cache.set_capacity_bytes(0);
  backend_for(4.3);
  backend_for(4.4);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(FactorizationCache, KeyDiscriminatesEpsOmegaAndPml) {
  WaveguideRig rig;
  ms::SolverConfig cfg;
  const auto base = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, cfg);

  auto eps2 = rig.eps;
  eps2(5, 5) += 1e-9;
  EXPECT_NE(ms::make_problem_key(rig.spec, eps2, rig.omega, rig.pml, cfg), base);
  EXPECT_NE(ms::make_problem_key(rig.spec, rig.eps, rig.omega * 1.001, rig.pml, cfg),
            base);
  auto pml2 = rig.pml;
  pml2.ncells += 1;
  EXPECT_NE(ms::make_problem_key(rig.spec, rig.eps, rig.omega, pml2, cfg), base);
  EXPECT_EQ(ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, cfg), base);
}

TEST(FactorizationCache, WavelengthSweepFactorizesLessThanItSolves) {
  // The acceptance scenario: one eps, >= 4 omegas, shared PML spec. Every
  // omega needs its own factorization, but forward + adjoint share it, and a
  // second sweep pass reuses all of them: factorizations < solves, strictly.
  WaveguideRig rig;
  mf::SimOptions opts;
  opts.pml = rig.pml;
  opts.cache = std::make_shared<ms::FactorizationCache>(8);

  const std::vector<double> lambdas{1.50, 1.55, 1.60, 1.65};
  mm::CplxGrid J(48, 48);
  for (index_t j = 20; j < 28; ++j) J(14, j) = cplx{1.0, 0.0};
  const auto g = random_rhs(rig.spec.cells(), 99);

  for (int sweep = 0; sweep < 2; ++sweep) {
    for (const double lambda : lambdas) {
      mf::Simulation sim(rig.spec, rig.eps, maps::omega_of_wavelength(lambda), opts);
      (void)sim.solve(J);              // forward
      (void)sim.solve_transposed(g);   // adjoint
    }
  }

  const int factorizations = opts.cache->factorization_count();
  const int solves = opts.cache->solve_count();
  EXPECT_EQ(factorizations, static_cast<int>(lambdas.size()));
  EXPECT_EQ(solves, static_cast<int>(4 * lambdas.size()));
  EXPECT_LT(factorizations, solves);

  const auto stats = opts.cache->stats();
  EXPECT_EQ(stats.misses, lambdas.size());  // first sweep builds
  EXPECT_EQ(stats.hits, lambdas.size());    // second sweep reuses
}

TEST(SimulationSolverLayer, CoarseGridSelectableThroughSimOptions) {
  WaveguideRig rig;
  mf::SimOptions opts;
  opts.pml = rig.pml;
  opts.set_fidelity(mf::FidelityLevel::Low);
  EXPECT_EQ(opts.solver, ms::SolverKind::CoarseGrid);

  mf::Simulation lo(rig.spec, rig.eps, rig.omega, opts);
  EXPECT_EQ(lo.backend().name(), "coarse_grid");

  opts.set_fidelity(mf::FidelityLevel::High);
  mf::Simulation hi(rig.spec, rig.eps, rig.omega, opts);

  const mm::CplxGrid rhs_grid(48, 48, rig.rhs);
  const auto x_lo = lo.solve_raw(rig.rhs);
  const auto x_hi = hi.solve_raw(rig.rhs);
  EXPECT_LT(rel_l2(x_lo.data(), x_hi.data()), 0.30);
}

TEST(SimulationSolverLayer, SolveBatchMatchesSequentialSolves) {
  WaveguideRig rig;
  mf::SimOptions opts;
  opts.pml = rig.pml;
  mf::Simulation sim(rig.spec, rig.eps, rig.omega, opts);

  std::vector<mm::CplxGrid> Js;
  for (unsigned s = 0; s < 3; ++s) {
    mm::CplxGrid J(48, 48);
    mm::Rng rng(40 + s);
    for (index_t n = 0; n < J.size(); ++n) J[n] = {rng.uniform(-1, 1), 0.0};
    Js.push_back(std::move(J));
  }
  const auto batched = sim.solve_batch(Js);
  ASSERT_EQ(batched.size(), Js.size());
  for (std::size_t k = 0; k < Js.size(); ++k) {
    const auto single = sim.solve(Js[k]);
    EXPECT_LT(rel_l2(batched[k].data(), single.data()), 1e-11) << "source " << k;
  }
  EXPECT_EQ(sim.factorization_count(), 1);
}

TEST(DirectBandedBackend, LazyOperatorAndFactorAccounting) {
  WaveguideRig rig;
  ms::DirectBandedBackend backend(rig.spec, rig.eps, rig.omega, rig.pml);
  EXPECT_EQ(backend.name(), "direct_banded");
  // The band array is resident from construction; factorization is in place.
  EXPECT_GT(backend.factor_bytes(), 0u);

  (void)backend.solve(rig.rhs);
  (void)backend.solve_transposed(rig.rhs);

  // W is served without assembling the CSR operator; op() assembles lazily
  // and agrees with it.
  const auto& W = backend.W();
  const auto& op = backend.op();
  ASSERT_EQ(W.size(), op.W.size());
  for (std::size_t n = 0; n < W.size(); ++n) {
    ASSERT_EQ(W[n], op.W[n]);
  }
  EXPECT_GT(backend.factor_bytes(), 0u);
  EXPECT_EQ(backend.factorization_count(), 1);
}

TEST(DirectBandedBackend, BatchMatchesSingleSolves) {
  WaveguideRig rig;
  ms::DirectBandedBackend backend(rig.spec, rig.eps, rig.omega, rig.pml);
  std::vector<std::vector<cplx>> batch;
  for (unsigned s = 0; s < 3; ++s) batch.push_back(random_rhs(48 * 48, 70 + s));
  const auto xs = backend.solve_batch(batch);
  const auto ts = backend.solve_transposed_batch(batch);
  ASSERT_EQ(xs.size(), 3u);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EXPECT_LT(rel_l2(xs[k], backend.solve(batch[k])), 1e-13);
    EXPECT_LT(rel_l2(ts[k], backend.solve_transposed(batch[k])), 1e-13);
  }
}

TEST(DirectBandedBackend, RepeatedSolvesOfOneShapeReuseRecycledBands) {
  // After one warm-up cycle, every band plane of a same-shape assemble,
  // factorize and solve comes back from the block recycler: no solve
  // faults in a fresh band.
  WaveguideRig rig;
  const auto cycle = [&] {
    ms::DirectBandedBackend backend(rig.spec, rig.eps, rig.omega, rig.pml);
    (void)backend.solve(rig.rhs);
  };
  cycle();
  constexpr int kCycles = 50;
  const auto before = mm::recycle_stats();
  for (int c = 0; c < kCycles; ++c) cycle();
  const auto after = mm::recycle_stats();
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_EQ(after.hits - before.hits, 2u * kCycles);  // re and im plane per band
}

TEST(DirectBandedBackend, FactorizeHistogramCountsOnlyRealFactorizations) {
  // solver.factorize_ms observes factorizations, not factorize() calls: the
  // solves after the first re-enter factorize() on factorized state and must
  // record nothing, or every histogram quantile blends in ~0 ms entries.
  ASSERT_TRUE(maps::obs::metrics_enabled());
  WaveguideRig rig;
  const auto& hist = maps::obs::registry().histogram("solver.factorize_ms");
  std::vector<std::vector<cplx>> batch{rig.rhs, random_rhs(rig.spec.cells(), 12)};
  for (const auto precision : {ms::SolverPrecision::Double, ms::SolverPrecision::Mixed}) {
    ms::DirectBandedBackend backend(rig.spec, rig.eps, rig.omega, rig.pml, precision);
    const std::uint64_t before = hist.snapshot().count;
    (void)backend.solve(rig.rhs);
    (void)backend.solve_transposed(rig.rhs);
    (void)backend.solve_batch(batch);
    EXPECT_EQ(hist.snapshot().count - before, 1u) << ms::solver_precision_name(precision);
    EXPECT_EQ(backend.factorization_count(), 1) << ms::solver_precision_name(precision);
  }
}

TEST(DirectBandedBackend, SolveFaultPointFiresOnEveryDirectSolve) {
  // "solver.solve" guards every direct solve, not only the single-RHS
  // forward one: batched adjoints (the datagen and invdes path) hit it too.
  WaveguideRig rig;
  ms::DirectBandedBackend backend(rig.spec, rig.eps, rig.omega, rig.pml);
  const std::vector<std::vector<cplx>> batch{rig.rhs, random_rhs(rig.spec.cells(), 5)};
  const auto expected = backend.solve_transposed_batch(batch);
  {
    maps::runtime::fault::ScopedFaults faults("solver.solve=throw@nth:1");
    EXPECT_THROW(backend.solve_transposed_batch(batch), maps::MapsError);
    const auto answer = backend.solve_transposed_batch(batch);  // the next call answers
    ASSERT_EQ(answer.size(), batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) EXPECT_EQ(answer[k], expected[k]);
    const auto stats = maps::runtime::fault::stats();
    const auto point = std::find_if(stats.begin(), stats.end(),
                                    [](const auto& p) { return p.name == "solver.solve"; });
    ASSERT_NE(point, stats.end());
    EXPECT_EQ(point->hits, 2u);
    EXPECT_EQ(point->fires, 1u);
  }
  {
    maps::runtime::fault::ScopedFaults faults("solver.solve=throw");
    EXPECT_THROW(backend.solve_batch(batch), maps::MapsError);
    EXPECT_THROW(backend.solve(rig.rhs), maps::MapsError);
    EXPECT_THROW(backend.solve_transposed(rig.rhs), maps::MapsError);
  }
}

TEST(FactorizationCache, HitPathBitIdenticalToColdSolve) {
  // A cached wavelength sweep must not perturb results: the hit path hands
  // back the same prepared factors, so its solutions are bit-identical
  // to a cold solve of the same problem — no tolerance, exact equality.
  WaveguideRig rig;
  mf::SimOptions opts;
  opts.pml = rig.pml;
  opts.cache = std::make_shared<ms::FactorizationCache>(4);

  std::vector<std::vector<cplx>> hits;
  for (int pass = 0; pass < 2; ++pass) {
    for (const double lambda : {1.55, 1.60}) {
      mf::Simulation sim(rig.spec, rig.eps, maps::omega_of_wavelength(lambda), opts);
      hits.push_back(sim.solve_raw(rig.rhs).data());
    }
  }
  ASSERT_EQ(opts.cache->stats().hits, 2u);  // second pass reused both factors

  std::size_t k = 0;
  for (const double lambda : {1.55, 1.60}) {
    ms::DirectBandedBackend cold(rig.spec, rig.eps, maps::omega_of_wavelength(lambda),
                                 rig.pml);
    const auto x_cold = cold.solve(rig.rhs);
    for (std::size_t n = 0; n < x_cold.size(); ++n) {
      // Exact: same kernel, same factors, same back-substitution order.
      ASSERT_EQ(hits[k][n], x_cold[n]) << "lambda " << lambda << " n " << n;
      ASSERT_EQ(hits[k + 2][n], x_cold[n]) << "hit pass, lambda " << lambda;
    }
    ++k;
  }
}

