// Mixed-precision direct solves: fp32 LDL^T factors + iterative
// refinement must reproduce the double factorization's answers to refinement
// tolerance (including on PML-heavy operators and transposed/batched
// solves), fall back to the double path deterministically when refinement is
// starved, report the halved factor footprint, and stay bit-stable across
// repeated cached re-solves.
#include <gtest/gtest.h>

#include <cmath>

#include "fdfd/simulation.hpp"
#include "fdfd/source.hpp"
#include "math/rng.hpp"
#include "runtime/deadline.hpp"
#include "runtime/fault.hpp"
#include "solver/cache.hpp"
#include "solver/direct.hpp"

namespace ms = maps::solver;
namespace mf = maps::fdfd;
namespace mm = maps::math;
using maps::cplx;
using maps::index_t;

namespace {

// PML-heavy waveguide: 12 absorber cells on every edge of a 48x48 grid
// leaves only half the cells physical, so the operator carries the stretched
// complex coordinates that dominate its conditioning — the regime where
// refinement earns its keep (a bare fp32 solve is only ~1e-7 accurate).
struct PmlHeavyRig {
  maps::grid::GridSpec spec{48, 48, 0.1};
  mm::RealGrid eps;
  double omega = maps::omega_of_wavelength(2.2);
  mf::PmlSpec pml;
  std::vector<cplx> rhs;

  PmlHeavyRig() : eps(48, 48, 2.07) {
    pml.ncells = 12;
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

TEST(MixedPrecision, RefinedSolveMatchesDoubleOnPmlHeavyOperator) {
  PmlHeavyRig rig;
  ms::DirectBandedBackend dbl(rig.spec, rig.eps, rig.omega, rig.pml,
                              ms::SolverPrecision::Double);
  ms::DirectBandedBackend mixed(rig.spec, rig.eps, rig.omega, rig.pml,
                                ms::SolverPrecision::Mixed);
  ASSERT_EQ(mixed.precision(), ms::SolverPrecision::Mixed);

  const auto xd = dbl.solve(rig.rhs);
  const auto xm = mixed.solve(rig.rhs);
  EXPECT_LT(rel_l2(xm, xd), 1e-12);

  // Refinement actually ran (a bare fp32 solve could not reach 1e-12) and
  // never had to abandon the fp32 factors.
  EXPECT_GT(mixed.refinement_iteration_count(), 0);
  EXPECT_EQ(mixed.refinement_fallback_count(), 0);
  EXPECT_TRUE(mixed.mixed_active());
}

TEST(MixedPrecision, TransposedAndBatchedSolvesMatchDouble) {
  PmlHeavyRig rig;
  ms::DirectBandedBackend dbl(rig.spec, rig.eps, rig.omega, rig.pml,
                              ms::SolverPrecision::Double);
  ms::DirectBandedBackend mixed(rig.spec, rig.eps, rig.omega, rig.pml,
                                ms::SolverPrecision::Mixed);

  const auto bt = random_rhs(rig.spec.cells(), 3);
  EXPECT_LT(rel_l2(mixed.solve_transposed(bt), dbl.solve_transposed(bt)), 1e-12);

  std::vector<std::vector<cplx>> batch;
  for (unsigned seed = 10; seed < 15; ++seed) {
    batch.push_back(random_rhs(rig.spec.cells(), seed));
  }
  const auto xs_d = dbl.solve_batch(batch);
  const auto xs_m = mixed.solve_batch(batch);
  ASSERT_EQ(xs_m.size(), xs_d.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    EXPECT_LT(rel_l2(xs_m[k], xs_d[k]), 1e-12) << "batch rhs " << k;
  }
  EXPECT_EQ(mixed.refinement_fallback_count(), 0);
}

TEST(MixedPrecision, StarvedRefinementFallsBackToDoubleFactors) {
  PmlHeavyRig rig;
  // max_iters = 0 is the deterministic stall: the first residual check after
  // the fp32 solve sits at ~1e-7 >> rtol with no iterations allowed, so the
  // backend must take the fallback path.
  ms::RefinementOptions starve;
  starve.max_iters = 0;
  ms::DirectBandedBackend mixed(rig.spec, rig.eps, rig.omega, rig.pml,
                                ms::SolverPrecision::Mixed, starve);
  ms::DirectBandedBackend dbl(rig.spec, rig.eps, rig.omega, rig.pml,
                              ms::SolverPrecision::Double);

  const auto xm = mixed.solve(rig.rhs);
  EXPECT_GE(mixed.refinement_fallback_count(), 1);
  EXPECT_FALSE(mixed.mixed_active());
  // The answer it returns comes from the double factors: exact-path quality,
  // not the ~1e-7 the starved fp32 solve alone would deliver.
  EXPECT_LT(rel_l2(xm, dbl.solve(rig.rhs)), 1e-13);

  // Later solves stay on the double path without new fallbacks.
  const auto bt = random_rhs(rig.spec.cells(), 21);
  EXPECT_LT(rel_l2(mixed.solve_transposed(bt), dbl.solve_transposed(bt)), 1e-13);
  EXPECT_EQ(mixed.refinement_fallback_count(), 1);
}

TEST(MixedPrecision, DeadlineBlownInRefinementKeepsItsType) {
  // The factorization stalls past the request deadline, so the expiry is
  // first seen between refinement rounds, inside the batch path's slice:
  // it must reach the caller as DeadlineExceeded (the serve layer's
  // deadline_exceeded reply), not as a plain MapsError.
  PmlHeavyRig rig;
  ms::DirectBandedBackend mixed(rig.spec, rig.eps, rig.omega, rig.pml,
                                ms::SolverPrecision::Mixed);
  maps::runtime::fault::ScopedFaults stall("solver.factorize=stall:40");
  maps::runtime::DeadlineGuard deadline(maps::runtime::now_steady_ms() + 10.0);
  EXPECT_THROW(mixed.solve(rig.rhs), maps::runtime::DeadlineExceeded);
}

TEST(MixedPrecision, Fp32FactorsHalveTheReportedFootprint) {
  PmlHeavyRig rig;
  ms::DirectBandedBackend dbl(rig.spec, rig.eps, rig.omega, rig.pml,
                              ms::SolverPrecision::Double);
  ms::DirectBandedBackend mixed(rig.spec, rig.eps, rig.omega, rig.pml,
                                ms::SolverPrecision::Mixed);
  const std::size_t bytes_d = dbl.factor_bytes();
  const std::size_t bytes_m = mixed.factor_bytes();
  ASSERT_GT(bytes_m, 0u);
  // Two fp32 band planes and no pivot vector: exactly half.
  EXPECT_EQ(bytes_m * 2, bytes_d);
}

TEST(MixedPrecision, FactorByteEstimateMatchesLiveAccounting) {
  // The static planner estimate equals factor_bytes() at both precisions,
  // before and after factorization, on square, nx != ny and single-row grids.
  struct Case {
    maps::grid::GridSpec spec;
    int pml_cells;
  };
  for (const Case& c : {Case{{48, 48, 0.1}, 12}, Case{{40, 24, 0.1}, 6},
                        Case{{64, 1, 0.1}, 0}}) {
    mm::RealGrid eps(c.spec.nx, c.spec.ny, 2.07);
    mf::PmlSpec pml;
    pml.ncells = c.pml_cells;
    for (const auto precision : {ms::SolverPrecision::Double, ms::SolverPrecision::Mixed}) {
      ms::DirectBandedBackend backend(c.spec, eps, maps::omega_of_wavelength(2.2), pml,
                                      precision);
      const std::size_t estimate =
          ms::DirectBandedBackend::estimate_factor_bytes(c.spec, precision);
      const std::size_t bw = c.spec.ny > 1 ? static_cast<std::size_t>(c.spec.nx) : 1;
      const std::size_t scalar =
          precision == ms::SolverPrecision::Mixed ? sizeof(float) : sizeof(double);
      EXPECT_EQ(estimate, 2 * (bw + 1) * static_cast<std::size_t>(c.spec.cells()) * scalar);
      EXPECT_EQ(backend.factor_bytes(), estimate)
          << c.spec.nx << "x" << c.spec.ny << " " << ms::solver_precision_name(precision);
      backend.factorize();
      EXPECT_EQ(backend.factor_bytes(), estimate)
          << c.spec.nx << "x" << c.spec.ny << " " << ms::solver_precision_name(precision);
    }
  }
}

TEST(MixedPrecision, ByteBudgetCachesTwiceAsManyMixedFactorizations) {
  PmlHeavyRig rig;
  const std::size_t bytes_m = ms::DirectBandedBackend::estimate_factor_bytes(
      rig.spec, ms::SolverPrecision::Mixed);

  const auto fill = [&](ms::SolverPrecision precision) {
    ms::FactorizationCache cache(8);
    // Budget: two mixed factorizations fit, one double (≈2x mixed) leaves no
    // room for a second.
    cache.set_capacity_bytes(bytes_m * 2 + 1024);
    ms::SolverConfig config;
    config.kind = ms::SolverKind::Direct;
    config.precision = precision;
    for (const double lambda : {2.2, 2.3}) {
      const double omega = maps::omega_of_wavelength(lambda);
      const auto key = ms::make_problem_key(rig.spec, rig.eps, omega, rig.pml, config);
      cache.get_or_create(key, [&] {
        return std::make_shared<ms::DirectBandedBackend>(
            rig.spec, rig.eps, omega, rig.pml, precision);
      });
    }
    return cache.size();
  };

  EXPECT_EQ(fill(ms::SolverPrecision::Mixed), 2u);
  EXPECT_EQ(fill(ms::SolverPrecision::Double), 1u);
}

TEST(MixedPrecision, RepeatedCachedResolvesAreBitIdentical) {
  PmlHeavyRig rig;
  ms::DirectBandedBackend mixed(rig.spec, rig.eps, rig.omega, rig.pml,
                                ms::SolverPrecision::Mixed);
  const auto x1 = mixed.solve(rig.rhs);
  const auto x2 = mixed.solve(rig.rhs);
  ASSERT_EQ(x1.size(), x2.size());
  for (std::size_t n = 0; n < x1.size(); ++n) {
    ASSERT_EQ(x1[n].real(), x2[n].real()) << "drift at cell " << n;
    ASSERT_EQ(x1[n].imag(), x2[n].imag()) << "drift at cell " << n;
  }
}

TEST(MixedPrecision, ProblemKeyIdentityIncludesPrecision) {
  PmlHeavyRig rig;
  ms::SolverConfig config;
  config.kind = ms::SolverKind::Direct;
  config.precision = ms::SolverPrecision::Double;
  const auto key_d = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, config);
  config.precision = ms::SolverPrecision::Mixed;
  const auto key_m = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, config);
  EXPECT_FALSE(key_d == key_m);
}

TEST(MixedPrecision, ProblemKeyIdentityIncludesRefinementOptions) {
  PmlHeavyRig rig;
  ms::SolverConfig config;
  config.kind = ms::SolverKind::Direct;
  config.precision = ms::SolverPrecision::Mixed;
  config.refinement.rtol = 1e-13;
  config.refinement.max_iters = 20;
  const auto key_a = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, config);

  // A looser tolerance (or a different iteration cap) changes what a mixed
  // backend answers, so it must land on a distinct cache entry.
  config.refinement.rtol = 1e-8;
  const auto key_b = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, config);
  EXPECT_FALSE(key_a == key_b);
  config.refinement.rtol = 1e-13;
  config.refinement.max_iters = 5;
  const auto key_c = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, config);
  EXPECT_FALSE(key_a == key_c);

  // Double-precision keys ignore refinement tuning entirely — the options
  // are dead weight on the exact path and must not split cache entries.
  config.precision = ms::SolverPrecision::Double;
  config.refinement.rtol = 1e-13;
  config.refinement.max_iters = 20;
  const auto key_d1 = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, config);
  config.refinement.rtol = 1e-8;
  const auto key_d2 = ms::make_problem_key(rig.spec, rig.eps, rig.omega, rig.pml, config);
  EXPECT_TRUE(key_d1 == key_d2);
}

TEST(MixedPrecision, SimulationInheritsPrecisionOption) {
  PmlHeavyRig rig;
  const auto J = mf::point_source(rig.spec, 14, 24);

  mf::SimOptions opt_d;
  opt_d.pml = rig.pml;
  opt_d.precision = ms::SolverPrecision::Double;
  mf::Simulation sim_d(rig.spec, rig.eps, rig.omega, opt_d);
  const auto Ez_d = sim_d.solve(J);

  mf::SimOptions opt_m = opt_d;
  opt_m.precision = ms::SolverPrecision::Mixed;
  opt_m.refinement.rtol = 1e-13;
  mf::Simulation sim_m(rig.spec, rig.eps, rig.omega, opt_m);
  const auto Ez_m = sim_m.solve(J);

  double num = 0.0, den = 0.0;
  for (index_t n = 0; n < Ez_d.size(); ++n) {
    num += std::norm(Ez_m[n] - Ez_d[n]);
    den += std::norm(Ez_d[n]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-12);
  const auto stats = sim_m.backend().stats();
  EXPECT_GT(stats.refine_iterations, 0);
  EXPECT_EQ(stats.refine_fallbacks, 0);
}
