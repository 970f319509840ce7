// FDFD operator assembly: stencil identities and the W-symmetrization the
// adjoint relies on.
#include <gtest/gtest.h>

#include <algorithm>

#include "fdfd/assembler.hpp"
#include "math/rng.hpp"
#include "math/vec.hpp"

namespace mf = maps::fdfd;
namespace mm = maps::math;
using maps::cplx;
using maps::index_t;

namespace {
mf::FdfdOperator make_op(index_t n, double eps_val, int pml_cells, double omega = 4.0) {
  maps::grid::GridSpec spec{n, n, 0.1};
  mm::RealGrid eps(n, n, eps_val);
  mf::PmlSpec pml;
  pml.ncells = pml_cells;
  return mf::assemble(spec, eps, omega, pml);
}
}  // namespace

TEST(Assembler, ShapeAndBandwidth) {
  auto op = make_op(16, 2.25, 4);
  EXPECT_EQ(op.A.rows(), 256);
  EXPECT_EQ(op.A.cols(), 256);
  EXPECT_EQ(op.A.bandwidth(), 16);  // n = i + nx*j ordering
  EXPECT_EQ(op.A.nnz(), 5 * 256 - 4 * 16);  // 5-point stencil minus boundaries
}

TEST(Assembler, ConstantFieldInteriorGivesMassTerm) {
  // Without PML, A applied to the constant field equals omega^2*eps at
  // interior nodes (the Laplacian of a constant vanishes; Dirichlet edges add
  // boundary terms).
  const double omega = 4.0, epsv = 2.25;
  auto op = make_op(12, epsv, 0, omega);
  std::vector<cplx> ones(144, cplx{1.0, 0.0});
  auto y = op.A.matvec(ones);
  for (index_t j = 1; j < 11; ++j) {
    for (index_t i = 1; i < 11; ++i) {
      const cplx v = y[static_cast<std::size_t>(i + 12 * j)];
      EXPECT_NEAR(v.real(), omega * omega * epsv, 1e-9);
      EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
  }
}

TEST(Assembler, DirichletBoundaryAddsStiffness) {
  auto op = make_op(12, 2.25, 0, 4.0);
  std::vector<cplx> ones(144, cplx{1.0, 0.0});
  auto y = op.A.matvec(ones);
  // Corner node misses two neighbors: y = w^2 eps - 2/dl^2.
  EXPECT_NEAR(y[0].real(), 16.0 * 2.25 - 2.0 / 0.01, 1e-6);
}

TEST(Assembler, WIsUnityWithoutPml) {
  auto op = make_op(8, 1.0, 0);
  for (const auto& w : op.W) EXPECT_NEAR(std::abs(w - cplx{1.0, 0.0}), 0.0, 1e-14);
}

TEST(Assembler, WSymmetrizesOperator) {
  // x^T (W A) y must equal y^T (W A) x even with PML on.
  auto op = make_op(20, 6.0, 5);
  mm::Rng rng(4);
  std::vector<cplx> x(400), y(400);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto& v : y) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

  auto Ay = op.A.matvec(y);
  auto Ax = op.A.matvec(x);
  cplx xway{}, ywax{};
  for (std::size_t n = 0; n < 400; ++n) {
    xway += x[n] * op.W[n] * Ay[n];
    ywax += y[n] * op.W[n] * Ax[n];
  }
  EXPECT_NEAR(std::abs(xway - ywax), 0.0, 1e-6 * std::abs(xway));
}

TEST(Assembler, PlainAIsNotSymmetricWithPml) {
  // Sanity check that the W-trick is actually needed.
  auto op = make_op(20, 6.0, 5);
  mm::Rng rng(5);
  std::vector<cplx> x(400), y(400);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto& v : y) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const cplx xay = mm::dotu(std::span<const cplx>(x), std::span<const cplx>(op.A.matvec(y)));
  const cplx yax = mm::dotu(std::span<const cplx>(y), std::span<const cplx>(op.A.matvec(x)));
  EXPECT_GT(std::abs(xay - yax), 1e-6 * std::abs(xay));
}

TEST(Assembler, RhsFromCurrent) {
  mm::CplxGrid J(2, 2);
  J(0, 0) = cplx{1.0, 0.0};
  J(1, 1) = cplx{0.0, 2.0};
  auto b = mf::rhs_from_current(J, 3.0);
  EXPECT_NEAR(std::abs(b[0] - cplx{0.0, -3.0}), 0.0, 1e-14);  // -i*3*1
  EXPECT_NEAR(std::abs(b[3] - cplx{6.0, 0.0}), 0.0, 1e-14);   // -i*3*(2i)
}

TEST(Assembler, EpsShapeMismatchThrows) {
  maps::grid::GridSpec spec{8, 8, 0.1};
  mm::RealGrid eps(8, 7, 1.0);
  EXPECT_THROW(mf::assemble(spec, eps, 4.0, mf::PmlSpec{}), maps::MapsError);
}

TEST(Assembler, BandedAssemblyIsLowerBandOfWA) {
  // assemble_banded_t stores W_n * A(n, m) for m <= n with the same
  // coefficient arithmetic as assemble(), and the mirrored upper entries of
  // W·A agree to rounding — on square, nx != ny and single-row grids.
  for (const auto& spec : {maps::grid::GridSpec{14, 14, 0.1},
                           maps::grid::GridSpec{17, 9, 0.1},
                           maps::grid::GridSpec{23, 1, 0.1}}) {
    mm::Rng rng(6);
    mm::RealGrid eps(spec.nx, spec.ny);
    for (index_t k = 0; k < eps.size(); ++k) eps[k] = 2.0 + 10.0 * rng.uniform();
    mf::PmlSpec pml;
    pml.ncells = spec.ny > 1 ? 4 : 0;  // a single row has no room for PML in y
    const auto op = mf::assemble(spec, eps, 4.0, pml);
    const auto band = mf::assemble_banded_t<double>(spec, eps, 4.0, pml);
    const auto ref = mm::to_band(op.A);
    EXPECT_EQ(band.S.kl(), spec.ny > 1 ? spec.nx : 1);
    ASSERT_EQ(band.W.size(), op.W.size());
    for (index_t i = 0; i < spec.cells(); ++i) {
      EXPECT_EQ(band.W[static_cast<std::size_t>(i)], op.W[static_cast<std::size_t>(i)]);
      for (index_t j = std::max<index_t>(0, i - band.S.kl()); j <= i; ++j) {
        const cplx lower = op.W[static_cast<std::size_t>(i)] * ref.get(i, j);
        const cplx upper = op.W[static_cast<std::size_t>(j)] * ref.get(j, i);
        EXPECT_LE(std::abs(band.S.get(i, j) - lower), 1e-15 * std::abs(lower))
            << i << "," << j;
        EXPECT_LE(std::abs(upper - lower), 1e-14 * std::abs(lower)) << i << "," << j;
      }
    }
    // The CSR -> band conversion produces the same lower band.
    const auto converted = mf::symmetric_band_t<double>(op);
    for (index_t i = 0; i < spec.cells(); ++i) {
      for (index_t j = std::max<index_t>(0, i - band.S.kl()); j <= i; ++j) {
        const cplx v = band.S.get(i, j);
        EXPECT_LE(std::abs(converted.get(i, j) - v), 1e-15 * std::abs(v)) << i << "," << j;
      }
    }
  }
}

TEST(Assembler, SymmetricBandRejectsUnsymmetrizedOperator) {
  // With PML on, A alone is not symmetric: dropping W must be caught before
  // an LDL^T could answer for the wrong matrix.
  auto op = make_op(12, 2.25, 4);
  EXPECT_NO_THROW(mf::symmetric_band_t<float>(op));
  std::fill(op.W.begin(), op.W.end(), cplx{1.0, 0.0});
  EXPECT_THROW(mf::symmetric_band_t<double>(op), maps::MapsError);
}
