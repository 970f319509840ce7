#include "fdfd/assembler.hpp"

#include <limits>

namespace maps::fdfd {

using maps::math::Triplet;

FdfdOperator assemble(const grid::GridSpec& spec, const maps::math::RealGrid& eps,
                      double omega, const PmlSpec& pml) {
  maps::require(eps.nx() == spec.nx && eps.ny() == spec.ny,
                "assemble: eps map does not match grid");
  maps::require(omega > 0, "assemble: omega must be positive");

  const index_t nx = spec.nx, ny = spec.ny;
  const double dl2 = spec.dl * spec.dl;
  const StretchProfile sx = make_stretch(nx, spec.dl, omega, pml);
  const StretchProfile sy = make_stretch(ny, spec.dl, omega, pml);

  std::vector<Triplet<cplx>> tris;
  tris.reserve(static_cast<std::size_t>(5 * nx * ny));

  FdfdOperator op;
  op.W.resize(static_cast<std::size_t>(nx * ny));
  op.omega = omega;
  op.spec = spec;

  auto flat = [nx](index_t i, index_t j) { return i + nx * j; };

  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t n = flat(i, j);
      const cplx scx = sx.centers[static_cast<std::size_t>(i)];
      const cplx scy = sy.centers[static_cast<std::size_t>(j)];
      op.W[static_cast<std::size_t>(n)] = scx * scy;

      // x-direction: east edge i+1, west edge i.
      const cplx ce = cplx{1.0} / (dl2 * scx * sx.edges[static_cast<std::size_t>(i) + 1]);
      const cplx cw = cplx{1.0} / (dl2 * scx * sx.edges[static_cast<std::size_t>(i)]);
      // y-direction: north edge j+1, south edge j.
      const cplx cn = cplx{1.0} / (dl2 * scy * sy.edges[static_cast<std::size_t>(j) + 1]);
      const cplx cs = cplx{1.0} / (dl2 * scy * sy.edges[static_cast<std::size_t>(j)]);

      cplx diag = -(ce + cw + cn + cs) + omega * omega * eps(i, j);
      if (i + 1 < nx) tris.push_back({n, flat(i + 1, j), ce});
      if (i > 0) tris.push_back({n, flat(i - 1, j), cw});
      if (j + 1 < ny) tris.push_back({n, flat(i, j + 1), cn});
      if (j > 0) tris.push_back({n, flat(i, j - 1), cs});
      tris.push_back({n, n, diag});
    }
  }
  op.A = maps::math::CsrCplx::from_triplets(nx * ny, nx * ny, std::move(tris));
  return op;
}

template <typename T>
BandedOperatorT<T> assemble_banded_t(const grid::GridSpec& spec,
                                     const maps::math::RealGrid& eps, double omega,
                                     const PmlSpec& pml) {
  maps::require(eps.nx() == spec.nx && eps.ny() == spec.ny,
                "assemble_banded: eps map does not match grid");
  maps::require(omega > 0, "assemble_banded: omega must be positive");

  const index_t nx = spec.nx, ny = spec.ny;
  const double dl2 = spec.dl * spec.dl;
  const StretchProfile sx = make_stretch(nx, spec.dl, omega, pml);
  const StretchProfile sy = make_stretch(ny, spec.dl, omega, pml);

  BandedOperatorT<T> op;
  // Natural ordering couples n to n-1 and n-nx below the diagonal; a
  // single-row grid only needs the i neighbor.
  const index_t bw = ny > 1 ? nx : 1;
  op.S = maps::math::SymBandLdltT<T>(nx * ny, bw);
  op.W.resize(static_cast<std::size_t>(nx * ny));
  op.omega = omega;
  op.spec = spec;

  auto flat = [nx](index_t i, index_t j) { return i + nx * j; };

  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i < nx; ++i) {
      const index_t n = flat(i, j);
      const cplx scx = sx.centers[static_cast<std::size_t>(i)];
      const cplx scy = sy.centers[static_cast<std::size_t>(j)];
      const cplx w = scx * scy;
      op.W[static_cast<std::size_t>(n)] = w;

      const cplx ce = cplx{1.0} / (dl2 * scx * sx.edges[static_cast<std::size_t>(i) + 1]);
      const cplx cw = cplx{1.0} / (dl2 * scx * sx.edges[static_cast<std::size_t>(i)]);
      const cplx cn = cplx{1.0} / (dl2 * scy * sy.edges[static_cast<std::size_t>(j) + 1]);
      const cplx cs = cplx{1.0} / (dl2 * scy * sy.edges[static_cast<std::size_t>(j)]);

      cplx diag = -(ce + cw + cn + cs) + omega * omega * eps(i, j);
      if (i > 0) op.S.set(n, flat(i - 1, j), w * cw);
      if (j > 0) op.S.set(n, flat(i, j - 1), w * cs);
      op.S.set(n, n, w * diag);
    }
  }
  return op;
}

template <typename T>
maps::math::SymBandLdltT<T> symmetric_band_t(const FdfdOperator& op) {
  const auto& A = op.A;
  const index_t n = A.rows();
  maps::require(A.cols() == n && static_cast<index_t>(op.W.size()) == n,
                "symmetric_band: operator and W do not match");
  maps::math::SymBandLdltT<T> S(n, A.bandwidth());
  auto row_entries = [&](index_t r, auto&& fn) {
    for (index_t k = A.row_ptr()[static_cast<std::size_t>(r)];
         k < A.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      fn(A.col_idx()[static_cast<std::size_t>(k)],
         op.W[static_cast<std::size_t>(r)] * A.values()[static_cast<std::size_t>(k)]);
    }
  };
  for (index_t r = 0; r < n; ++r) {
    row_entries(r, [&](index_t c, cplx v) {
      if (c <= r) S.set(r, c, v);
    });
  }
  // Each upper entry must mirror its stored lower partner, or the LDL^T
  // factors would answer for a different matrix.
  const double tol = 64.0 * std::numeric_limits<T>::epsilon();
  for (index_t r = 0; r < n; ++r) {
    row_entries(r, [&](index_t c, cplx v) {
      if (c > r) {
        maps::require(std::abs(S.get(c, r) - v) <= tol * std::abs(v),
                      "symmetric_band: W·A is not symmetric");
      }
    });
  }
  return S;
}

template BandedOperatorT<double> assemble_banded_t<double>(
    const grid::GridSpec&, const maps::math::RealGrid&, double, const PmlSpec&);
template BandedOperatorT<float> assemble_banded_t<float>(
    const grid::GridSpec&, const maps::math::RealGrid&, double, const PmlSpec&);
template maps::math::SymBandLdltT<double> symmetric_band_t<double>(const FdfdOperator&);
template maps::math::SymBandLdltT<float> symmetric_band_t<float>(const FdfdOperator&);

std::vector<cplx> rhs_from_current(const maps::math::CplxGrid& J, double omega) {
  std::vector<cplx> b(static_cast<std::size_t>(J.size()));
  const cplx f = -kI * omega;
  for (index_t n = 0; n < J.size(); ++n) b[static_cast<std::size_t>(n)] = f * J[n];
  return b;
}

}  // namespace maps::fdfd
