#include "fdfd/te.hpp"

#include <cmath>

#include "math/bicgstab.hpp"
#include "math/csr.hpp"

namespace maps::fdfd {

using maps::math::CplxGrid;
using maps::math::RealGrid;
using maps::math::Triplet;

namespace {

/// Inverse-averaged edge coefficient between two cells (or one, at the
/// domain boundary): g = mean of 1/eps over the adjacent cells.
double edge_g(double eps_a, double eps_b) { return 0.5 * (1.0 / eps_a + 1.0 / eps_b); }

}  // namespace

FdfdOperator assemble_te(const grid::GridSpec& spec, const RealGrid& eps,
                         double omega, const PmlSpec& pml) {
  maps::require(eps.nx() == spec.nx && eps.ny() == spec.ny,
                "assemble_te: eps map does not match grid");
  maps::require(omega > 0, "assemble_te: omega must be positive");

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

      const double ge = (i + 1 < nx) ? edge_g(eps(i, j), eps(i + 1, j))
                                     : 1.0 / eps(i, j);
      const double gw = (i > 0) ? edge_g(eps(i - 1, j), eps(i, j)) : 1.0 / eps(i, j);
      const double gn = (j + 1 < ny) ? edge_g(eps(i, j), eps(i, j + 1))
                                     : 1.0 / eps(i, j);
      const double gs = (j > 0) ? edge_g(eps(i, j - 1), eps(i, j)) : 1.0 / eps(i, j);

      const cplx ce = ge / (dl2 * scx * sx.edges[static_cast<std::size_t>(i) + 1]);
      const cplx cw = gw / (dl2 * scx * sx.edges[static_cast<std::size_t>(i)]);
      const cplx cn = gn / (dl2 * scy * sy.edges[static_cast<std::size_t>(j) + 1]);
      const cplx cs = gs / (dl2 * scy * sy.edges[static_cast<std::size_t>(j)]);

      const cplx diag = -(ce + cw + cn + cs) + omega * omega;
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

TeSimulation::TeSimulation(grid::GridSpec spec, RealGrid eps, double omega,
                           PmlSpec pml)
    : spec_(spec), eps_(std::move(eps)), omega_(omega), pml_(pml),
      op_(assemble_te(spec_, eps_, omega_, pml_)) {}

void TeSimulation::ensure_factorized() {
  if (split_) return;
  split_ = maps::math::to_split_band(op_.A);
  split_->factorize();
}

CplxGrid TeSimulation::solve(const CplxGrid& Mz) {
  maps::require(Mz.nx() == spec_.nx && Mz.ny() == spec_.ny,
                "TeSimulation::solve: source shape mismatch");
  ensure_factorized();
  std::vector<cplx> x = rhs_from_current(Mz, omega_);
  split_->solve_inplace(x);
  return CplxGrid(spec_.nx, spec_.ny, std::move(x));
}

CplxGrid TeSimulation::solve_transposed(const std::vector<cplx>& rhs) {
  maps::require(static_cast<index_t>(rhs.size()) == spec_.cells(),
                "TeSimulation::solve_transposed: rhs size mismatch");
  ensure_factorized();
  std::vector<cplx> x = rhs;
  split_->solve_transposed_inplace(x);
  return CplxGrid(spec_.nx, spec_.ny, std::move(x));
}

TeFields TeSimulation::derive_fields(CplxGrid Hz) const {
  TeFields f{std::move(Hz), CplxGrid(spec_.nx, spec_.ny), CplxGrid(spec_.nx, spec_.ny)};
  const cplx i_over_w = kI / omega_;
  for (index_t j = 0; j < spec_.ny; ++j) {
    for (index_t i = 0; i < spec_.nx; ++i) {
      const cplx h = f.Hz(i, j);
      const cplx h_n = (j + 1 < spec_.ny) ? f.Hz(i, j + 1) : cplx{};
      const cplx h_e = (i + 1 < spec_.nx) ? f.Hz(i + 1, j) : cplx{};
      // Edge permittivities match the assembly's inverse averaging.
      const double ge_y = (j + 1 < spec_.ny) ? edge_g(eps_(i, j), eps_(i, j + 1))
                                             : 1.0 / eps_(i, j);
      const double ge_x = (i + 1 < spec_.nx) ? edge_g(eps_(i, j), eps_(i + 1, j))
                                             : 1.0 / eps_(i, j);
      // Ex = (i/(w eps)) dHz/dy ; Ey = -(i/(w eps)) dHz/dx.
      f.Ex(i, j) = i_over_w * ge_y * (h_n - h) / spec_.dl;
      f.Ey(i, j) = -i_over_w * ge_x * (h_e - h) / spec_.dl;
    }
  }
  return f;
}

double intensity_value(const IntensityTerm& term, const CplxGrid& Hz) {
  maps::require(term.box.fits(grid::GridSpec{Hz.nx(), Hz.ny(), 1.0}),
                "intensity_value: box outside field");
  const bool weighted = term.weights.size() > 0;
  if (weighted) {
    maps::require(term.weights.nx() == term.box.ni && term.weights.ny() == term.box.nj,
                  "intensity_value: weights must be box-shaped");
  }
  double sum = 0.0;
  for (index_t bj = 0; bj < term.box.nj; ++bj) {
    for (index_t bi = 0; bi < term.box.ni; ++bi) {
      const double w = weighted ? term.weights(bi, bj) : 1.0;
      sum += w * std::norm(Hz(term.box.i0 + bi, term.box.j0 + bj));
    }
  }
  return sum / term.norm;
}

double intensity_objective(const std::vector<IntensityTerm>& terms,
                           const CplxGrid& Hz) {
  double f = 0.0;
  for (const auto& t : terms) f += t.sign() * t.weight * intensity_value(t, Hz);
  return f;
}

std::vector<cplx> intensity_dHz(const std::vector<IntensityTerm>& terms,
                                const CplxGrid& Hz) {
  std::vector<cplx> g(static_cast<std::size_t>(Hz.size()));
  for (const auto& t : terms) {
    const bool weighted = t.weights.size() > 0;
    const double scale = t.sign() * t.weight / t.norm;
    for (index_t bj = 0; bj < t.box.nj; ++bj) {
      for (index_t bi = 0; bi < t.box.ni; ++bi) {
        const index_t i = t.box.i0 + bi, j = t.box.j0 + bj;
        const double w = weighted ? t.weights(bi, bj) : 1.0;
        const index_t n = i + Hz.nx() * j;
        // d|h|^2/dh (Wirtinger, conj(h) fixed) = conj(h).
        g[static_cast<std::size_t>(n)] += scale * w * std::conj(Hz(i, j));
      }
    }
  }
  return g;
}

TeAdjointResult compute_te_adjoint(TeSimulation& sim, const CplxGrid& Hz,
                                   const std::vector<IntensityTerm>& terms) {
  const auto& spec = sim.spec();
  maps::require(Hz.nx() == spec.nx && Hz.ny() == spec.ny,
                "compute_te_adjoint: field shape mismatch");
  const auto& eps = sim.eps();
  const double omega = sim.omega();

  TeAdjointResult out{RealGrid(spec.nx, spec.ny), CplxGrid(spec.nx, spec.ny),
                      intensity_objective(terms, Hz)};
  const std::vector<cplx> g = intensity_dHz(terms, Hz);
  out.lambda = sim.solve_transposed(g);

  // dF/deps_c = -2 Re( lambda^T (dA/deps_c) Hz ). A depends on eps through
  // the edge coefficients g_e; each edge contributes
  //   lambda^T L_e Hz = (Hz_b - Hz_a) (a_coef lambda_a - b_coef lambda_b)
  // where a_coef / b_coef are the PML prefactors of the two rows, and
  // d(g_e)/d(eps_cell) = -1/(2 eps_cell^2) for each adjacent cell.
  const index_t nx = spec.nx, ny = spec.ny;
  const double dl2 = spec.dl * spec.dl;
  const StretchProfile sx = make_stretch(nx, spec.dl, omega, sim.pml_spec());
  const StretchProfile sy = make_stretch(ny, spec.dl, omega, sim.pml_spec());

  auto flat = [nx](index_t i, index_t j) { return i + nx * j; };

  // Interior x-edges between (i, j) and (i+1, j).
  for (index_t j = 0; j < ny; ++j) {
    for (index_t i = 0; i + 1 < nx; ++i) {
      const index_t na = flat(i, j), nb = flat(i + 1, j);
      const cplx se = sx.edges[static_cast<std::size_t>(i) + 1];
      const cplx a_coef = cplx{1.0} / (dl2 * sx.centers[static_cast<std::size_t>(i)] * se);
      const cplx b_coef =
          cplx{1.0} / (dl2 * sx.centers[static_cast<std::size_t>(i) + 1] * se);
      const cplx t = (Hz[nb] - Hz[na]) * (a_coef * out.lambda[na] - b_coef * out.lambda[nb]);
      const double re = std::real(t);
      out.grad_eps(i, j) += -2.0 * re * (-0.5 / (eps(i, j) * eps(i, j)));
      out.grad_eps(i + 1, j) += -2.0 * re * (-0.5 / (eps(i + 1, j) * eps(i + 1, j)));
    }
    // Boundary x-edges: L_e = -coef e_n e_n^T with g = 1/eps of the cell.
    {
      const index_t n0 = flat(0, j);
      const cplx coef =
          cplx{1.0} / (dl2 * sx.centers[0] * sx.edges[0]);
      const double re = std::real(-coef * out.lambda[n0] * Hz[n0]);
      out.grad_eps(0, j) += -2.0 * re * (-1.0 / (eps(0, j) * eps(0, j)));
      const index_t n1 = flat(nx - 1, j);
      const cplx coef1 = cplx{1.0} / (dl2 * sx.centers[static_cast<std::size_t>(nx) - 1] *
                                      sx.edges[static_cast<std::size_t>(nx)]);
      const double re1 = std::real(-coef1 * out.lambda[n1] * Hz[n1]);
      out.grad_eps(nx - 1, j) += -2.0 * re1 * (-1.0 / (eps(nx - 1, j) * eps(nx - 1, j)));
    }
  }
  // Interior y-edges between (i, j) and (i, j+1).
  for (index_t i = 0; i < nx; ++i) {
    for (index_t j = 0; j + 1 < ny; ++j) {
      const index_t na = flat(i, j), nb = flat(i, j + 1);
      const cplx se = sy.edges[static_cast<std::size_t>(j) + 1];
      const cplx a_coef = cplx{1.0} / (dl2 * sy.centers[static_cast<std::size_t>(j)] * se);
      const cplx b_coef =
          cplx{1.0} / (dl2 * sy.centers[static_cast<std::size_t>(j) + 1] * se);
      const cplx t = (Hz[nb] - Hz[na]) * (a_coef * out.lambda[na] - b_coef * out.lambda[nb]);
      const double re = std::real(t);
      out.grad_eps(i, j) += -2.0 * re * (-0.5 / (eps(i, j) * eps(i, j)));
      out.grad_eps(i, j + 1) += -2.0 * re * (-0.5 / (eps(i, j + 1) * eps(i, j + 1)));
    }
    {
      const index_t n0 = flat(i, 0);
      const cplx coef = cplx{1.0} / (dl2 * sy.centers[0] * sy.edges[0]);
      const double re = std::real(-coef * out.lambda[n0] * Hz[n0]);
      out.grad_eps(i, 0) += -2.0 * re * (-1.0 / (eps(i, 0) * eps(i, 0)));
      const index_t n1 = flat(i, ny - 1);
      const cplx coef1 = cplx{1.0} / (dl2 * sy.centers[static_cast<std::size_t>(ny) - 1] *
                                      sy.edges[static_cast<std::size_t>(ny)]);
      const double re1 = std::real(-coef1 * out.lambda[n1] * Hz[n1]);
      out.grad_eps(i, ny - 1) += -2.0 * re1 * (-1.0 / (eps(i, ny - 1) * eps(i, ny - 1)));
    }
  }
  return out;
}

double te_port_flux(const TeFields& f, const Port& port, double dl) {
  // S = 0.5 Re(E x H*) with H = Hz z_hat: S_x = 0.5 Re(Ey conj(Hz)),
  // S_y = -0.5 Re(Ex conj(Hz)) (signs fixed by the +x plane wave
  // Hz = Ey = e^{ikx} carrying power toward +x).
  double flux = 0.0;
  if (port.normal == Axis::X) {
    for (index_t j = port.lo; j < port.hi; ++j) {
      flux += 0.5 * std::real(f.Ey(port.pos, j) * std::conj(f.Hz(port.pos, j))) * dl;
    }
  } else {
    for (index_t i = port.lo; i < port.hi; ++i) {
      flux += -0.5 * std::real(f.Ex(i, port.pos) * std::conj(f.Hz(i, port.pos))) * dl;
    }
  }
  return flux * port.direction;
}

}  // namespace maps::fdfd
