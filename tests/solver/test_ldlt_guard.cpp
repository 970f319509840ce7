// The LDL^T direct path on every device the repo builds: all six builders,
// fidelity 1 and 2, gray / binary / uniform-0.5 designs and every
// excitation. The static-pivot guard must pass (double and fp32), and forward
// and adjoint solves must agree with the pivoted BandMatrix<cplx> LU
// reference to 1e-12. A 128^2 reference factorization costs seconds, so
// fidelity 2 checks every system's residuals against the CSR operator and
// the reference on one system.
#include <gtest/gtest.h>

#include <cmath>

#include "devices/builders.hpp"
#include "fdfd/assembler.hpp"
#include "math/rng.hpp"
#include "param/pipeline.hpp"
#include "solver/direct.hpp"

namespace md = maps::devices;
namespace mf = maps::fdfd;
namespace mm = maps::math;
namespace ms = maps::solver;
using maps::cplx;
using maps::index_t;

namespace {

enum class Design { Gray, Binary, Uniform };

mm::RealGrid design_eps(const md::DeviceProblem& dev, Design design) {
  const auto& box = dev.design_map.box;
  mm::RealGrid rho(box.ni, box.nj, 0.5);
  mm::Rng rng(17);
  for (index_t k = 0; k < rho.size(); ++k) {
    if (design == Design::Gray) rho[k] = rng.uniform();
    if (design == Design::Binary) rho[k] = rng.uniform() < 0.5 ? 0.0 : 1.0;
  }
  return maps::param::embed_density(dev.design_map, rho);
}

double rel_l2(const std::vector<cplx>& a, const std::vector<cplx>& ref) {
  double num = 0.0, den = 0.0;
  for (std::size_t n = 0; n < a.size(); ++n) {
    num += std::norm(a[n] - ref[n]);
    den += std::norm(ref[n]);
  }
  return std::sqrt(num / den);
}

/// Forward right-hand sides (one per excitation of the group) and as many
/// random adjoint right-hand sides.
struct GroupSystem {
  mm::RealGrid eps;
  double omega = 0.0;
  std::vector<std::vector<cplx>> fwd_rhs, adj_rhs;
};

GroupSystem group_system(const md::DeviceProblem& dev, const mm::RealGrid& base,
                         const std::vector<std::size_t>& group) {
  const auto& first = dev.excitations[group.front()];
  GroupSystem sys{dev.excitation_eps(base, first), first.omega, {}, {}};
  mm::Rng rng(23);
  for (const std::size_t e : group) {
    sys.fwd_rhs.push_back(mf::rhs_from_current(dev.excitations[e].J, sys.omega));
    std::vector<cplx> g(static_cast<std::size_t>(dev.spec.cells()));
    for (auto& v : g) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    sys.adj_rhs.push_back(std::move(g));
  }
  return sys;
}

/// Solve the system through the production backend and compare with the
/// BandMatrix<cplx> reference; returns the worst relative disagreement.
double worst_vs_reference(const md::DeviceProblem& dev, const GroupSystem& sys) {
  ms::DirectBandedBackend backend(dev.spec, sys.eps, sys.omega, dev.sim_options.pml,
                                  ms::SolverPrecision::Double);
  const auto fwd = backend.solve_batch(sys.fwd_rhs);
  const auto adj = backend.solve_transposed_batch(sys.adj_rhs);
  auto ref = mm::to_band(mf::assemble(dev.spec, sys.eps, sys.omega, dev.sim_options.pml).A);
  ref.factorize();
  auto ref_fwd = sys.fwd_rhs;
  auto ref_adj = sys.adj_rhs;
  ref.solve_multi_inplace(ref_fwd);
  ref.solve_transposed_multi_inplace(ref_adj);
  double worst = 0.0;
  for (std::size_t k = 0; k < fwd.size(); ++k) {
    worst = std::max({worst, rel_l2(fwd[k], ref_fwd[k]), rel_l2(adj[k], ref_adj[k])});
  }
  return worst;
}

class LdltGuard : public ::testing::TestWithParam<md::DeviceKind> {};

}  // namespace

TEST_P(LdltGuard, Fidelity1MatchesPivotedReference) {
  const auto dev = md::make_device(GetParam());
  for (const Design design : {Design::Gray, Design::Binary, Design::Uniform}) {
    const auto base = design_eps(dev, design);
    for (const auto& group : dev.excitation_groups()) {
      const auto sys = group_system(dev, base, group);
      // The fp32 factors pass the guard too (the mixed path's first try).
      auto f32 = mf::assemble_banded_t<float>(dev.spec, sys.eps, sys.omega,
                                              dev.sim_options.pml);
      EXPECT_NO_THROW(f32.S.factorize()) << dev.name << " design " << int(design);
      EXPECT_LT(worst_vs_reference(dev, sys), 1e-12)
          << dev.name << " design " << int(design) << " group " << group.front();
    }
  }
}

TEST_P(LdltGuard, Fidelity2PassesGuardWithRoundoffResiduals) {
  md::BuildOptions options;
  options.fidelity = 2;
  const auto dev = md::make_device(GetParam(), options);
  for (const Design design : {Design::Gray, Design::Binary, Design::Uniform}) {
    const auto base = design_eps(dev, design);
    for (const auto& group : dev.excitation_groups()) {
      const auto sys = group_system(dev, base, group);
      ms::DirectBandedBackend backend(dev.spec, sys.eps, sys.omega, dev.sim_options.pml,
                                      ms::SolverPrecision::Double);
      ASSERT_NO_THROW(backend.factorize()) << dev.name << " design " << int(design);
      const auto fwd = backend.solve_batch(sys.fwd_rhs);
      const auto adj = backend.solve_transposed_batch(sys.adj_rhs);
      const auto& A = backend.op().A;
      for (std::size_t k = 0; k < fwd.size(); ++k) {
        EXPECT_LT(rel_l2(A.matvec(fwd[k]), sys.fwd_rhs[k]), 1e-12) << dev.name;
        EXPECT_LT(rel_l2(A.matvec_transposed(adj[k]), sys.adj_rhs[k]), 1e-12) << dev.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, LdltGuard, ::testing::ValuesIn(md::all_device_kinds()),
                         [](const auto& info) { return std::string(md::device_name(info.param)); });

TEST(LdltGuardReference, Fidelity2BinaryBendMatchesPivotedReference) {
  md::BuildOptions options;
  options.fidelity = 2;
  const auto dev = md::make_device(md::DeviceKind::Bend, options);
  const auto base = design_eps(dev, Design::Binary);
  EXPECT_LT(worst_vs_reference(dev, group_system(dev, base, dev.excitation_groups().front())),
            1e-12);
}
