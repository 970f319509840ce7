// Device builders: construction invariants for all six devices plus
// end-to-end physics sanity (a painted waveguide through the design region
// transmits; adjoint gradients match finite differences at device level).
#include <gtest/gtest.h>

#include "devices/builders.hpp"
#include "math/rng.hpp"

namespace md = maps::devices;
namespace mm = maps::math;
using maps::index_t;

class AllDevices : public ::testing::TestWithParam<md::DeviceKind> {};

TEST_P(AllDevices, BuildsWithValidPortsAndNorms) {
  const auto kind = GetParam();
  const auto dev = md::make_device(kind);
  EXPECT_EQ(dev.name, md::device_name(kind));
  EXPECT_EQ(dev.spec.nx, 64);
  EXPECT_EQ(dev.spec.ny, 64);
  EXPECT_EQ(dev.design_map.box.ni, 24);
  EXPECT_EQ(dev.design_map.box.nj, 24);
  ASSERT_FALSE(dev.excitations.empty());
  for (const auto& exc : dev.excitations) {
    EXPECT_GT(exc.omega, 0.0);
    EXPECT_GT(exc.input_norm, 1e-9) << exc.name;
    ASSERT_FALSE(exc.terms.empty());
    for (const auto& t : exc.terms) {
      EXPECT_FALSE(t.coeffs.empty());
      EXPECT_GT(t.norm, 0.0);
      for (const auto& [n, c] : t.coeffs) {
        EXPECT_GE(n, 0);
        EXPECT_LT(n, dev.spec.cells());
        (void)c;
      }
    }
    // Source grid must contain energy.
    double j_mass = 0;
    for (index_t n = 0; n < exc.J.size(); ++n) j_mass += std::abs(exc.J[n]);
    EXPECT_GT(j_mass, 0.0);
  }
}

TEST_P(AllDevices, BlankDesignScoresPoorly) {
  // With an empty design region, the primary (maximize) targets should be far
  // from unity transmission — there is real optimization headroom.
  const auto dev = md::make_device(GetParam());
  const auto ev = dev.evaluate(dev.blank_eps());
  ASSERT_EQ(ev.per_excitation.size(), dev.excitations.size());
  for (std::size_t e = 0; e < dev.excitations.size(); ++e) {
    for (std::size_t t = 0; t < dev.excitations[e].terms.size(); ++t) {
      if (dev.excitations[e].terms[t].goal == maps::fdfd::Goal::Maximize) {
        EXPECT_LT(ev.per_excitation[e].transmissions[t], 0.6)
            << dev.name << "/" << dev.excitations[e].name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllDevices, ::testing::ValuesIn(md::all_device_kinds()),
                         [](const ::testing::TestParamInfo<md::DeviceKind>& info) {
                           return md::device_name(info.param);
                         });

TEST(Devices, DiodeHasForwardAndBackwardExcitations) {
  const auto dev = md::make_device(md::DeviceKind::OpticalDiode);
  ASSERT_EQ(dev.excitations.size(), 2u);
  EXPECT_EQ(dev.excitations[0].source_port.direction, +1);
  EXPECT_EQ(dev.excitations[1].source_port.direction, -1);
}

TEST(Devices, WdmUsesTwoWavelengths) {
  const auto dev = md::make_device(md::DeviceKind::Wdm);
  ASSERT_EQ(dev.excitations.size(), 2u);
  EXPECT_NE(dev.excitations[0].omega, dev.excitations[1].omega);
}

TEST(Devices, MdmUsesTwoSourceModes) {
  const auto dev = md::make_device(md::DeviceKind::Mdm);
  ASSERT_EQ(dev.excitations.size(), 2u);
  EXPECT_EQ(dev.excitations[0].source_mode, 0);
  EXPECT_EQ(dev.excitations[1].source_mode, 1);
}

TEST(Devices, TosHotStateCarriesDeltaEps) {
  const auto dev = md::make_device(md::DeviceKind::Tos);
  ASSERT_EQ(dev.excitations.size(), 2u);
  EXPECT_FALSE(dev.excitations[0].has_delta());
  ASSERT_TRUE(dev.excitations[1].has_delta());
  const auto& delta = dev.excitations[1].delta_eps;
  double inside = 0, outside = 0;
  for (index_t j = 0; j < 64; ++j) {
    for (index_t i = 0; i < 64; ++i) {
      if (dev.design_map.box.contains(i, j)) {
        inside += std::abs(delta(i, j));
      } else {
        outside += std::abs(delta(i, j));
      }
    }
  }
  EXPECT_GT(inside, 0.0);
  EXPECT_DOUBLE_EQ(outside, 0.0);
}

TEST(Devices, StraightBarThroughCrossingTransmits) {
  // Painting the through-waveguide into the design region must recover most
  // of the transmission: end-to-end check of source, solver and monitors.
  const auto dev = md::make_device(md::DeviceKind::Crossing);
  mm::RealGrid rho(24, 24, 0.0);
  for (index_t j = 10; j <= 13; ++j) {  // 0.4 um bar at the waveguide height
    for (index_t i = 0; i < 24; ++i) rho(i, j) = 1.0;
  }
  const auto eps = maps::param::embed_density(dev.design_map, rho);
  const auto ev = dev.evaluate(eps);
  // Term 0 is "through" transmission.
  EXPECT_GT(ev.per_excitation[0].transmissions[0], 0.7);
  // Cross-talk terms stay small.
  EXPECT_LT(ev.per_excitation[0].transmissions[1], 0.05);
  EXPECT_LT(ev.per_excitation[0].transmissions[2], 0.05);
}

TEST(Devices, DeviceGradientMatchesFiniteDifference) {
  const auto dev = md::make_device(md::DeviceKind::Bend);
  mm::Rng rng(31);
  mm::RealGrid rho(24, 24);
  for (index_t n = 0; n < rho.size(); ++n) rho[n] = rng.uniform(0.2, 0.8);
  const auto eps = maps::param::embed_density(dev.design_map, rho);

  const auto ge = dev.evaluate_with_gradient(eps);
  const double h = 1e-5;
  for (int probe = 0; probe < 4; ++probe) {
    const index_t i = dev.design_map.box.i0 + rng.randint(0, 23);
    const index_t j = dev.design_map.box.j0 + rng.randint(0, 23);
    mm::RealGrid ep = eps, em = eps;
    ep(i, j) += h;
    em(i, j) -= h;
    const double fd = (dev.evaluate(ep).fom - dev.evaluate(em).fom) / (2 * h);
    EXPECT_NEAR(ge.grad_eps(i, j), fd, 1e-4 * std::max(1.0, std::abs(fd)));
  }
}

TEST(Devices, GradientEvaluationsBypassTheDeviceCache) {
  // An optimizer step never revisits its eps, so gradient evaluations do
  // not park factorizations in the cache; forward evaluate() still reuses.
  const auto dev = md::make_device(md::DeviceKind::Bend);
  const auto eps = dev.blank_eps();
  const auto g1 = dev.evaluate_with_gradient(eps);
  const auto g2 = dev.evaluate_with_gradient(eps);
  EXPECT_EQ(g1.fom, g2.fom);
  EXPECT_EQ(g2.factorizations, 1);
  auto stats = dev.solver_cache->stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(dev.solver_cache->factor_bytes(), 0u);

  const auto e1 = dev.evaluate(eps);
  const auto e2 = dev.evaluate(eps);
  EXPECT_EQ(e1.fom, e2.fom);
  EXPECT_EQ(e1.fom, g1.fom);
  stats = dev.solver_cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(Devices, DefaultPipelineRespectsSymmetry) {
  const auto dev = md::make_device(md::DeviceKind::Crossing);
  auto pipe = md::make_default_pipeline(dev, md::DeviceKind::Crossing);
  mm::Rng rng(8);
  std::vector<double> theta(static_cast<std::size_t>(pipe.num_params()));
  for (auto& t : theta) t = rng.uniform();
  auto rho = pipe.density(theta);
  // C4: rotating the density by 90 degrees reproduces it.
  for (index_t j = 0; j < 24; ++j) {
    for (index_t i = 0; i < 24; ++i) {
      EXPECT_NEAR(rho(i, j), rho(23 - j, i), 1e-10);
    }
  }
}

TEST(Devices, HigherFidelityPreservesPhysicalLayout) {
  md::BuildOptions opt;
  opt.fidelity = 2;
  const auto hi = md::make_device(md::DeviceKind::Bend, opt);
  EXPECT_EQ(hi.spec.nx, 128);
  EXPECT_NEAR(hi.spec.dl, 0.05, 1e-12);
  EXPECT_EQ(hi.design_map.box.ni, 48);
  const auto lo = md::make_device(md::DeviceKind::Bend);
  // Same physical port plane: pos * dl must match.
  EXPECT_NEAR(static_cast<double>(hi.excitations[0].source_port.pos) * hi.spec.dl,
              static_cast<double>(lo.excitations[0].source_port.pos) * lo.spec.dl, 1e-9);
}
