#include "core/invdes/init.hpp"

#include <cmath>

namespace maps::invdes {

using fdfd::Axis;
using fdfd::Port;
using maps::math::RealGrid;

const char* init_name(InitKind kind) {
  switch (kind) {
    case InitKind::Gray: return "gray";
    case InitKind::Random: return "random";
    case InitKind::PathSeed: return "path_seed";
  }
  return "?";
}

InitKind init_kind_from_name(const std::string& name) {
  for (const InitKind kind : {InitKind::Gray, InitKind::Random, InitKind::PathSeed}) {
    if (name == init_name(kind)) return kind;
  }
  throw MapsError("init must be gray | random | path_seed, got '" + name + "'");
}

namespace {

// Design-box coordinates (design-grid cells) of the point where a port's
// waveguide axis crosses the box boundary.
std::pair<double, double> port_anchor(const devices::DeviceProblem& dev,
                                      const Port& port) {
  const auto& box = dev.design_map.box;
  const double t_center = 0.5 * static_cast<double>(port.lo + port.hi);
  if (port.normal == Axis::X) {
    // Port plane at x = pos: the feed enters the box from the west or east.
    const double x_edge = (port.pos < box.i0 + box.ni / 2)
                              ? 0.0
                              : static_cast<double>(box.ni - 1);
    return {x_edge, t_center - static_cast<double>(box.j0)};
  }
  const double y_edge = (port.pos < box.j0 + box.nj / 2)
                            ? 0.0
                            : static_cast<double>(box.nj - 1);
  return {t_center - static_cast<double>(box.i0), y_edge};
}

// Rasterize an L-shaped path (horizontal then vertical) of the given
// half-width onto the density.
void draw_l_path(RealGrid& rho, double x0, double y0, double x1, double y1,
                 double half_width) {
  auto stamp = [&](double x, double y) {
    const index_t ilo = std::max<index_t>(0, static_cast<index_t>(x - half_width));
    const index_t ihi =
        std::min<index_t>(rho.nx() - 1, static_cast<index_t>(x + half_width));
    const index_t jlo = std::max<index_t>(0, static_cast<index_t>(y - half_width));
    const index_t jhi =
        std::min<index_t>(rho.ny() - 1, static_cast<index_t>(y + half_width));
    for (index_t j = jlo; j <= jhi; ++j) {
      for (index_t i = ilo; i <= ihi; ++i) rho(i, j) = 1.0;
    }
  };
  const int steps = static_cast<int>(std::abs(x1 - x0) + std::abs(y1 - y0)) + 2;
  for (int s = 0; s <= steps; ++s) {
    const double f = static_cast<double>(s) / steps;
    // Move horizontally first, then vertically (an L-bend).
    const double total = std::abs(x1 - x0) + std::abs(y1 - y0);
    const double walked = f * total;
    double x, y;
    if (walked <= std::abs(x1 - x0)) {
      x = x0 + (x1 > x0 ? walked : -walked);
      y = y0;
    } else {
      x = x1;
      const double rem = walked - std::abs(x1 - x0);
      y = y0 + (y1 > y0 ? rem : -rem);
    }
    stamp(x, y);
  }
}

}  // namespace

std::vector<double> make_initial_theta(const devices::DeviceProblem& dev,
                                       InitKind kind, unsigned seed) {
  const auto& box = dev.design_map.box;
  const std::size_t n = static_cast<std::size_t>(box.ni * box.nj);
  switch (kind) {
    case InitKind::Gray:
      return std::vector<double>(n, 0.5);
    case InitKind::Random: {
      maps::math::Rng rng(seed);
      std::vector<double> theta(n);
      for (auto& t : theta) t = rng.uniform();
      return theta;
    }
    case InitKind::PathSeed: {
      RealGrid rho(box.ni, box.nj, 0.0);
      // Path half-width ~ half the waveguide width (0.2 um) in design cells.
      const double half_w = std::max(1.0, 0.2 / dev.spec.dl);
      for (const auto& exc : dev.excitations) {
        const auto [sx, sy] = port_anchor(dev, exc.source_port);
        for (const auto& term : exc.terms) {
          if (term.goal != fdfd::Goal::Maximize) continue;
          // Recover the monitor port geometry from its first/last coefficient.
          Port approx;
          const index_t first = term.coeffs.front().first;
          const index_t last = term.coeffs.back().first;
          const index_t nx = dev.spec.nx;
          const index_t fi = first % nx, fj = first / nx;
          const index_t li = last % nx, lj = last / nx;
          if (fi == li) {  // x-normal port (column)
            approx.normal = Axis::X;
            approx.pos = fi;
            approx.lo = fj;
            approx.hi = lj + 1;
          } else {  // y-normal port (row)
            approx.normal = Axis::Y;
            approx.pos = fj;
            approx.lo = fi;
            approx.hi = li + 1;
          }
          const auto [tx, ty] = port_anchor(dev, approx);
          draw_l_path(rho, sx, sy, tx, ty, half_w);
        }
      }
      // Seed at 0.8 (solid-ish) instead of hard 1 so the optimizer can carve.
      std::vector<double> theta(n);
      for (index_t i = 0; i < rho.size(); ++i) theta[static_cast<std::size_t>(i)] =
          0.15 + 0.65 * rho[i];
      return theta;
    }
  }
  throw MapsError("make_initial_theta: unknown kind");
}

}  // namespace maps::invdes
