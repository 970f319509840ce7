#include "devices/builders.hpp"

#include <algorithm>
#include <cmath>

#include "fdfd/monitor.hpp"
#include "fdfd/source.hpp"
#include "grid/materials.hpp"
#include "grid/structure.hpp"
#include "heat/heat_solver.hpp"
#include "param/blur.hpp"

namespace maps::devices {

using fdfd::Axis;
using fdfd::FomTerm;
using fdfd::Goal;
using fdfd::Mode;
using fdfd::Port;
using grid::GridSpec;
using grid::Structure;
using maps::math::CplxGrid;
using maps::math::RealGrid;

namespace {

// Physical layout constants [um], shared by every device.
constexpr double kDomain = 6.4;
constexpr double kCenter = 3.2;
constexpr double kPmlUm = 1.0;
constexpr double kBoxLo = 2.0, kBoxHi = 4.4;  // design region
constexpr double kWgSingle = 0.4;
constexpr double kWgMulti = 1.0;
constexpr double kPortIn = 1.4, kPortOut = 5.0;  // port planes
constexpr double kPortHalfSpan = 1.0;            // single-mode port half-width
constexpr double kPortHalfSpanWide = 1.3;        // multimode port half-width
constexpr int kNormShift = 8;                    // norm monitor offset [base cells]

const double kEpsSi = grid::kSilicon.eps();
const double kEpsClad = grid::kSilica.eps();

struct Layout {
  GridSpec spec;
  int f = 1;  // fidelity factor
  index_t at(double x) const {
    return static_cast<index_t>(std::llround(x / spec.dl));
  }
};

Layout make_layout(int fidelity) {
  maps::require(fidelity >= 1 && fidelity <= 8, "make_device: bad fidelity");
  Layout lay;
  lay.f = fidelity;
  lay.spec = GridSpec{64 * fidelity, 64 * fidelity, 0.1 / fidelity};
  return lay;
}

fdfd::SimOptions sim_options(const Layout& lay) {
  fdfd::SimOptions o;
  o.pml.ncells = static_cast<int>(std::llround(kPmlUm / lay.spec.dl));
  return o;
}

Port x_port(const Layout& lay, double x, double y_center, double half_span, int dir,
            std::string name) {
  Port p;
  p.normal = Axis::X;
  p.pos = lay.at(x);
  p.lo = lay.at(y_center - half_span);
  p.hi = lay.at(y_center + half_span);
  p.direction = dir;
  p.name = std::move(name);
  return p;
}

Port y_port(const Layout& lay, double y, double x_center, double half_span, int dir,
            std::string name) {
  Port p;
  p.normal = Axis::Y;
  p.pos = lay.at(y);
  p.lo = lay.at(x_center - half_span);
  p.hi = lay.at(x_center + half_span);
  p.direction = dir;
  p.name = std::move(name);
  return p;
}

/// Straight-waveguide normalization structure along the source port's axis.
Structure norm_structure(const Layout& lay, const Port& src, double wg_width) {
  Structure s(lay.spec, kEpsClad);
  const double c = (src.normal == Axis::X)
                       ? (static_cast<double>(src.lo + src.hi) / 2.0) * lay.spec.dl
                       : (static_cast<double>(src.lo + src.hi) / 2.0) * lay.spec.dl;
  if (src.normal == Axis::X) {
    s.add_waveguide_x(c, wg_width, 0.0, kDomain);
  } else {
    s.add_waveguide_y(c, wg_width, 0.0, kDomain);
  }
  return s;
}

struct TargetSpec {
  Port port;
  int mode = 0;
  Goal goal = Goal::Maximize;
  double weight = 1.0;
};

struct ExcSpec {
  std::string name;
  double lambda = 1.55;
  Port src;
  int src_mode = 0;
  double src_wg_width = kWgSingle;
  std::vector<TargetSpec> targets;
  double weight = 1.0;
  RealGrid delta_eps;  // empty = none
};

/// Resolve an excitation: mode-solve the source, run the normalization
/// simulation for the input power, and build normalized FoM terms against
/// the device's blank (density-0) permittivity.
Excitation resolve_excitation(const Layout& lay, const RealGrid& blank_eps,
                              const ExcSpec& es) {
  const double omega = omega_of_wavelength(es.lambda);
  const auto opts = sim_options(lay);

  // --- Normalization run on the straight-through structure.
  const Structure norm_s = norm_structure(lay, es.src, es.src_wg_width);
  const RealGrid norm_eps = norm_s.render();
  const auto src_eps_line = fdfd::eps_along_port(norm_eps, es.src);
  const auto src_modes = fdfd::solve_slab_modes(src_eps_line, lay.spec.dl, omega,
                                                es.src_mode + 1);
  maps::require(static_cast<int>(src_modes.size()) > es.src_mode,
                "resolve_excitation: source mode not guided");
  const Mode& src_mode = src_modes[static_cast<std::size_t>(es.src_mode)];

  Excitation exc;
  exc.name = es.name;
  exc.omega = omega;
  exc.weight = es.weight;
  exc.source_port = es.src;
  exc.source_mode = es.src_mode;
  exc.J = fdfd::mode_source_directional(lay.spec, es.src, src_mode);
  if (es.delta_eps.size() > 0) exc.delta_eps = es.delta_eps;

  fdfd::Simulation norm_sim(lay.spec, norm_eps, omega, opts);
  const CplxGrid norm_Ez = norm_sim.solve(exc.J);
  const Port norm_mon = es.src.shifted(kNormShift * lay.f);
  const cplx a_in = fdfd::mode_overlap(norm_Ez, norm_mon, src_mode, lay.spec.dl);
  exc.input_norm = std::norm(a_in);
  maps::require(exc.input_norm > 1e-12,
                "resolve_excitation: normalization run produced no power");

  // --- Targets, mode-solved on the device's blank permittivity.
  for (const auto& ts : es.targets) {
    const auto line = fdfd::eps_along_port(blank_eps, ts.port);
    const auto modes = fdfd::solve_slab_modes(line, lay.spec.dl, omega, ts.mode + 1);
    maps::require(static_cast<int>(modes.size()) > ts.mode,
                  "resolve_excitation: target mode not guided");
    FomTerm term;
    term.coeffs =
        fdfd::mode_monitor_coeffs(lay.spec, ts.port, modes[static_cast<std::size_t>(ts.mode)]);
    term.norm = exc.input_norm;
    term.weight = ts.weight;
    term.goal = ts.goal;
    term.name = ts.port.name + ":m" + std::to_string(ts.mode);
    exc.terms.push_back(std::move(term));
  }
  return exc;
}

param::DesignMap design_map_for(const Layout& lay, const Structure& s) {
  param::DesignMap dm;
  dm.box = grid::BoxRegion{lay.at(kBoxLo), lay.at(kBoxLo), lay.at(kBoxHi) - lay.at(kBoxLo),
                           lay.at(kBoxHi) - lay.at(kBoxLo)};
  dm.eps_lo = kEpsClad;
  dm.eps_hi = kEpsSi;
  dm.base_eps = s.render();
  return dm;
}

DeviceProblem finalize(const Layout& lay, std::string name, const Structure& s,
                       const std::vector<ExcSpec>& specs) {
  DeviceProblem d;
  d.name = std::move(name);
  d.spec = lay.spec;
  d.sim_options = sim_options(lay);
  // Serves forward-only evaluate() calls (gradient evaluations bypass it).
  // Sized so a forward corner or S-parameter sweep of a multi-excitation
  // device stays resident from one pass to the next.
  d.solver_cache = std::make_shared<solver::FactorizationCache>(
      std::max<std::size_t>(8, 4 * specs.size()));
  d.design_map = design_map_for(lay, s);
  const RealGrid blank = d.blank_eps();
  for (const auto& es : specs) {
    d.excitations.push_back(resolve_excitation(lay, blank, es));
  }
  return d;
}

// ---------------------------------------------------------------- devices --

DeviceProblem build_bend(const Layout& lay, const BuildOptions& o) {
  Structure s(lay.spec, kEpsClad);
  s.add_waveguide_x(kCenter, kWgSingle, 0.0, kBoxLo);   // west feed
  s.add_waveguide_y(kCenter, kWgSingle, 0.0, kBoxLo);   // south exit

  ExcSpec e;
  e.name = "fwd";
  e.lambda = o.lambda;
  e.src = x_port(lay, kPortIn, kCenter, kPortHalfSpan, +1, "in_w");
  e.targets = {{y_port(lay, kDomain - kPortOut, kCenter, kPortHalfSpan, -1, "out_s"),
                0, Goal::Maximize, 1.0}};
  return finalize(lay, "bending", s, {e});
}

DeviceProblem build_crossing(const Layout& lay, const BuildOptions& o) {
  Structure s(lay.spec, kEpsClad);
  s.add_waveguide_x(kCenter, kWgSingle, 0.0, kBoxLo);
  s.add_waveguide_x(kCenter, kWgSingle, kBoxHi, kDomain);
  s.add_waveguide_y(kCenter, kWgSingle, 0.0, kBoxLo);
  s.add_waveguide_y(kCenter, kWgSingle, kBoxHi, kDomain);

  ExcSpec e;
  e.name = "through";
  e.lambda = o.lambda;
  e.src = x_port(lay, kPortIn, kCenter, kPortHalfSpan, +1, "in_w");
  e.targets = {
      {x_port(lay, kPortOut, kCenter, kPortHalfSpan, +1, "out_e"), 0, Goal::Maximize, 1.0},
      {y_port(lay, kPortOut, kCenter, kPortHalfSpan, +1, "out_n"), 0, Goal::Minimize, 0.5},
      {y_port(lay, kDomain - kPortOut, kCenter, kPortHalfSpan, -1, "out_s"), 0,
       Goal::Minimize, 0.5},
  };
  return finalize(lay, "crossing", s, {e});
}

DeviceProblem build_diode(const Layout& lay, const BuildOptions& o) {
  Structure s(lay.spec, kEpsClad);
  s.add_waveguide_x(kCenter, kWgSingle, 0.0, kBoxLo);
  s.add_waveguide_x(kCenter, kWgSingle, kBoxHi, kDomain);

  ExcSpec fwd;
  fwd.name = "forward";
  fwd.lambda = o.lambda;
  fwd.src = x_port(lay, kPortIn, kCenter, kPortHalfSpan, +1, "in_w");
  fwd.targets = {{x_port(lay, kPortOut, kCenter, kPortHalfSpan, +1, "out_e"), 0,
                  Goal::Maximize, 1.0}};

  ExcSpec bwd;
  bwd.name = "backward";
  bwd.lambda = o.lambda;
  bwd.src = x_port(lay, kPortOut, kCenter, kPortHalfSpan, -1, "in_e");
  bwd.targets = {{x_port(lay, kPortIn, kCenter, kPortHalfSpan, -1, "out_w"), 0,
                  Goal::Minimize, 1.0}};
  bwd.weight = 0.5;

  return finalize(lay, "optical_diode", s, {fwd, bwd});
}

DeviceProblem build_wdm(const Layout& lay, const BuildOptions& o) {
  const double y1 = 4.0, y2 = 2.4;  // output arm centers
  Structure s(lay.spec, kEpsClad);
  s.add_waveguide_x(kCenter, kWgSingle, 0.0, kBoxLo);
  s.add_waveguide_x(y1, kWgSingle, kBoxHi, kDomain);
  s.add_waveguide_x(y2, kWgSingle, kBoxHi, kDomain);

  const double half = 0.7;  // narrower spans: the two arms must not overlap
  auto out1 = x_port(lay, kPortOut, y1, half, +1, "out_top");
  auto out2 = x_port(lay, kPortOut, y2, half, +1, "out_bot");

  ExcSpec e1;
  e1.name = "lambda1";
  e1.lambda = o.wdm_lambda1;
  e1.src = x_port(lay, kPortIn, kCenter, kPortHalfSpan, +1, "in_w");
  e1.targets = {{out1, 0, Goal::Maximize, 1.0}, {out2, 0, Goal::Minimize, 0.5}};

  ExcSpec e2;
  e2.name = "lambda2";
  e2.lambda = o.wdm_lambda2;
  e2.src = e1.src;
  e2.targets = {{out2, 0, Goal::Maximize, 1.0}, {out1, 0, Goal::Minimize, 0.5}};

  return finalize(lay, "wdm", s, {e1, e2});
}

DeviceProblem build_mdm(const Layout& lay, const BuildOptions& o) {
  const double y1 = 4.0, y2 = 2.4;
  Structure s(lay.spec, kEpsClad);
  s.add_waveguide_x(kCenter, kWgMulti, 0.0, kBoxLo);  // multimode feed
  s.add_waveguide_x(y1, kWgSingle, kBoxHi, kDomain);
  s.add_waveguide_x(y2, kWgSingle, kBoxHi, kDomain);

  const double half = 0.7;
  auto out1 = x_port(lay, kPortOut, y1, half, +1, "out_top");
  auto out2 = x_port(lay, kPortOut, y2, half, +1, "out_bot");
  auto in = x_port(lay, kPortIn, kCenter, kPortHalfSpanWide, +1, "in_w");

  ExcSpec e0;
  e0.name = "mode0";
  e0.lambda = o.lambda;
  e0.src = in;
  e0.src_mode = 0;
  e0.src_wg_width = kWgMulti;
  e0.targets = {{out1, 0, Goal::Maximize, 1.0}, {out2, 0, Goal::Minimize, 0.5}};

  ExcSpec e1;
  e1.name = "mode1";
  e1.lambda = o.lambda;
  e1.src = in;
  e1.src_mode = 1;
  e1.src_wg_width = kWgMulti;
  e1.targets = {{out2, 0, Goal::Maximize, 1.0}, {out1, 0, Goal::Minimize, 0.5}};

  return finalize(lay, "mdm", s, {e0, e1});
}

DeviceProblem build_tos(const Layout& lay, const BuildOptions& o) {
  Structure s(lay.spec, kEpsClad);
  s.add_waveguide_x(kCenter, kWgSingle, 0.0, kBoxLo);        // west feed
  s.add_waveguide_x(kCenter, kWgSingle, kBoxHi, kDomain);    // east bar
  s.add_waveguide_y(kCenter, kWgSingle, 0.0, kBoxLo);        // south cross

  // --- Thermal state: heater strip north of the design region. The heater
  // power is normalized so the peak design-region temperature rise equals
  // tos_delta_T (a deliberately strong drive so the 6.4 um domain can switch;
  // real TOS devices integrate the phase over much longer arms).
  heat::HeatProblem hp;
  hp.spec = lay.spec;
  hp.kappa = RealGrid(lay.spec.nx, lay.spec.ny, heat::kKappaSilica);
  const grid::BoxRegion heater{lay.at(kBoxLo), lay.at(4.6), lay.at(kBoxHi) - lay.at(kBoxLo),
                               lay.at(5.0) - lay.at(4.6)};
  hp.power = heat::heater_power_map(lay.spec, heater, 1.0);
  RealGrid T = heat::solve_steady_heat(hp);
  double t_peak = 0.0;
  const grid::BoxRegion box{lay.at(kBoxLo), lay.at(kBoxLo),
                            lay.at(kBoxHi) - lay.at(kBoxLo),
                            lay.at(kBoxHi) - lay.at(kBoxLo)};
  for (index_t j = box.j0; j < box.j0 + box.nj; ++j) {
    for (index_t i = box.i0; i < box.i0 + box.ni; ++i) {
      t_peak = std::max(t_peak, T(i, j));
    }
  }
  maps::require(t_peak > 0.0, "build_tos: heater produced no temperature rise");
  const double t_scale = o.tos_delta_T / t_peak;

  // Thermo-optic permittivity shift applied inside the design region.
  RealGrid delta(lay.spec.nx, lay.spec.ny, 0.0);
  for (index_t j = box.j0; j < box.j0 + box.nj; ++j) {
    for (index_t i = box.i0; i < box.i0 + box.ni; ++i) {
      const double dT = T(i, j) * t_scale;
      delta(i, j) = 2.0 * grid::kSilicon.n * grid::kSilicon.dn_dT * dT;
    }
  }

  auto in = x_port(lay, kPortIn, kCenter, kPortHalfSpan, +1, "in_w");
  auto bar = x_port(lay, kPortOut, kCenter, kPortHalfSpan, +1, "out_bar");
  auto cross = y_port(lay, kDomain - kPortOut, kCenter, kPortHalfSpan, -1, "out_cross");

  ExcSpec cold;
  cold.name = "cold";
  cold.lambda = o.lambda;
  cold.src = in;
  cold.targets = {{bar, 0, Goal::Maximize, 1.0}, {cross, 0, Goal::Minimize, 0.5}};

  ExcSpec hot;
  hot.name = "hot";
  hot.lambda = o.lambda;
  hot.src = in;
  hot.delta_eps = delta;
  hot.targets = {{cross, 0, Goal::Maximize, 1.0}, {bar, 0, Goal::Minimize, 0.5}};

  return finalize(lay, "tos", s, {cold, hot});
}

}  // namespace

const char* device_name(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::Bend: return "bending";
    case DeviceKind::Crossing: return "crossing";
    case DeviceKind::OpticalDiode: return "optical_diode";
    case DeviceKind::Wdm: return "wdm";
    case DeviceKind::Mdm: return "mdm";
    case DeviceKind::Tos: return "tos";
  }
  return "?";
}

std::vector<DeviceKind> all_device_kinds() {
  return {DeviceKind::Bend, DeviceKind::Crossing, DeviceKind::OpticalDiode,
          DeviceKind::Wdm, DeviceKind::Mdm, DeviceKind::Tos};
}

DeviceProblem make_device(DeviceKind kind, const BuildOptions& options) {
  const Layout lay = make_layout(options.fidelity);
  switch (kind) {
    case DeviceKind::Bend: return build_bend(lay, options);
    case DeviceKind::Crossing: return build_crossing(lay, options);
    case DeviceKind::OpticalDiode: return build_diode(lay, options);
    case DeviceKind::Wdm: return build_wdm(lay, options);
    case DeviceKind::Mdm: return build_mdm(lay, options);
    case DeviceKind::Tos: return build_tos(lay, options);
  }
  throw MapsError("make_device: unknown kind");
}

bool device_symmetry(DeviceKind kind, param::SymmetryKind* out) {
  switch (kind) {
    case DeviceKind::Bend:
      *out = param::SymmetryKind::Diagonal;
      return true;
    case DeviceKind::Crossing:
      *out = param::SymmetryKind::C4;
      return true;
    case DeviceKind::OpticalDiode:
      *out = param::SymmetryKind::MirrorY;
      return true;
    default:
      return false;
  }
}

param::DesignPipeline make_default_pipeline(const DeviceProblem& device,
                                            DeviceKind kind,
                                            const PipelineOptions& options) {
  auto p = std::make_unique<param::DirectDensity>(device.design_map.box.ni,
                                                  device.design_map.box.nj);
  param::DesignPipeline pipe(std::move(p), device.design_map);
  pipe.add_transform(std::make_unique<param::BlurFilter>(options.blur_radius));
  param::SymmetryKind sym;
  if (device_symmetry(kind, &sym)) {
    pipe.add_transform(std::make_unique<param::Symmetrize>(sym));
  }
  pipe.add_transform(std::make_unique<param::TanhProject>(options.beta, options.eta));
  return pipe;
}

}  // namespace maps::devices
