#include "core/data/generator.hpp"

#include "fdfd/adjoint.hpp"
#include "math/interpolate.hpp"
#include "runtime/datagen.hpp"

namespace maps::data {

using maps::math::CplxGrid;
using maps::math::RealGrid;

namespace {

/// Metadata + inputs common to every solve of one (density, excitation).
SampleRecord record_shell(const devices::DeviceProblem& device, const RealGrid& density,
                          const RealGrid& base_eps, const devices::Excitation& exc,
                          std::uint64_t pattern_id, const std::string& strategy) {
  SampleRecord s;
  s.device = device.name;
  s.excitation = exc.name;
  s.strategy = strategy;
  s.pattern_id = pattern_id;
  s.pml_cells = device.sim_options.pml.ncells;
  s.dl = device.spec.dl;
  s.omega = exc.omega;
  s.design_box = device.design_map.box;
  s.density = density;
  s.input_norm = exc.input_norm;
  s.eps = device.excitation_eps(base_eps, exc);
  s.J = exc.J;
  return s;
}

/// Labels derived from a solved forward field + adjoint pair.
void finish_record(SampleRecord& s, const devices::Excitation& exc,
                   const std::vector<cplx>& W, CplxGrid Ez,
                   fdfd::AdjointResult adj) {
  s.Ez = std::move(Ez);
  for (const auto& term : exc.terms) {
    s.transmissions.push_back(fdfd::term_transmission(term, s.Ez));
  }
  s.fom = adj.fom;
  s.grad_eps = std::move(adj.grad_eps);
  s.adj_J = std::move(adj.adj_current);
  // lambda_fwd = W^{-1} lambda: the adjoint field in forward-run convention
  // (what a forward-field surrogate should predict for the adjoint query).
  s.lambda_fwd = CplxGrid(s.Ez.nx(), s.Ez.ny());
  for (index_t n = 0; n < s.lambda_fwd.size(); ++n) {
    s.lambda_fwd[n] = adj.lambda[n] / W[static_cast<std::size_t>(n)];
  }
  // Canonicalize the adjoint pair's magnitude to the forward source's. The
  // raw adjoint source is orders of magnitude weaker than J, which would
  // poison per-sample-normalized losses (tiny targets -> huge NMSE weight).
  // Maxwell's equations are linear, so scaling source and field together is
  // exact; consumers renormalize their adjoint queries the same way.
  double j_max = 0.0, adj_max = 0.0;
  for (index_t n = 0; n < s.J.size(); ++n) {
    j_max = std::max(j_max, std::abs(s.J[n]));
    adj_max = std::max(adj_max, std::abs(s.adj_J[n]));
  }
  if (adj_max > 1e-300 && j_max > 0.0) {
    s.adj_scale = j_max / adj_max;
    for (index_t n = 0; n < s.adj_J.size(); ++n) {
      s.adj_J[n] *= s.adj_scale;
      s.lambda_fwd[n] *= s.adj_scale;
    }
  }
}

}  // namespace

SampleRecord simulate_sample(const devices::DeviceProblem& device,
                             const RealGrid& density, std::size_t excitation_index,
                             std::uint64_t pattern_id, const std::string& strategy) {
  maps::require(excitation_index < device.excitations.size(),
                "simulate_sample: excitation index out of range");
  const auto& exc = device.excitations[excitation_index];
  const RealGrid base_eps = param::embed_density(device.design_map, density);
  SampleRecord s = record_shell(device, density, base_eps, exc, pattern_id, strategy);

  fdfd::Simulation sim(device.spec, s.eps, exc.omega, device.sim_options);
  CplxGrid Ez = sim.solve(exc.J);
  auto adj = fdfd::compute_adjoint(sim, Ez, exc.terms);
  finish_record(s, exc, sim.backend().W(), std::move(Ez), std::move(adj));
  return s;
}

std::vector<SampleRecord> simulate_pattern(const devices::DeviceProblem& device,
                                           const RealGrid& density,
                                           std::uint64_t pattern_id,
                                           const std::string& strategy,
                                           solver::SolverStats* work) {
  const RealGrid base_eps = param::embed_density(device.design_map, density);
  std::vector<SampleRecord> records(device.excitations.size());

  for (const auto& group : device.excitation_groups()) {
    // A group solved with adjoints bypasses the device cache, so its
    // throwaway backend's counters are exactly this group's work.
    auto gs = device.solve_excitation_group(base_eps, group, /*with_adjoint=*/true);
    if (work != nullptr) {
      const solver::SolverStats spent = gs.sim.backend().stats();
      work->factorizations += spent.factorizations;
      work->solves += spent.solves;
      work->refine_iterations += spent.refine_iterations;
      work->refine_fallbacks += spent.refine_fallbacks;
    }
    const auto& W = gs.sim.backend().W();
    for (std::size_t k = 0; k < group.size(); ++k) {
      const auto& exc = device.excitations[group[k]];
      SampleRecord s =
          record_shell(device, density, base_eps, exc, pattern_id, strategy);
      finish_record(s, exc, W, std::move(gs.fields[k]), std::move(gs.adjoints[k]));
      records[group[k]] = std::move(s);
    }
  }
  return records;
}

Dataset generate_dataset(const devices::DeviceProblem& device,
                         const PatternSet& patterns) {
  maps::require(patterns.densities.size() == patterns.ids.size(),
                "generate_dataset: pattern/ids mismatch");
  runtime::DatagenPhase phase{&device, &patterns, 1};
  return runtime::generate_pipelined({phase}, device.name + ":" + patterns.strategy);
}

PatternSet upsample_patterns(const PatternSet& patterns,
                             const devices::DeviceProblem& device) {
  PatternSet out;
  out.strategy = patterns.strategy;
  out.ids = patterns.ids;
  for (const auto& rho : patterns.densities) {
    out.densities.push_back(maps::math::bilinear_resample(
        rho, device.design_map.box.ni, device.design_map.box.nj));
  }
  return out;
}

Dataset generate_multifidelity(const devices::DeviceProblem& device_lo,
                               const devices::DeviceProblem& device_hi,
                               const PatternSet& patterns) {
  // Upsample each design pattern onto the high-fidelity design grid.
  PatternSet hi_patterns = upsample_patterns(patterns, device_hi);
  const int factor = static_cast<int>(device_hi.spec.nx / device_lo.spec.nx);

  // Both fidelity levels ride one run: the first high-fidelity patterns
  // start while the last low-fidelity ones are still in flight.
  const std::vector<runtime::DatagenPhase> phases = {
      {&device_lo, &patterns, 1}, {&device_hi, &hi_patterns, factor}};
  Dataset ds = runtime::generate_pipelined(
      phases, device_lo.name + ":" + patterns.strategy + ":multifidelity");
  return ds;
}

}  // namespace maps::data
