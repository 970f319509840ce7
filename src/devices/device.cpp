#include "devices/device.hpp"

#include <map>

namespace maps::devices {

using maps::math::CplxGrid;
using maps::math::RealGrid;

namespace {

// Excitations that simulate the same operator (same omega, no per-excitation
// eps perturbation) form one group and share a Simulation + multi-RHS batch.
// Perturbed excitations (TOS hot state, corner deltas) get their own group.
std::vector<std::vector<std::size_t>> group_excitations(
    const std::vector<Excitation>& excitations) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<double, std::size_t> shared_by_omega;  // omega -> group index
  for (std::size_t e = 0; e < excitations.size(); ++e) {
    const auto& exc = excitations[e];
    if (exc.has_delta()) {
      groups.push_back({e});
      continue;
    }
    const auto it = shared_by_omega.find(exc.omega);
    if (it == shared_by_omega.end()) {
      shared_by_omega.emplace(exc.omega, groups.size());
      groups.push_back({e});
    } else {
      groups[it->second].push_back(e);
    }
  }
  return groups;
}

}  // namespace

std::vector<std::vector<std::size_t>> DeviceProblem::excitation_groups() const {
  return group_excitations(excitations);
}

fdfd::SimOptions DeviceProblem::cached_sim_options() const {
  fdfd::SimOptions opts = sim_options;
  opts.cache = solver_cache;
  return opts;
}

RealGrid DeviceProblem::excitation_eps(const RealGrid& eps, const Excitation& exc) const {
  if (!exc.has_delta()) return eps;
  maps::require(exc.delta_eps.same_shape(eps), "excitation_eps: delta shape mismatch");
  RealGrid out = eps;
  for (index_t n = 0; n < out.size(); ++n) out[n] += exc.delta_eps[n];
  return out;
}

DeviceProblem::GroupSolution DeviceProblem::solve_excitation_group(
    const RealGrid& base_eps, const std::vector<std::size_t>& group,
    bool with_adjoint) const {
  maps::require(!group.empty(), "solve_excitation_group: empty group");
  const auto& first = excitations[group.front()];
  GroupSolution gs{fdfd::Simulation(spec, excitation_eps(base_eps, first), first.omega,
                                    with_adjoint ? sim_options : cached_sim_options()),
                   {}, {}, 0, 0};
  const int f0 = gs.sim.factorization_count(), s0 = gs.sim.solve_count();

  std::vector<CplxGrid> Js;
  Js.reserve(group.size());
  for (const std::size_t e : group) Js.push_back(excitations[e].J);
  gs.fields = gs.sim.solve_batch(Js);

  if (with_adjoint) {
    // All adjoint systems of the group ride one transposed multi-RHS batch
    // against the factorization the forward batch just prepared.
    std::vector<const CplxGrid*> ez_ptrs;
    std::vector<const std::vector<fdfd::FomTerm>*> term_ptrs;
    for (std::size_t k = 0; k < group.size(); ++k) {
      ez_ptrs.push_back(&gs.fields[k]);
      term_ptrs.push_back(&excitations[group[k]].terms);
    }
    gs.adjoints = fdfd::compute_adjoint_batch(gs.sim.backend(), spec, first.omega,
                                              ez_ptrs, term_ptrs);
  }
  gs.factorizations = gs.sim.factorization_count() - f0;
  gs.solves = gs.sim.solve_count() - s0;
  return gs;
}

DeviceEval DeviceProblem::evaluate(const RealGrid& eps) const {
  DeviceEval ev;
  ev.per_excitation.resize(excitations.size());
  for (const auto& group : group_excitations(excitations)) {
    auto gs = solve_excitation_group(eps, group, /*with_adjoint=*/false);
    for (std::size_t k = 0; k < group.size(); ++k) {
      const auto& exc = excitations[group[k]];
      ExcitationResult r;
      r.Ez = std::move(gs.fields[k]);
      r.objective = fdfd::objective_value(exc.terms, r.Ez);
      for (const auto& t : exc.terms) {
        r.transmissions.push_back(fdfd::term_transmission(t, r.Ez));
      }
      ev.fom += exc.weight * r.objective;
      ev.per_excitation[group[k]] = std::move(r);
    }
    ev.factorizations += gs.factorizations;
    ev.solves += gs.solves;
  }
  return ev;
}

DeviceProblem::GradEval DeviceProblem::evaluate_with_gradient(const RealGrid& eps) const {
  GradEval ev;
  ev.grad_eps = RealGrid(spec.nx, spec.ny, 0.0);
  ev.per_excitation.resize(excitations.size());
  for (const auto& group : group_excitations(excitations)) {
    auto gs = solve_excitation_group(eps, group, /*with_adjoint=*/true);
    for (std::size_t k = 0; k < group.size(); ++k) {
      const auto& exc = excitations[group[k]];
      ExcitationResult r;
      r.Ez = std::move(gs.fields[k]);
      r.objective = fdfd::objective_value(exc.terms, r.Ez);
      for (const auto& t : exc.terms) {
        r.transmissions.push_back(fdfd::term_transmission(t, r.Ez));
      }
      for (index_t n = 0; n < ev.grad_eps.size(); ++n) {
        ev.grad_eps[n] += exc.weight * gs.adjoints[k].grad_eps[n];
      }
      ev.fom += exc.weight * r.objective;
      ev.per_excitation[group[k]] = std::move(r);
    }
    ev.factorizations += gs.factorizations;
    ev.solves += gs.solves;
  }
  return ev;
}

RealGrid DeviceProblem::blank_eps() const {
  return param::embed_density(design_map,
                              RealGrid(design_map.box.ni, design_map.box.nj, 0.0));
}

}  // namespace maps::devices
