// DeviceProblem: a fully-resolved inverse-design benchmark instance.
//
// Excitations are the simulation configurations a device is scored under
// (WDM: one per wavelength; MDM: one per input mode; optical diode: forward
// and backward launches; TOS: hot and cold thermal states). Each excitation
// carries its prepared current source, optional permittivity perturbation,
// and normalized FoM terms. The total device FoM is the weighted sum across
// excitations — exactly the multi-objective structure of MAPS-InvDes.
#pragma once

#include <string>
#include <vector>

#include "fdfd/adjoint.hpp"
#include "fdfd/objective.hpp"
#include "fdfd/port.hpp"
#include "fdfd/simulation.hpp"
#include "param/pipeline.hpp"

namespace maps::devices {

struct Excitation {
  std::string name;
  double omega = 0.0;
  maps::math::CplxGrid J;          // prepared (directional mode) source
  maps::math::RealGrid delta_eps;  // additive eps perturbation; empty = none
  std::vector<fdfd::FomTerm> terms;
  double weight = 1.0;
  fdfd::Port source_port;
  int source_mode = 0;
  double input_norm = 1.0;  // |a_in|^2 measured in the normalization run

  bool has_delta() const { return delta_eps.size() > 0; }
};

/// Per-excitation evaluation detail.
struct ExcitationResult {
  double objective = 0.0;                  // signed weighted sum of terms
  std::vector<double> transmissions;       // unsigned T per term
  maps::math::CplxGrid Ez;
};

struct DeviceEval {
  double fom = 0.0;  // sum over excitations of weight * objective
  std::vector<ExcitationResult> per_excitation;
  int factorizations = 0;  // factorizations this evaluation performed
  int solves = 0;          // linear solves this evaluation performed
};

class DeviceProblem {
 public:
  std::string name;
  grid::GridSpec spec;
  fdfd::SimOptions sim_options;
  param::DesignMap design_map;      // base_eps rendered from the static geometry
  std::vector<Excitation> excitations;
  /// Shared factorization cache for forward-only evaluate() calls: corner
  /// and S-parameter sweeps and repeated evaluations of one eps reuse the
  /// prepared backend instead of re-factorizing. Solves with adjoints
  /// bypass it (solve_excitation_group).
  std::shared_ptr<solver::FactorizationCache> solver_cache;

  /// sim_options with the device cache attached (the options evaluate()
  /// passes to Simulation).
  fdfd::SimOptions cached_sim_options() const;

  /// Permittivity actually simulated for an excitation (adds delta_eps).
  maps::math::RealGrid excitation_eps(const maps::math::RealGrid& eps,
                                      const Excitation& exc) const;

  /// Excitation indices grouped by shared operator: excitations with the
  /// same omega and no per-excitation eps perturbation can share one
  /// factorization and ride one multi-RHS batch.
  std::vector<std::vector<std::size_t>> excitation_groups() const;

  /// One operator group solved end-to-end: batched forward fields (aligned
  /// with the group's index order), optionally batched adjoints, and the
  /// solver work the group cost. The Simulation member keeps the backend —
  /// and with it op()/W — alive for consumers of the fields. A forward-only
  /// group goes through the device cache. A group solved with adjoints (a
  /// gradient step, a datagen label) bypasses it: such an eps is never
  /// visited again, so its factorization could not hit and would only stay
  /// resident.
  struct GroupSolution {
    fdfd::Simulation sim;
    std::vector<maps::math::CplxGrid> fields;
    std::vector<fdfd::AdjointResult> adjoints;  // empty unless requested
    int factorizations = 0;
    int solves = 0;
  };
  GroupSolution solve_excitation_group(const maps::math::RealGrid& base_eps,
                                       const std::vector<std::size_t>& group,
                                       bool with_adjoint) const;

  /// Forward-evaluate a candidate permittivity map across all excitations.
  /// Excitations sharing one operator (same omega, no per-excitation eps
  /// perturbation) are solved as one multi-RHS batch.
  DeviceEval evaluate(const maps::math::RealGrid& eps) const;

  /// FoM and total dF/deps via forward+adjoint per excitation; forward and
  /// adjoint share one backend per operator, batched per group.
  struct GradEval {
    double fom = 0.0;
    maps::math::RealGrid grad_eps;
    std::vector<ExcitationResult> per_excitation;
    int factorizations = 0;
    int solves = 0;
  };
  GradEval evaluate_with_gradient(const maps::math::RealGrid& eps) const;

  /// The design region rendered as all-cladding (density 0) map.
  maps::math::RealGrid blank_eps() const;
};

}  // namespace maps::devices
