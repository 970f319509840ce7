#include "solver/backend.hpp"

#include <cstdlib>

#include "solver/coarse.hpp"
#include "solver/direct.hpp"
#include "solver/iterative.hpp"

namespace maps::solver {

const char* solver_kind_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::Direct: return "direct";
    case SolverKind::Iterative: return "iterative";
    case SolverKind::CoarseGrid: return "coarse_grid";
  }
  return "unknown";
}

const char* fidelity_name(FidelityLevel level) {
  switch (level) {
    case FidelityLevel::Low: return "low";
    case FidelityLevel::Medium: return "medium";
    case FidelityLevel::High: return "high";
  }
  return "unknown";
}

FidelityLevel fidelity_from_name(const std::string& name) {
  if (name == "low") return FidelityLevel::Low;
  if (name == "medium") return FidelityLevel::Medium;
  if (name == "high") return FidelityLevel::High;
  throw MapsError("fidelity must be low | medium | high, got '" + name + "'");
}

const char* solver_precision_name(SolverPrecision precision) {
  switch (precision) {
    case SolverPrecision::Double: return "double";
    case SolverPrecision::Mixed: return "mixed";
  }
  return "unknown";
}

SolverPrecision solver_precision_from_name(const std::string& name) {
  if (name == "double") return SolverPrecision::Double;
  if (name == "mixed") return SolverPrecision::Mixed;
  throw MapsError("solver_precision must be double | mixed, got '" + name + "'");
}

SolverPrecision default_solver_precision() {
  const char* env = std::getenv("MAPS_SOLVER_PRECISION");
  if (env != nullptr && std::string(env) == "mixed") return SolverPrecision::Mixed;
  return SolverPrecision::Double;
}

SolverKind solver_kind_for(FidelityLevel level) {
  switch (level) {
    case FidelityLevel::Low: return SolverKind::CoarseGrid;
    case FidelityLevel::Medium: return SolverKind::Iterative;
    case FidelityLevel::High: return SolverKind::Direct;
  }
  return SolverKind::Direct;
}

SolverConfig SolverConfig::for_fidelity(FidelityLevel level) {
  SolverConfig cfg;
  cfg.kind = solver_kind_for(level);
  if (level == FidelityLevel::Medium) {
    // Medium trades residual accuracy for never paying a factorization.
    cfg.iterative.rtol = 1e-6;
  }
  return cfg;
}

std::vector<std::vector<cplx>> SolverBackend::solve_batch(
    std::span<const std::vector<cplx>> rhs) {
  std::vector<std::vector<cplx>> out;
  out.reserve(rhs.size());
  for (const auto& b : rhs) out.push_back(solve(b));
  return out;
}

std::vector<std::vector<cplx>> SolverBackend::solve_transposed_batch(
    std::span<const std::vector<cplx>> rhs) {
  std::vector<std::vector<cplx>> out;
  out.reserve(rhs.size());
  for (const auto& b : rhs) out.push_back(solve_transposed(b));
  return out;
}

std::unique_ptr<SolverBackend> make_backend(const grid::GridSpec& spec,
                                            const maps::math::RealGrid& eps,
                                            double omega, const fdfd::PmlSpec& pml,
                                            const SolverConfig& config) {
  switch (config.kind) {
    case SolverKind::Direct:
      return std::make_unique<DirectBandedBackend>(spec, eps, omega, pml,
                                                   config.precision, config.refinement);
    case SolverKind::Iterative:
      return std::make_unique<IterativeBackend>(spec, eps, omega, pml, config.iterative);
    case SolverKind::CoarseGrid:
      return std::make_unique<CoarseGridBackend>(spec, eps, omega, pml,
                                                 config.coarse_factor, config.precision,
                                                 config.refinement);
  }
  throw MapsError("make_backend: unknown solver kind");
}

}  // namespace maps::solver
