// Dataset generation driver: pattern -> FDFD forward + adjoint -> rich
// labels, with multi-fidelity pairing (Sec. III-A.3: the same physical
// pattern simulated at both resolutions).
//
// generate_dataset / generate_multifidelity ride the async pipeline in
// src/runtime/datagen.hpp (stage-parallel prep -> solve -> collect, with the
// LDL^T prepared-operator fast path for direct solves). The seed
// per-pattern parallel_for implementation is preserved as
// generate_dataset_reference for equivalence tests and as the baseline of
// bench_datagen_throughput.
#pragma once

#include <memory>

#include "core/data/dataset.hpp"
#include "core/data/sampler.hpp"
#include "devices/builders.hpp"

namespace maps::data {

/// Simulate every (pattern, excitation) pair of a device. Labels include the
/// forward field, adjoint pair, adjoint gradient and transmissions.
Dataset generate_dataset(const devices::DeviceProblem& device,
                         const PatternSet& patterns);

/// The seed implementation (blocking parallel_for over simulate_pattern on
/// the same LDL^T direct solver): kept as the regression baseline
/// the pipelined path is benchmarked against. Labels agree with
/// generate_dataset to rounding (~1e-12 relative on fields).
Dataset generate_dataset_reference(const devices::DeviceProblem& device,
                                   const PatternSet& patterns);

/// ------------------------- pipeline stage units --------------------------
/// The runtime pipeline (src/runtime/datagen.cpp) splits a pattern's
/// simulation into two stages so factorization of pattern i+1 overlaps
/// back-substitution of pattern i.

/// Stage 1 output: the pattern rendered onto the device grid plus one
/// *factorized* solver backend per excitation group. Direct-solver devices
/// ride the LDL^T band-direct kernel, which is the default
/// DirectBandedBackend path (solver/direct.hpp).
struct PreparedPattern {
  std::size_t position = 0;   // index into the PatternSet
  std::uint64_t pattern_id = 0;
  maps::math::RealGrid density;
  maps::math::RealGrid base_eps;
  std::vector<std::vector<std::size_t>> groups;  // excitation index groups
  std::vector<std::shared_ptr<solver::SolverBackend>> group_backends;
};

PreparedPattern prepare_pattern(const devices::DeviceProblem& device,
                                const maps::math::RealGrid& density,
                                std::size_t position, std::uint64_t pattern_id);

/// Stage 2: batched forward + adjoint solves against the prepared backends
/// and label extraction; records in excitation order. Equivalent to
/// simulate_pattern modulo solver rounding.
std::vector<SampleRecord> solve_prepared(const devices::DeviceProblem& device,
                                         const PreparedPattern& prepared,
                                         const std::string& strategy);

/// Simulate one density through one excitation (exposed for tests and for
/// on-the-fly verification in the NN-in-the-loop case study).
SampleRecord simulate_sample(const devices::DeviceProblem& device,
                             const maps::math::RealGrid& density,
                             std::size_t excitation_index, std::uint64_t pattern_id,
                             const std::string& strategy);

/// Simulate one density through *every* excitation of the device (records in
/// excitation order). Excitations sharing an operator are pushed through one
/// batched multi-RHS forward solve and one batched transposed adjoint solve,
/// so a K-excitation device costs one factorization + 2K back-substitutions
/// instead of K factorizations.
std::vector<SampleRecord> simulate_pattern(const devices::DeviceProblem& device,
                                           const maps::math::RealGrid& density,
                                           std::uint64_t pattern_id,
                                           const std::string& strategy);

/// Multi-fidelity pairing: render each (coarse design-grid) pattern on both
/// the low- and high-fidelity device and simulate both. Samples share
/// pattern ids; `fidelity` distinguishes the levels.
Dataset generate_multifidelity(const devices::DeviceProblem& device_lo,
                               const devices::DeviceProblem& device_hi,
                               const PatternSet& patterns);

/// Bilinearly resample a pattern set onto `device`'s design grid (the
/// high-fidelity phase of a multi-fidelity run; ids and strategy carry over).
PatternSet upsample_patterns(const PatternSet& patterns,
                             const devices::DeviceProblem& device);

}  // namespace maps::data
