// Dataset generation driver: pattern -> FDFD forward + adjoint -> rich
// labels, with multi-fidelity pairing (Sec. III-A.3: the same physical
// pattern simulated at both resolutions).
//
// simulate_pattern is the one per-pattern simulation path. generate_dataset
// and generate_multifidelity hand each pattern to it as one task of the
// runtime in src/runtime/datagen.hpp.
#pragma once

#include "core/data/dataset.hpp"
#include "core/data/sampler.hpp"
#include "devices/builders.hpp"

namespace maps::data {

/// Simulate every (pattern, excitation) pair of a device. Labels include the
/// forward field, adjoint pair, adjoint gradient and transmissions.
Dataset generate_dataset(const devices::DeviceProblem& device,
                         const PatternSet& patterns);

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
/// instead of K factorizations. Each group's factors are freed before the
/// call returns. `work`, when set, accumulates the solver work done.
std::vector<SampleRecord> simulate_pattern(const devices::DeviceProblem& device,
                                           const maps::math::RealGrid& density,
                                           std::uint64_t pattern_id,
                                           const std::string& strategy,
                                           solver::SolverStats* work = nullptr);

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
