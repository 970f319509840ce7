// Initialization library (Sec. III-C.1): predefined starting points for the
// design variables — uniform gray, random, and a transmission-encouraging
// seed that rasterizes waveguide paths between the source port and every
// maximize-target port.
#pragma once

#include <string>
#include <vector>

#include "devices/device.hpp"
#include "math/rng.hpp"

namespace maps::invdes {

enum class InitKind { Gray, Random, PathSeed };

const char* init_name(InitKind kind);
/// Inverse of init_name; throws MapsError on any other spelling.
InitKind init_kind_from_name(const std::string& name);

/// theta for a DirectDensity parameterization over the device's design box.
std::vector<double> make_initial_theta(const devices::DeviceProblem& device,
                                       InitKind kind, unsigned seed = 7);

}  // namespace maps::invdes
