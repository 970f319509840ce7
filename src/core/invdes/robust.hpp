// Variation-aware (corner-robust) inverse design (Sec. III-C.3).
//
// Each lithography corner gets its own pipeline (same theta, different
// defocus/dose transform); the robust objective is a weighted sum or the
// soft worst case across corners. After optimization, evaluate_corners gives
// the post-fab transmission at every corner — the quantity the robustness
// ablation reports.
#pragma once

#include "core/invdes/engine.hpp"
#include "devices/builders.hpp"
#include "param/litho.hpp"

namespace maps::invdes {

struct RobustOptions {
  InvDesOptions base;
  param::LithoSpec litho;
  bool worst_case = false;    // false: mean across corners; true: soft-min
  double softmin_tau = 0.05;  // temperature of the soft worst-case
};

struct CornerReport {
  param::LithoCorner corner;
  double fom = 0.0;
  std::vector<double> transmissions;
  int factorizations = 0;  // solver work of this corner's evaluation
  int solves = 0;
};

struct RobustResult {
  std::vector<double> theta;
  double robust_fom = 0.0;
  std::vector<CornerReport> corners;
  std::vector<double> history;  // robust FoM per iteration
  /// Solver work of the whole run: every iteration's corner evaluations and
  /// the closing corner report.
  int total_factorizations = 0;
  int total_solves = 0;
};

/// The design pipeline of one lithography corner: direct density -> blur ->
/// (the device's symmetry) -> `litho` pattern transfer at `corner`. Robust
/// inverse design and the served corners sweep both evaluate through it.
param::DesignPipeline make_corner_pipeline(const devices::DeviceProblem& device,
                                           devices::DeviceKind kind,
                                           const param::LithoSpec& litho,
                                           param::LithoCorner corner);

class RobustInverseDesigner {
 public:
  RobustInverseDesigner(const devices::DeviceProblem& device, devices::DeviceKind kind,
                        RobustOptions options);

  RobustResult run(std::vector<double> theta0, GradientProvider& provider);
  RobustResult run(std::vector<double> theta0);

  /// Corner-by-corner evaluation of a fixed theta (no optimization).
  std::vector<CornerReport> evaluate_corners(const std::vector<double>& theta,
                                             GradientProvider& provider);

 private:
  const devices::DeviceProblem& device_;
  devices::DeviceKind kind_;
  RobustOptions options_;
};

}  // namespace maps::invdes
