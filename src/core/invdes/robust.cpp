#include "core/invdes/robust.hpp"

#include <algorithm>
#include <cmath>

#include "nn/optim.hpp"
#include "param/blur.hpp"

namespace maps::invdes {

using maps::math::RealGrid;
using param::LithoCorner;

RobustInverseDesigner::RobustInverseDesigner(const devices::DeviceProblem& device,
                                             devices::DeviceKind kind,
                                             RobustOptions options)
    : device_(device), kind_(kind), options_(std::move(options)) {}

param::DesignPipeline make_corner_pipeline(const devices::DeviceProblem& device,
                                           devices::DeviceKind kind,
                                           const param::LithoSpec& litho,
                                           LithoCorner corner) {
  auto p = std::make_unique<param::DirectDensity>(device.design_map.box.ni,
                                                  device.design_map.box.nj);
  param::DesignPipeline pipe(std::move(p), device.design_map);
  pipe.add_transform(std::make_unique<param::BlurFilter>(1.5));
  param::SymmetryKind sym;
  if (devices::device_symmetry(kind, &sym)) {
    pipe.add_transform(std::make_unique<param::Symmetrize>(sym));
  }
  pipe.add_transform(std::make_unique<param::LithoModel>(litho, corner));
  return pipe;
}

std::vector<CornerReport> RobustInverseDesigner::evaluate_corners(
    const std::vector<double>& theta, GradientProvider& provider) {
  std::vector<CornerReport> reports;
  for (LithoCorner corner : param::LithoModel::corners()) {
    param::DesignPipeline pipe =
        make_corner_pipeline(device_, kind_, options_.litho, corner);
    const RealGrid eps = pipe.eps_of(theta);
    GradEval ge = provider.evaluate(eps);
    reports.push_back({corner, ge.fom, ge.transmissions, ge.factorizations, ge.solves});
  }
  return reports;
}

RobustResult RobustInverseDesigner::run(std::vector<double> theta0,
                                        GradientProvider& provider) {
  const auto corners = param::LithoModel::corners();
  std::vector<param::DesignPipeline> pipes;
  pipes.reserve(corners.size());
  for (LithoCorner c : corners) {
    pipes.push_back(make_corner_pipeline(device_, kind_, options_.litho, c));
  }

  maps::require(static_cast<int>(theta0.size()) == pipes[0].num_params(),
                "RobustInverseDesigner: theta0 size mismatch");
  std::vector<double> theta = std::move(theta0);
  pipes[0].feasible(theta);

  maps::nn::AdamOptions adam_opt;
  adam_opt.lr = options_.base.lr;
  maps::nn::AdamVector adam(theta.size(), adam_opt);

  RobustResult res;
  const int iters = options_.base.iterations;
  for (int it = 0; it < iters; ++it) {
    // Per-corner FoM and theta-gradient.
    std::vector<double> foms(corners.size());
    std::vector<std::vector<double>> grads(corners.size());
    for (std::size_t c = 0; c < corners.size(); ++c) {
      const RealGrid eps = pipes[c].eps_of(theta);
      GradEval ge = provider.evaluate(eps);
      foms[c] = ge.fom;
      grads[c] = pipes[c].backward(ge.grad_eps);
      res.total_factorizations += ge.factorizations;
      res.total_solves += ge.solves;
    }

    // Robust aggregate: mean or soft worst-case (softmin weights).
    std::vector<double> w(corners.size(), 1.0 / static_cast<double>(corners.size()));
    double robust_fom = 0.0;
    if (options_.worst_case) {
      double wsum = 0.0;
      for (std::size_t c = 0; c < corners.size(); ++c) {
        w[c] = std::exp(-foms[c] / options_.softmin_tau);
        wsum += w[c];
      }
      for (auto& v : w) v /= wsum;
      for (std::size_t c = 0; c < corners.size(); ++c) robust_fom += w[c] * foms[c];
    } else {
      for (std::size_t c = 0; c < corners.size(); ++c) robust_fom += w[c] * foms[c];
    }

    std::vector<double> grad(theta.size(), 0.0);
    for (std::size_t c = 0; c < corners.size(); ++c) {
      for (std::size_t i = 0; i < grad.size(); ++i) grad[i] += w[c] * grads[c][i];
    }

    res.history.push_back(robust_fom);
    adam.step(theta, grad, /*maximize=*/true);
    pipes[0].feasible(theta);
  }

  res.theta = theta;
  res.corners = evaluate_corners(theta, provider);
  double agg = 0.0;
  for (const auto& rep : res.corners) {
    agg = options_.worst_case ? std::min(agg == 0.0 ? rep.fom : agg, rep.fom)
                              : agg + rep.fom / static_cast<double>(res.corners.size());
    res.total_factorizations += rep.factorizations;
    res.total_solves += rep.solves;
  }
  res.robust_fom = agg;
  return res;
}

RobustResult RobustInverseDesigner::run(std::vector<double> theta0) {
  NumericalProvider provider(device_);
  return run(std::move(theta0), provider);
}

}  // namespace maps::invdes
