// Corner-robust inverse design.
#include <gtest/gtest.h>

#include "core/invdes/init.hpp"
#include "core/invdes/robust.hpp"

namespace mi = maps::invdes;
namespace md = maps::devices;

TEST(Robust, CornerEvaluationCoversAllCorners) {
  const auto dev = md::make_device(md::DeviceKind::Bend);
  mi::RobustOptions opt;
  opt.base.iterations = 1;
  mi::RobustInverseDesigner designer(dev, md::DeviceKind::Bend, opt);
  mi::NumericalProvider provider(dev);
  const auto reports = designer.evaluate_corners(
      mi::make_initial_theta(dev, mi::InitKind::PathSeed), provider);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].corner, maps::param::LithoCorner::Nominal);
  for (const auto& rep : reports) {
    EXPECT_FALSE(rep.transmissions.empty());
  }
}

TEST(Robust, CornersDifferForGrayDesign) {
  // A half-gray design is maximally sensitive to the dose threshold, so the
  // over/under corners must bracket nominal.
  const auto dev = md::make_device(md::DeviceKind::Bend);
  mi::RobustOptions opt;
  mi::RobustInverseDesigner designer(dev, md::DeviceKind::Bend, opt);
  mi::NumericalProvider provider(dev);
  const auto reports = designer.evaluate_corners(
      mi::make_initial_theta(dev, mi::InitKind::PathSeed), provider);
  // Not all three corners should coincide.
  EXPECT_GT(std::abs(reports[1].fom - reports[2].fom), 1e-4);
}

TEST(Robust, ShortRunImprovesRobustFom) {
  const auto dev = md::make_device(md::DeviceKind::Bend);
  mi::RobustOptions opt;
  opt.base.iterations = 10;
  opt.base.lr = 0.05;
  mi::RobustInverseDesigner designer(dev, md::DeviceKind::Bend, opt);
  auto res = designer.run(mi::make_initial_theta(dev, mi::InitKind::PathSeed));
  ASSERT_EQ(res.history.size(), 10u);
  EXPECT_GT(res.history.back(), res.history.front());
  ASSERT_EQ(res.corners.size(), 3u);
}

TEST(Robust, TotalsCountTheClosingCornerPass) {
  // Three corners per iteration, each one operator on the bend, plus the
  // closing corner report: 3 * 3 + 3 factorizations.
  const auto dev = md::make_device(md::DeviceKind::Bend);
  mi::RobustOptions opt;
  opt.base.iterations = 3;
  mi::RobustInverseDesigner designer(dev, md::DeviceKind::Bend, opt);
  const auto res = designer.run(mi::make_initial_theta(dev, mi::InitKind::PathSeed));
  EXPECT_EQ(res.total_factorizations, 12);
  EXPECT_EQ(res.total_solves, 24);  // a forward and an adjoint solve each
}

TEST(Robust, WorstCaseWeightingRuns) {
  const auto dev = md::make_device(md::DeviceKind::Bend);
  mi::RobustOptions opt;
  opt.base.iterations = 3;
  opt.worst_case = true;
  mi::RobustInverseDesigner designer(dev, md::DeviceKind::Bend, opt);
  auto res = designer.run(mi::make_initial_theta(dev, mi::InitKind::PathSeed));
  EXPECT_EQ(res.history.size(), 3u);
}
