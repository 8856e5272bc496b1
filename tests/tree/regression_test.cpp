#include "tree/regression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace verihvac::tree {
namespace {

TEST(RegressionTest, FitRejectsBadInputs) {
  DecisionTreeRegressor tree;
  EXPECT_THROW(tree.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {0.5, 1.0}), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  // Ragged rows, zero-width rows and non-finite features are typed errors.
  EXPECT_THROW(tree.fit({{1.0, 2.0}, {3.0}}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}, {2.0, 3.0}}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(tree.fit({{}, {}}, {0.0, 1.0}), std::invalid_argument);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(tree.fit({{1.0, 0.0}, {2.0, bad}}, {0.0, 1.0}), std::invalid_argument);
  }
  EXPECT_FALSE(tree.fitted());
}

TEST(RegressionTest, AdjacentDoublesSplitIntoNonEmptyChildren) {
  // The rounded midpoint of adjacent doubles a < b equals b; the threshold
  // must fall back to a so that `x <= threshold` separates the two values.
  const double a = std::nextafter(1.0, 2.0);
  const double b = std::nextafter(a, 2.0);
  ASSERT_EQ(0.5 * (a + b), b);
  const std::vector<std::vector<double>> x = {{a}, {a}, {b}, {b}};
  const std::vector<double> y = {-1.0, -1.0, 4.0, 4.0};
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  ASSERT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.node(0).threshold, a);
  EXPECT_EQ(tree.node(static_cast<std::size_t>(tree.node(0).left)).samples, 2u);
  EXPECT_EQ(tree.node(static_cast<std::size_t>(tree.node(0).right)).samples, 2u);
  EXPECT_EQ(tree.mse(x, y), 0.0);
  for (const auto& point : x) {
    EXPECT_TRUE(tree.leaf_box(tree.decision_leaf(point)).contains(point));
  }
}

TEST(RegressionTest, PredictBeforeFitThrows) {
  DecisionTreeRegressor tree;
  EXPECT_THROW(tree.predict({1.0}), std::logic_error);
}

TEST(RegressionTest, ConstantTargetsYieldSingleLeafMean) {
  DecisionTreeRegressor tree;
  tree.fit({{1.0}, {5.0}, {9.0}}, {2.5, 2.5, 2.5});
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({100.0}), 2.5);
}

TEST(RegressionTest, LearnsStepFunctionExactly) {
  DecisionTreeRegressor tree;
  tree.fit({{1.0}, {2.0}, {8.0}, {9.0}}, {-1.0, -1.0, 4.0, 4.0});
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_DOUBLE_EQ(tree.predict({0.0}), -1.0);
  EXPECT_DOUBLE_EQ(tree.predict({10.0}), 4.0);
  EXPECT_DOUBLE_EQ(tree.node(0).threshold, 5.0);
}

TEST(RegressionTest, InterpolatesTrainingDataWithUnboundedDepth) {
  // Distinct inputs + unbounded depth => every training point gets its own
  // leaf, so train MSE is zero.
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    x.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    y.push_back(rng.uniform(-5.0, 5.0));
  }
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  EXPECT_NEAR(tree.mse(x, y), 0.0, 1e-18);
  EXPECT_EQ(tree.leaf_count(), x.size());
}

TEST(RegressionTest, DepthCapIsRespected) {
  Rng rng(4);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0.0, 1.0)});
    y.push_back(std::sin(6.28 * x.back()[0]));
  }
  RegressionConfig cfg;
  cfg.max_depth = 3;
  DecisionTreeRegressor tree(cfg);
  tree.fit(x, y);
  EXPECT_LE(tree.depth(), 3u);
  EXPECT_LE(tree.leaf_count(), 8u);
}

TEST(RegressionTest, MinSamplesLeafIsRespected) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 150; ++i) {
    x.push_back({rng.uniform(0.0, 1.0)});
    y.push_back(rng.uniform(0.0, 1.0));
  }
  RegressionConfig cfg;
  cfg.min_samples_leaf = 10;
  DecisionTreeRegressor tree(cfg);
  tree.fit(x, y);
  for (int leaf : tree.leaves()) {
    EXPECT_GE(tree.node(static_cast<std::size_t>(leaf)).samples, 10u);
  }
}

TEST(RegressionTest, DeeperTreesReduceApproximationError) {
  Rng rng(6);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    x.push_back({v});
    y.push_back(v * v);  // smooth target
  }
  double prev_mse = std::numeric_limits<double>::infinity();
  for (std::size_t depth : {1u, 3u, 6u}) {
    RegressionConfig cfg;
    cfg.max_depth = depth;
    DecisionTreeRegressor tree(cfg);
    tree.fit(x, y);
    const double now = tree.mse(x, y);
    EXPECT_LT(now, prev_mse) << "depth " << depth;
    prev_mse = now;
  }
}

TEST(RegressionTest, SplitsIgnoreConstantFeatures) {
  // Feature 1 is constant; every split must use feature 0.
  DecisionTreeRegressor tree;
  tree.fit({{1.0, 7.0}, {2.0, 7.0}, {3.0, 7.0}, {4.0, 7.0}}, {0.0, 0.0, 1.0, 1.0});
  for (const auto& node : tree.nodes()) {
    if (!node.is_leaf()) EXPECT_EQ(node.feature, 0);
  }
}

TEST(RegressionTest, LeafBoxContainsItsTrainingRegion) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    x.push_back({rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)});
    y.push_back(x.back()[0] > 0 ? 1.0 : -1.0);
  }
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  for (const auto& point : x) {
    const int leaf = tree.decision_leaf(point);
    EXPECT_TRUE(tree.leaf_box(leaf).contains(point));
  }
}

TEST(RegressionTest, ValueRangeOnFullSpaceSpansAllLeafValues) {
  DecisionTreeRegressor tree;
  tree.fit({{1.0}, {2.0}, {8.0}, {9.0}}, {-1.0, -1.0, 4.0, 4.0});
  const Interval range = tree.value_range(Box(1));
  EXPECT_DOUBLE_EQ(range.lo, -1.0);
  EXPECT_DOUBLE_EQ(range.hi, 4.0);
}

TEST(RegressionTest, ValueRangeOnSingleLeafBoxIsDegenerate) {
  DecisionTreeRegressor tree;
  tree.fit({{1.0}, {2.0}, {8.0}, {9.0}}, {-1.0, -1.0, 4.0, 4.0});
  Box left(1);
  left.clip(0, Interval::bounded(0.0, 3.0));  // entirely on the low side
  const Interval range = tree.value_range(left);
  EXPECT_DOUBLE_EQ(range.lo, -1.0);
  EXPECT_DOUBLE_EQ(range.hi, -1.0);
}

TEST(RegressionTest, ValueRangeRejectsWrongDims) {
  DecisionTreeRegressor tree;
  tree.fit({{1.0}, {9.0}}, {0.0, 1.0});
  EXPECT_THROW(tree.value_range(Box(3)), std::invalid_argument);
}

// Soundness sweep: for random sub-boxes, every sampled prediction inside
// the box must land inside value_range(box) — value_range over-approximates
// nothing and under-approximates nothing attainable.
class ValueRangeSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValueRangeSoundness, SampledPredictionsLieWithinRange) {
  Rng rng(GetParam());
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 250; ++i) {
    x.push_back({rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
    y.push_back(std::sin(x.back()[0]) + 0.5 * x.back()[1] - 0.2 * x.back()[2]);
  }
  DecisionTreeRegressor tree;
  tree.fit(x, y);

  for (int trial = 0; trial < 20; ++trial) {
    Box box(3);
    for (std::size_t d = 0; d < 3; ++d) {
      const double a = rng.uniform(-10.0, 10.0);
      const double b = rng.uniform(-10.0, 10.0);
      box.clip(d, Interval::bounded(std::min(a, b), std::max(a, b)));
    }
    const Interval range = tree.value_range(box);
    for (int s = 0; s < 50; ++s) {
      std::vector<double> point(3);
      for (std::size_t d = 0; d < 3; ++d) point[d] = rng.uniform(box[d].lo, box[d].hi);
      const double value = tree.predict(point);
      EXPECT_GE(value, range.lo - 1e-12);
      EXPECT_LE(value, range.hi + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueRangeSoundness, ::testing::Values(11u, 29u, 47u, 83u));

}  // namespace
}  // namespace verihvac::tree
