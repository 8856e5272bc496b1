#include "tree/cart.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "tree/split.hpp"

namespace verihvac::tree {
namespace {

TEST(CartTest, FitRejectsBadInputs) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.fit({}, {}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {5}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}}, {-1}, 2), std::invalid_argument);
  // Ragged rows, zero-width rows and non-finite features are typed errors.
  EXPECT_THROW(tree.fit({{1.0, 2.0}, {3.0}}, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{1.0}, {2.0, 3.0}}, {0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(tree.fit({{}, {}}, {0, 1}, 2), std::invalid_argument);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(tree.fit({{1.0, 0.0}, {2.0, bad}}, {0, 1}, 2), std::invalid_argument);
  }
  EXPECT_FALSE(tree.fitted());
}

TEST(CartTest, AdjacentDoublesSplitIntoNonEmptyChildren) {
  // The rounded midpoint of adjacent doubles a < b equals b; the threshold
  // must fall back to a so that `x <= threshold` separates the two values.
  const double a = std::nextafter(1.0, 2.0);
  const double b = std::nextafter(a, 2.0);
  ASSERT_EQ(0.5 * (a + b), b);
  const std::vector<std::vector<double>> x = {{a}, {a}, {b}, {b}};
  const std::vector<int> y = {0, 0, 1, 1};
  DecisionTreeClassifier tree;
  tree.fit(x, y, 2);
  ASSERT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.node(0).threshold, a);
  EXPECT_EQ(tree.node(static_cast<std::size_t>(tree.node(0).left)).samples, 2u);
  EXPECT_EQ(tree.node(static_cast<std::size_t>(tree.node(0).right)).samples, 2u);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
  for (const auto& point : x) {
    EXPECT_TRUE(tree.leaf_box(tree.decision_leaf(point)).contains(point));
  }
}

TEST(CartTest, SplitThresholdStaysBetweenItsValues) {
  EXPECT_EQ(split_threshold(2.0, 8.0), 5.0);
  const double a = std::nextafter(1.0, 2.0);
  EXPECT_EQ(split_threshold(a, std::nextafter(a, 2.0)), a);
  // A midpoint that overflows also falls back to the lower value.
  const double big = std::numeric_limits<double>::max();
  EXPECT_EQ(split_threshold(big / 2 * 1.5, big), big / 2 * 1.5);
  EXPECT_EQ(split_threshold(-big, -big / 2 * 1.5), -big);
}

TEST(CartTest, PredictBeforeFitThrows) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.predict({1.0}), std::logic_error);
}

TEST(CartTest, SingleClassYieldsSingleLeaf) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {2.0}, {3.0}}, {1, 1, 1}, 3);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
  EXPECT_EQ(tree.predict({99.0}), 1);
}

TEST(CartTest, LearnsAxisAlignedSplit) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {2.0}, {8.0}, {9.0}}, {0, 0, 1, 1}, 2);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.predict({0.0}), 0);
  EXPECT_EQ(tree.predict({10.0}), 1);
  // Threshold is the midpoint between adjacent distinct values (2 and 8).
  EXPECT_DOUBLE_EQ(tree.node(0).threshold, 5.0);
}

TEST(CartTest, LearnsTwoDimensionalCheckerboardExactly) {
  // XOR-style pattern requires depth >= 2 and splits on both features.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (double a : {0.0, 1.0}) {
    for (double b : {0.0, 1.0}) {
      for (int rep = 0; rep < 3; ++rep) {
        x.push_back({a + rep * 0.01, b + rep * 0.01});
        y.push_back((a + b == 1.0) ? 1 : 0);
      }
    }
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 2);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(CartTest, PerfectTrainingAccuracyOnSeparableData) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    x.push_back({a, b});
    y.push_back(a > 0.5 ? (b > 0.3 ? 2 : 1) : 0);
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 3);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
}

TEST(CartTest, UnboundedDepthMemorizesNoisyLabels) {
  // With unbounded depth + min_samples_split=2 (the paper's settings), the
  // tree drives training error to zero even on noisy labels when inputs
  // are distinct.
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(5)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 5);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
}

TEST(CartTest, MaxDepthLimitsTree) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(2)));
  }
  TreeConfig cfg;
  cfg.max_depth = 3;
  DecisionTreeClassifier tree(cfg);
  tree.fit(x, y, 2);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(CartTest, MinSamplesLeafRespected) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(2)));
  }
  TreeConfig cfg;
  cfg.min_samples_leaf = 10;
  DecisionTreeClassifier tree(cfg);
  tree.fit(x, y, 2);
  for (int leaf : tree.leaves()) {
    EXPECT_GE(tree.node(static_cast<std::size_t>(leaf)).samples, 10u);
  }
}

TEST(CartTest, NodeCountIdentity) {
  // A binary tree always satisfies: nodes = 2 * leaves - 1.
  Rng rng(13);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(4)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 4);
  EXPECT_EQ(tree.node_count(), 2 * tree.leaf_count() - 1);
}

TEST(CartTest, DecisionLeafIsConsistentWithPredict) {
  Rng rng(15);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(3)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 3);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> q = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const int leaf = tree.decision_leaf(q);
    EXPECT_TRUE(tree.node(static_cast<std::size_t>(leaf)).is_leaf());
    EXPECT_EQ(tree.predict(q), tree.node(static_cast<std::size_t>(leaf)).label);
  }
}

TEST(CartTest, LeafBoxContainsItsTrainingPoints) {
  Rng rng(17);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    x.push_back({rng.uniform(0.0, 10.0), rng.uniform(-5.0, 5.0)});
    y.push_back(static_cast<int>(rng.index(3)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 3);
  // Every input lands in the leaf whose box contains it.
  for (const auto& point : x) {
    const int leaf = tree.decision_leaf(point);
    const Box box = tree.leaf_box(leaf);
    EXPECT_TRUE(box.contains(point));
  }
}

TEST(CartTest, LeafBoxesPartitionTheInputSpace) {
  // Any query point must be contained in exactly one leaf box.
  Rng rng(19);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(2)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 2);
  const auto leaves = tree.leaves();
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> q = {rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)};
    int containing = 0;
    for (int leaf : leaves) {
      if (tree.leaf_box(leaf).contains(q)) ++containing;
    }
    EXPECT_EQ(containing, 1) << "query (" << q[0] << ", " << q[1] << ")";
  }
}

TEST(CartTest, PathToLeafFollowsSplits) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {2.0}, {8.0}, {9.0}}, {0, 0, 1, 1}, 2);
  const auto leaves = tree.leaves();
  ASSERT_EQ(leaves.size(), 2u);
  for (int leaf : leaves) {
    const auto path = tree.path_to(leaf);
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0].node, 0);
    // Left leaf got "went_left", right leaf the opposite.
    const Box box = tree.leaf_box(leaf);
    if (path[0].went_left) {
      EXPECT_DOUBLE_EQ(box[0].hi, 5.0);
    } else {
      EXPECT_DOUBLE_EQ(box[0].lo, 5.0);
    }
  }
}

TEST(CartTest, PathToNonLeafThrows) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {9.0}}, {0, 1}, 2);
  EXPECT_THROW(tree.path_to(0), std::invalid_argument);  // root is internal
  EXPECT_THROW(tree.path_to(99), std::invalid_argument);
}

TEST(CartTest, SetLeafLabelEditsDecision) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {9.0}}, {0, 1}, 3);
  const int leaf = tree.decision_leaf({0.0});
  EXPECT_EQ(tree.predict({0.0}), 0);
  tree.set_leaf_label(leaf, 2);
  EXPECT_EQ(tree.predict({0.0}), 2);
  EXPECT_THROW(tree.set_leaf_label(leaf, 7), std::invalid_argument);
  EXPECT_THROW(tree.set_leaf_label(0, 1), std::invalid_argument);  // internal node
}

TEST(CartTest, FromNodesValidates) {
  DecisionTreeClassifier tree;
  tree.fit({{1.0}, {9.0}}, {0, 1}, 2);
  std::vector<TreeNode> nodes(tree.nodes().begin(), tree.nodes().end());
  EXPECT_NO_THROW(DecisionTreeClassifier::from_nodes(nodes, 1, 2));
  nodes[0].left = 99;
  EXPECT_THROW(DecisionTreeClassifier::from_nodes(nodes, 1, 2), std::invalid_argument);
}

/// Reference CART: per node, sort the rows by each feature and score every
/// candidate with a full per-class Gini recount. The library's presorted
/// sweep must grow exactly the same tree.
class ReferenceCart {
 public:
  ReferenceCart(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
                std::size_t num_classes, TreeConfig config)
      : x_(x), y_(y), num_classes_(num_classes), config_(config) {
    std::vector<std::size_t> rows(x.size());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    build(rows, 0, -1);
  }
  const std::vector<TreeNode>& nodes() const { return nodes_; }

 private:
  static double gini(const std::vector<double>& counts, double total) {
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += c * c;
    return 1.0 - sum_sq / (total * total);
  }

  int build(const std::vector<std::size_t>& rows, std::size_t depth, int parent) {
    std::vector<double> counts(num_classes_, 0.0);
    for (std::size_t row : rows) counts[static_cast<std::size_t>(y_[row])] += 1.0;
    const double total = static_cast<double>(rows.size());
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_.back().samples = rows.size();
    nodes_.back().impurity = gini(counts, total);
    nodes_.back().parent = parent;
    const double impurity = nodes_.back().impurity;
    if (impurity <= 0.0 || rows.size() < config_.min_samples_split ||
        (config_.max_depth > 0 && depth >= config_.max_depth)) {
      nodes_[id].label =
          static_cast<int>(std::max_element(counts.begin(), counts.end()) - counts.begin());
      return id;
    }
    double best_gain = -1.0;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::size_t> sorted = rows;
    for (std::size_t f = 0; f < x_.front().size(); ++f) {
      std::sort(sorted.begin(), sorted.end(),
                [&](std::size_t a, std::size_t b) { return x_[a][f] < x_[b][f]; });
      std::vector<double> left(num_classes_, 0.0);
      std::vector<double> right = counts;
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        left[static_cast<std::size_t>(y_[sorted[i]])] += 1.0;
        right[static_cast<std::size_t>(y_[sorted[i]])] -= 1.0;
        const double lo = x_[sorted[i]][f];
        const double hi = x_[sorted[i + 1]][f];
        const double n_left = static_cast<double>(i + 1);
        const double n_right = total - n_left;
        if (lo >= hi || n_left < static_cast<double>(config_.min_samples_leaf) ||
            n_right < static_cast<double>(config_.min_samples_leaf)) {
          continue;
        }
        const double gain =
            impurity - (n_left * gini(left, n_left) + n_right * gini(right, n_right)) / total;
        if (gain >= config_.min_impurity_decrease - 1e-12 && gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = split_threshold(lo, hi);
        }
      }
    }
    if (best_feature < 0) {
      nodes_[id].label =
          static_cast<int>(std::max_element(counts.begin(), counts.end()) - counts.begin());
      return id;
    }
    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    for (std::size_t row : rows) {
      (x_[row][static_cast<std::size_t>(best_feature)] <= best_threshold ? left_rows : right_rows)
          .push_back(row);
    }
    nodes_[id].feature = best_feature;
    nodes_[id].threshold = best_threshold;
    const int left_child = build(left_rows, depth + 1, id);
    nodes_[id].left = left_child;
    const int right_child = build(right_rows, depth + 1, id);
    nodes_[id].right = right_child;
    return id;
  }

  const std::vector<std::vector<double>>& x_;
  const std::vector<int>& y_;
  std::size_t num_classes_;
  TreeConfig config_;
  std::vector<TreeNode> nodes_;
};

void expect_same_nodes(const std::vector<TreeNode>& got, const std::vector<TreeNode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(got[i].feature, want[i].feature);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].threshold),
              std::bit_cast<std::uint64_t>(want[i].threshold));
    EXPECT_EQ(got[i].left, want[i].left);
    EXPECT_EQ(got[i].right, want[i].right);
    EXPECT_EQ(got[i].parent, want[i].parent);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].samples, want[i].samples);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].impurity),
              std::bit_cast<std::uint64_t>(want[i].impurity));
  }
}

TEST(CartTest, PresortedFitMatchesPerNodeSortReference) {
  // Heavy ties (features quantized to 0.5) over all 87 action classes; the
  // label depends on the features so the tree grows real structure.
  constexpr std::size_t kClasses = 87;
  Rng rng(21);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 1200; ++i) {
    std::vector<double> row;
    for (int f = 0; f < 5; ++f) row.push_back(0.5 * std::floor(rng.uniform(0.0, 12.0)));
    const auto signal = static_cast<std::size_t>(row[0] * 7.0 + row[2] * 3.0);
    y.push_back(static_cast<int>((signal + rng.index(9)) % kClasses));
    x.push_back(std::move(row));
  }
  for (std::size_t c = 0; c < kClasses; ++c) {
    x.push_back({0.5 * static_cast<double>(c % 12), 1.0, 2.0, 3.0, 4.0});
    y.push_back(static_cast<int>(c));
  }
  for (std::size_t min_leaf : {1u, 6u}) {
    for (std::size_t max_depth : {0u, 4u}) {
      SCOPED_TRACE("min_samples_leaf " + std::to_string(min_leaf) + ", max_depth " +
                   std::to_string(max_depth));
      TreeConfig cfg;
      cfg.min_samples_leaf = min_leaf;
      cfg.max_depth = max_depth;
      DecisionTreeClassifier tree(cfg);
      tree.fit(x, y, kClasses);
      EXPECT_GT(tree.node_count(), 1u);
      expect_same_nodes(tree.nodes(), ReferenceCart(x, y, kClasses, cfg).nodes());
    }
  }
}

TEST(CartTest, TreeIsInvariantToRowOrder) {
  Rng rng(23);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 600; ++i) {
    x.push_back({0.5 * std::floor(rng.uniform(0.0, 8.0)), 0.5 * std::floor(rng.uniform(0.0, 8.0)),
                 rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(87)));
  }
  std::vector<std::vector<double>> x_perm;
  std::vector<int> y_perm;
  for (std::size_t row : rng.permutation(x.size())) {
    x_perm.push_back(x[row]);
    y_perm.push_back(y[row]);
  }
  TreeConfig cfg;
  cfg.min_samples_leaf = 2;
  DecisionTreeClassifier tree(cfg);
  tree.fit(x, y, 87);
  DecisionTreeClassifier permuted(cfg);
  permuted.fit(x_perm, y_perm, 87);
  expect_same_nodes(permuted.nodes(), tree.nodes());
}

/// Parameterized agreement sweep: tree memorizes datasets of varying size.
class CartMemorizationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CartMemorizationTest, TrainAccuracyIsPerfect) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (std::size_t i = 0; i < n; ++i) {
    x.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                 rng.uniform(0.0, 1.0)});
    y.push_back(static_cast<int>(rng.index(6)));
  }
  DecisionTreeClassifier tree;
  tree.fit(x, y, 6);
  EXPECT_DOUBLE_EQ(tree.accuracy(x, y), 1.0);
  EXPECT_EQ(tree.node_count(), 2 * tree.leaf_count() - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CartMemorizationTest,
                         ::testing::Values(10, 50, 200, 800));

}  // namespace
}  // namespace verihvac::tree
