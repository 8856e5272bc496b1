// CART regression tree (variance-reduction splits, mean-value leaves).
//
// The paper fits a *classification* tree over the discrete action space
// (§3.2.2). The regression variant here supports two extensions the
// classifier cannot:
//  * an interpretable surrogate of the thermal dynamics model
//    (dyn::TreeDynamicsModel) — making the *whole* control stack, not just
//    the policy, auditable by an engineer;
//  * distilling continuous-valued targets (e.g. predicted reward-to-go)
//    when ablating label designs.
//
// Split semantics match the classifier (left takes x[feature] <= threshold,
// thresholds are midpoints between adjacent distinct values); the split
// objective is weighted child variance (equivalently, SSE reduction), the
// exact greedy criterion of CART for squared loss. Unlike the classifier,
// it sorts each node's rows per feature instead of presorting once: its
// running target sums are order-dependent floating point, so a different
// order among tied feature values would change the tree's bits.
#pragma once

#include <cstddef>
#include <vector>

#include "tree/cart.hpp"

namespace verihvac::tree {

struct RegressionConfig {
  /// 0 = unbounded.
  std::size_t max_depth = 0;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Minimum SSE decrease for a split to be accepted.
  double min_impurity_decrease = 0.0;
};

struct RegressionNode {
  int feature = -1;        ///< split feature (-1 for leaves)
  double threshold = 0.0;  ///< x <= t goes left
  int left = -1;
  int right = -1;
  double value = 0.0;      ///< mean target (leaves; kept for internals too)
  std::size_t samples = 0;
  double impurity = 0.0;   ///< node MSE around `value`
  int parent = -1;

  bool is_leaf() const { return feature < 0; }
};

class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(RegressionConfig config = {});

  /// Fits on rows `x` with continuous targets `y`.
  void fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  bool fitted() const { return !nodes_.empty(); }
  std::size_t num_features() const { return num_features_; }

  double predict(const std::vector<double>& x) const;
  /// Index of the leaf that handles `x`.
  int decision_leaf(const std::vector<double>& x) const;

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const;
  const RegressionNode& node(std::size_t i) const { return nodes_.at(i); }
  const std::vector<RegressionNode>& nodes() const { return nodes_; }
  std::vector<int> leaves() const;
  /// The axis-aligned input box handled by `leaf` (Algorithm 1 surface,
  /// shared with the classifier so interval reachability can use either).
  Box leaf_box(int leaf) const;

  /// Mean squared error on a labelled set (sanity checks / tests).
  double mse(const std::vector<std::vector<double>>& x, const std::vector<double>& y) const;

  /// Interval image: the set of leaf values reachable from inputs in `box`
  /// — the exact output range of the piecewise-constant function on the
  /// box, used for sound one-step reachability through tree dynamics.
  Interval value_range(const Box& box) const;

 private:
  struct BuildContext;
  int build_node(BuildContext& ctx, std::vector<std::size_t>& indices, std::size_t depth,
                 int parent);

  RegressionConfig config_;
  std::vector<RegressionNode> nodes_;
  std::size_t num_features_ = 0;
};

}  // namespace verihvac::tree
