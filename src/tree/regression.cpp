#include "tree/regression.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tree/split.hpp"

namespace verihvac::tree {

DecisionTreeRegressor::DecisionTreeRegressor(RegressionConfig config) : config_(config) {}

struct DecisionTreeRegressor::BuildContext {
  const std::vector<std::vector<double>>* x;
  const std::vector<double>* y;
};

namespace {

/// Sum of squared errors around the mean, from first/second moments.
/// SSE = sum(y^2) - sum(y)^2 / n; clamped at zero against rounding.
double sse(double sum, double sum_sq, double n) {
  if (n <= 0.0) return 0.0;
  return std::max(0.0, sum_sq - sum * sum / n);
}

}  // namespace

void DecisionTreeRegressor::fit(const std::vector<std::vector<double>>& x,
                                const std::vector<double>& y) {
  if (x.empty() || x.size() != y.size()) {
    throw std::invalid_argument("DecisionTreeRegressor::fit: bad inputs");
  }
  for (double target : y) {
    if (!std::isfinite(target)) {
      throw std::invalid_argument("DecisionTreeRegressor::fit: non-finite target");
    }
  }
  check_feature_rows(x, "DecisionTreeRegressor::fit");
  nodes_.clear();
  num_features_ = x.front().size();

  BuildContext ctx;
  ctx.x = &x;
  ctx.y = &y;
  std::vector<std::size_t> indices(x.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  build_node(ctx, indices, 0, -1);
}

int DecisionTreeRegressor::build_node(BuildContext& ctx, std::vector<std::size_t>& indices,
                                      std::size_t depth, int parent) {
  const auto& x = *ctx.x;
  const auto& y = *ctx.y;

  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t idx : indices) {
    sum += y[idx];
    sum_sq += y[idx] * y[idx];
  }
  const double total = static_cast<double>(indices.size());
  const double node_sse = sse(sum, sum_sq, total);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].samples = indices.size();
  nodes_[node_index].value = sum / total;
  nodes_[node_index].impurity = node_sse / total;  // MSE
  nodes_[node_index].parent = parent;

  // Stopping rules: (numerically) pure node, too few samples, depth cap.
  if (node_sse <= 1e-12 * total || indices.size() < config_.min_samples_split ||
      (config_.max_depth > 0 && depth >= config_.max_depth)) {
    return node_index;
  }

  // Exact greedy split search: for each feature, sweep sorted samples and
  // track left/right first and second moments incrementally, so each
  // candidate threshold is O(1). Objective: SSE reduction.
  double best_gain = 0.0;  // strictly positive gain required for regression
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<std::size_t> sorted = indices;
  for (std::size_t feature = 0; feature < num_features_; ++feature) {
    std::sort(sorted.begin(), sorted.end(), [&x, feature](std::size_t a, std::size_t b) {
      return x[a][feature] < x[b][feature];
    });
    double left_sum = 0.0;
    double left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double target = y[sorted[i]];
      left_sum += target;
      left_sq += target * target;

      const double left_value = x[sorted[i]][feature];
      const double right_value = x[sorted[i + 1]][feature];
      if (left_value >= right_value) continue;  // no boundary between equals

      const double n_left = static_cast<double>(i + 1);
      const double n_right = total - n_left;
      if (n_left < static_cast<double>(config_.min_samples_leaf) ||
          n_right < static_cast<double>(config_.min_samples_leaf)) {
        continue;
      }
      const double child_sse =
          sse(left_sum, left_sq, n_left) + sse(sum - left_sum, sum_sq - left_sq, n_right);
      const double gain = node_sse - child_sse;
      if (gain >= config_.min_impurity_decrease - 1e-12 && gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(feature);
        best_threshold = split_threshold(left_value, right_value);
      }
    }
  }

  if (best_feature < 0) return node_index;

  std::vector<std::size_t> left_idx;
  std::vector<std::size_t> right_idx;
  left_idx.reserve(indices.size());
  right_idx.reserve(indices.size());
  for (std::size_t idx : indices) {
    if (x[idx][static_cast<std::size_t>(best_feature)] <= best_threshold) {
      left_idx.push_back(idx);
    } else {
      right_idx.push_back(idx);
    }
  }
  assert(!left_idx.empty() && !right_idx.empty());

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  indices.clear();
  indices.shrink_to_fit();

  const int left_child = build_node(ctx, left_idx, depth + 1, node_index);
  nodes_[node_index].left = left_child;
  const int right_child = build_node(ctx, right_idx, depth + 1, node_index);
  nodes_[node_index].right = right_child;
  return node_index;
}

int DecisionTreeRegressor::decision_leaf(const std::vector<double>& x) const {
  if (!fitted()) throw std::logic_error("regressor used before fit");
  if (x.size() != num_features_) {
    throw std::invalid_argument("DecisionTreeRegressor::predict: wrong input dims");
  }
  int current = 0;
  while (!nodes_[static_cast<std::size_t>(current)].is_leaf()) {
    const RegressionNode& n = nodes_[static_cast<std::size_t>(current)];
    current = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return current;
}

double DecisionTreeRegressor::predict(const std::vector<double>& x) const {
  return nodes_[static_cast<std::size_t>(decision_leaf(x))].value;
}

std::size_t DecisionTreeRegressor::leaf_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) {
    if (n.is_leaf()) ++count;
  }
  return count;
}

std::size_t DecisionTreeRegressor::depth() const {
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::size_t d = 0;
    for (int p = nodes_[i].parent; p >= 0; p = nodes_[static_cast<std::size_t>(p)].parent) ++d;
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

std::vector<int> DecisionTreeRegressor::leaves() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf()) out.push_back(static_cast<int>(i));
  }
  return out;
}

Box DecisionTreeRegressor::leaf_box(int leaf) const {
  if (leaf < 0 || static_cast<std::size_t>(leaf) >= nodes_.size()) {
    throw std::out_of_range("leaf_box: bad leaf index");
  }
  Box box(num_features_);
  int child = leaf;
  for (int p = nodes_[static_cast<std::size_t>(child)].parent; p >= 0;
       p = nodes_[static_cast<std::size_t>(child)].parent) {
    const RegressionNode& parent = nodes_[static_cast<std::size_t>(p)];
    const auto dim = static_cast<std::size_t>(parent.feature);
    if (parent.left == child) {
      box.clip(dim, Interval::at_most(parent.threshold));
    } else {
      box.clip(dim, Interval::greater(parent.threshold));
    }
    child = p;
  }
  return box;
}

double DecisionTreeRegressor::mse(const std::vector<std::vector<double>>& x,
                                  const std::vector<double>& y) const {
  if (x.empty() || x.size() != y.size()) throw std::invalid_argument("mse: bad inputs");
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double err = predict(x[i]) - y[i];
    total += err * err;
  }
  return total / static_cast<double>(x.size());
}

Interval DecisionTreeRegressor::value_range(const Box& box) const {
  if (!fitted()) throw std::logic_error("regressor used before fit");
  if (box.size() != num_features_) throw std::invalid_argument("value_range: wrong box dims");
  Interval range;
  range.lo = std::numeric_limits<double>::infinity();
  range.hi = -std::numeric_limits<double>::infinity();
  // DFS over subtrees whose split interval overlaps the box. A leaf reached
  // this way handles at least part of the box, so its value is attainable.
  std::vector<std::pair<int, Box>> stack;
  stack.emplace_back(0, box);
  while (!stack.empty()) {
    auto [node_id, region] = std::move(stack.back());
    stack.pop_back();
    const RegressionNode& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      range.lo = std::min(range.lo, node.value);
      range.hi = std::max(range.hi, node.value);
      continue;
    }
    const auto dim = static_cast<std::size_t>(node.feature);
    Box left = region;
    left.clip(dim, Interval::at_most(node.threshold));
    if (!left.empty()) stack.emplace_back(node.left, std::move(left));
    Box right = std::move(region);
    right.clip(dim, Interval::greater(node.threshold));
    if (!right.empty()) stack.emplace_back(node.right, std::move(right));
  }
  return range;
}

}  // namespace verihvac::tree
