#include "tree/cart.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "tree/split.hpp"

namespace verihvac::tree {

DecisionTreeClassifier::DecisionTreeClassifier(TreeConfig config) : config_(config) {}

struct DecisionTreeClassifier::BuildContext {
  std::size_t rows = 0;
  const std::vector<int>* y = nullptr;
  // Column-major copy of x: columns[feature * rows + row].
  std::vector<double> columns;
  // Per feature, the rows sorted by that feature: orders[feature * rows + k].
  // A node owns positions [begin, end) of every order.
  std::vector<std::size_t> orders;
  // Per row, whether the split being applied sends it left.
  std::vector<char> goes_left;
  // Scratch class-count buffers reused across nodes.
  std::vector<double> left_counts;
  std::vector<double> right_counts;
  std::vector<double> total_counts;
};

namespace {

/// Gini impurity of `n` > 0 samples whose class counts square-sum to `sum_sq`.
double gini(double sum_sq, double n) { return 1.0 - sum_sq / (n * n); }

int majority_label(const std::vector<double>& counts) {
  return static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
}

}  // namespace

void DecisionTreeClassifier::fit(const std::vector<std::vector<double>>& x,
                                 const std::vector<int>& y, std::size_t num_classes) {
  if (x.empty() || x.size() != y.size()) {
    throw std::invalid_argument("DecisionTreeClassifier::fit: bad inputs");
  }
  for (int label : y) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes) {
      throw std::invalid_argument("DecisionTreeClassifier::fit: label out of range");
    }
  }
  check_feature_rows(x, "DecisionTreeClassifier::fit");
  nodes_.clear();
  num_features_ = x.front().size();
  num_classes_ = num_classes;

  BuildContext ctx;
  const std::size_t rows = x.size();
  ctx.rows = rows;
  ctx.y = &y;
  ctx.columns.resize(num_features_ * rows);
  ctx.orders.resize(num_features_ * rows);
  for (std::size_t feature = 0; feature < num_features_; ++feature) {
    double* column = &ctx.columns[feature * rows];
    for (std::size_t row = 0; row < rows; ++row) column[row] = x[row][feature];
    std::size_t* order = &ctx.orders[feature * rows];
    std::iota(order, order + rows, std::size_t{0});
    std::sort(order, order + rows,
              [column](std::size_t a, std::size_t b) { return column[a] < column[b]; });
  }
  ctx.goes_left.resize(rows);
  ctx.left_counts.resize(num_classes);
  ctx.right_counts.resize(num_classes);
  ctx.total_counts.resize(num_classes);
  build_node(ctx, 0, rows, 0, -1);
}

int DecisionTreeClassifier::build_node(BuildContext& ctx, std::size_t begin, std::size_t end,
                                       std::size_t depth, int parent) {
  const auto& y = *ctx.y;
  const std::size_t rows = ctx.rows;
  const std::size_t samples = end - begin;

  std::fill(ctx.total_counts.begin(), ctx.total_counts.end(), 0.0);
  for (std::size_t k = begin; k < end; ++k) {
    ctx.total_counts[static_cast<std::size_t>(y[ctx.orders[k]])] += 1.0;
  }
  double total_sq = 0.0;
  for (double c : ctx.total_counts) total_sq += c * c;
  const double total = static_cast<double>(samples);
  const double node_impurity = gini(total_sq, total);

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].samples = samples;
  nodes_[node_index].impurity = node_impurity;
  nodes_[node_index].parent = parent;

  auto make_leaf = [&]() {
    nodes_[node_index].label = majority_label(ctx.total_counts);
    return node_index;
  };

  // Stopping rules: pure node, too few samples, or depth cap.
  if (node_impurity <= 0.0 || samples < config_.min_samples_split ||
      (config_.max_depth > 0 && depth >= config_.max_depth)) {
    return make_leaf();
  }

  // Exact greedy split search over every feature. Like sklearn, a split is
  // acceptable when its impurity decrease is >= min_impurity_decrease —
  // including exactly-zero-gain splits (XOR-style data has no single split
  // with positive Gini gain, yet recursing through a zero-gain split still
  // separates the classes two levels down). Moving one sample of class c
  // from right to left changes the sides' sums of squared counts by
  // +(2c+1) and -(2c-1), so each candidate threshold costs O(1).
  double best_gain = -1.0;
  int best_feature = -1;
  double best_threshold = 0.0;

  for (std::size_t feature = 0; feature < num_features_; ++feature) {
    const double* column = &ctx.columns[feature * rows];
    const std::size_t* order = &ctx.orders[feature * rows];
    std::fill(ctx.left_counts.begin(), ctx.left_counts.end(), 0.0);
    ctx.right_counts = ctx.total_counts;
    double left_sq = 0.0;
    double right_sq = total_sq;

    for (std::size_t k = begin; k + 1 < end; ++k) {
      const auto label = static_cast<std::size_t>(y[order[k]]);
      left_sq += 2.0 * ctx.left_counts[label] + 1.0;
      ctx.left_counts[label] += 1.0;
      right_sq -= 2.0 * ctx.right_counts[label] - 1.0;
      ctx.right_counts[label] -= 1.0;

      const double left_value = column[order[k]];
      const double right_value = column[order[k + 1]];
      if (left_value >= right_value) continue;  // no boundary between equals

      const double n_left = static_cast<double>(k + 1 - begin);
      const double n_right = total - n_left;
      if (n_left < static_cast<double>(config_.min_samples_leaf) ||
          n_right < static_cast<double>(config_.min_samples_leaf)) {
        continue;
      }
      const double weighted =
          (n_left * gini(left_sq, n_left) + n_right * gini(right_sq, n_right)) / total;
      const double gain = node_impurity - weighted;
      if (gain >= config_.min_impurity_decrease - 1e-12 && gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(feature);
        best_threshold = split_threshold(left_value, right_value);
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition every order's range stably, so both children stay sorted.
  const double* split_column = &ctx.columns[static_cast<std::size_t>(best_feature) * rows];
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t row = ctx.orders[k];
    ctx.goes_left[row] = split_column[row] <= best_threshold;
  }
  std::size_t mid = begin;
  for (std::size_t feature = 0; feature < num_features_; ++feature) {
    std::size_t* order = &ctx.orders[feature * rows];
    mid = static_cast<std::size_t>(
        std::stable_partition(order + begin, order + end,
                              [&ctx](std::size_t row) { return ctx.goes_left[row] != 0; }) -
        order);
  }
  assert(mid > begin && mid < end);

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;

  const int left_child = build_node(ctx, begin, mid, depth + 1, node_index);
  nodes_[node_index].left = left_child;
  const int right_child = build_node(ctx, mid, end, depth + 1, node_index);
  nodes_[node_index].right = right_child;
  return node_index;
}

int DecisionTreeClassifier::decision_leaf(const std::vector<double>& x) const {
  if (!fitted()) throw std::logic_error("tree used before fit");
  if (x.size() != num_features_) throw std::invalid_argument("predict: wrong input dims");
  int current = 0;
  while (!nodes_[static_cast<std::size_t>(current)].is_leaf()) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(current)];
    current = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return current;
}

int DecisionTreeClassifier::predict(const std::vector<double>& x) const {
  return nodes_[static_cast<std::size_t>(decision_leaf(x))].label;
}

std::size_t DecisionTreeClassifier::leaf_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) {
    if (n.is_leaf()) ++count;
  }
  return count;
}

std::size_t DecisionTreeClassifier::depth() const {
  // Depth of a node = #edges from the root; compute by walking parents.
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i].is_leaf()) continue;
    std::size_t d = 0;
    int cursor = nodes_[i].parent;
    while (cursor >= 0) {
      ++d;
      cursor = nodes_[static_cast<std::size_t>(cursor)].parent;
    }
    max_depth = std::max(max_depth, d);
  }
  return max_depth;
}

std::vector<int> DecisionTreeClassifier::leaves() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf()) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<PathStep> DecisionTreeClassifier::path_to(int leaf) const {
  if (leaf < 0 || static_cast<std::size_t>(leaf) >= nodes_.size() ||
      !nodes_[static_cast<std::size_t>(leaf)].is_leaf()) {
    throw std::invalid_argument("path_to: not a leaf");
  }
  std::vector<PathStep> reversed;
  int child = leaf;
  int parent = nodes_[static_cast<std::size_t>(leaf)].parent;
  while (parent >= 0) {
    const TreeNode& p = nodes_[static_cast<std::size_t>(parent)];
    reversed.push_back(PathStep{parent, p.left == child});
    child = parent;
    parent = p.parent;
  }
  return {reversed.rbegin(), reversed.rend()};
}

Box DecisionTreeClassifier::leaf_box(int leaf) const {
  Box box(num_features_);
  for (const PathStep& step : path_to(leaf)) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(step.node)];
    const auto dim = static_cast<std::size_t>(n.feature);
    if (step.went_left) {
      box.clip(dim, Interval::at_most(n.threshold));
    } else {
      box.clip(dim, Interval::greater(n.threshold));
    }
  }
  return box;
}

void DecisionTreeClassifier::set_leaf_label(int leaf, int label) {
  if (leaf < 0 || static_cast<std::size_t>(leaf) >= nodes_.size() ||
      !nodes_[static_cast<std::size_t>(leaf)].is_leaf()) {
    throw std::invalid_argument("set_leaf_label: not a leaf");
  }
  if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
    throw std::invalid_argument("set_leaf_label: label out of range");
  }
  nodes_[static_cast<std::size_t>(leaf)].label = label;
}

std::pair<int, int> DecisionTreeClassifier::split_leaf(int leaf, int feature,
                                                       double threshold) {
  if (leaf < 0 || static_cast<std::size_t>(leaf) >= nodes_.size() ||
      !nodes_[static_cast<std::size_t>(leaf)].is_leaf()) {
    throw std::invalid_argument("split_leaf: not a leaf");
  }
  if (feature < 0 || static_cast<std::size_t>(feature) >= num_features_) {
    throw std::invalid_argument("split_leaf: feature out of range");
  }
  const TreeNode original = nodes_[static_cast<std::size_t>(leaf)];

  TreeNode child;
  child.label = original.label;
  child.samples = original.samples;
  child.impurity = original.impurity;
  child.parent = leaf;

  const int left = static_cast<int>(nodes_.size());
  nodes_.push_back(child);
  const int right = static_cast<int>(nodes_.size());
  nodes_.push_back(child);

  TreeNode& promoted = nodes_[static_cast<std::size_t>(leaf)];
  promoted.feature = feature;
  promoted.threshold = threshold;
  promoted.left = left;
  promoted.right = right;
  promoted.label = -1;
  return {left, right};
}

DecisionTreeClassifier DecisionTreeClassifier::from_nodes(std::vector<TreeNode> nodes,
                                                          std::size_t num_features,
                                                          std::size_t num_classes) {
  if (nodes.empty() || num_features == 0 || num_classes == 0) {
    throw std::invalid_argument("from_nodes: empty tree or zero dims");
  }
  const auto size = static_cast<int>(nodes.size());
  for (int i = 0; i < size; ++i) {
    const TreeNode& n = nodes[static_cast<std::size_t>(i)];
    if (n.is_leaf()) {
      if (n.label < 0 || static_cast<std::size_t>(n.label) >= num_classes) {
        throw std::invalid_argument("from_nodes: leaf label out of range");
      }
    } else {
      if (n.feature >= static_cast<int>(num_features)) {
        throw std::invalid_argument("from_nodes: feature index out of range");
      }
      if (n.left < 0 || n.left >= size || n.right < 0 || n.right >= size) {
        throw std::invalid_argument("from_nodes: child index out of range");
      }
      if (nodes[static_cast<std::size_t>(n.left)].parent != i ||
          nodes[static_cast<std::size_t>(n.right)].parent != i) {
        throw std::invalid_argument("from_nodes: inconsistent parent links");
      }
    }
  }
  DecisionTreeClassifier tree;
  tree.nodes_ = std::move(nodes);
  tree.num_features_ = num_features;
  tree.num_classes_ = num_classes;
  return tree;
}

double DecisionTreeClassifier::accuracy(const std::vector<std::vector<double>>& x,
                                        const std::vector<int>& y) const {
  assert(x.size() == y.size() && !x.empty());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (predict(x[i]) == y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.size());
}

}  // namespace verihvac::tree
