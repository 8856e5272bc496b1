// Fit-time rules shared by the classification and regression trees: input
// validation and the split threshold. Private to the tree library.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace verihvac::tree {

/// Threshold between adjacent distinct sorted values a < b: their midpoint,
/// as in sklearn, or `a` when the rounded midpoint is not in [a, b)
/// (adjacent doubles, overflow), so `x <= threshold` still sends a left and
/// b right.
inline double split_threshold(double a, double b) {
  const double mid = 0.5 * (a + b);
  return (mid >= b || mid < a) ? a : mid;
}

/// Throws std::invalid_argument, prefixed by `where`, unless the rows of
/// the non-empty `x` all hold the same, non-zero number of finite values.
inline void check_feature_rows(const std::vector<std::vector<double>>& x, const char* where) {
  const std::size_t width = x.front().size();
  if (width == 0) throw std::invalid_argument(std::string(where) + ": rows have no features");
  for (const auto& row : x) {
    if (row.size() != width) {
      throw std::invalid_argument(std::string(where) + ": ragged feature rows");
    }
    for (double value : row) {
      if (!std::isfinite(value)) {
        throw std::invalid_argument(std::string(where) + ": non-finite feature value");
      }
    }
  }
}

}  // namespace verihvac::tree
