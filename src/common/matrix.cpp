#include "common/matrix.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace verihvac {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_ && "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

std::vector<double> Matrix::row(std::size_t r) const {
  assert(r < rows_);
  return std::vector<double>(row_data(r), row_data(r) + cols_);
}

void Matrix::set_row(std::size_t r, const std::vector<double>& values) {
  assert(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(), row_data(r));
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  assert(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(), row_data(r));
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);  // vector::assign reuses capacity
}

void Matrix::reshape(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);  // no refill when the size is unchanged
}

void Matrix::fill(double value) { std::fill(data_.begin(), data_.end(), value); }

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::multiply(const Matrix& a, const Matrix& b) {
  Matrix c;
  multiply_into(a, b, c);
  return c;
}

namespace {

constexpr std::size_t kProductRows = 4;   // rows of C per register tile
constexpr std::size_t kProductCols = 32;  // columns of C per register tile
constexpr std::size_t kNarrowCols = 8;    // tile width for narrow B (input layers)

/// One register tile of C = op(A) * B: kR rows from `i0`, kW columns from
/// `j0` (kW == 0: a runtime `width` < kNarrowCols for the last tile).
template <bool kTransposeA, std::size_t kR, std::size_t kW>
void product_tile(const Matrix& a, const Matrix& b, Matrix& c, std::size_t i0, std::size_t j0,
                  std::size_t width) {
  const std::size_t w = kW != 0 ? kW : width;
  const std::size_t inner = b.rows();
  double acc[kR][kW != 0 ? kW : kNarrowCols] = {};
  for (std::size_t k = 0; k < inner; ++k) {
    const double* __restrict brow = b.row_data(k) + j0;
    for (std::size_t r = 0; r < kR; ++r) {
      const double aik = kTransposeA ? a(k, i0 + r) : a(i0 + r, k);
      const std::uint64_t keep = aik == 0.0 ? 0 : ~std::uint64_t{0};
      for (std::size_t j = 0; j < w; ++j) {
        acc[r][j] += std::bit_cast<double>(std::bit_cast<std::uint64_t>(aik * brow[j]) & keep);
      }
    }
  }
  for (std::size_t r = 0; r < kR; ++r) {
    for (std::size_t j = 0; j < w; ++j) c(i0 + r, j0 + j) = acc[r][j];
  }
}

template <bool kTransposeA, std::size_t kR>
void product_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t i0) {
  std::size_t j0 = 0;
  for (; j0 + kProductCols <= c.cols(); j0 += kProductCols) {
    product_tile<kTransposeA, kR, kProductCols>(a, b, c, i0, j0, 0);
  }
  for (; j0 + kNarrowCols <= c.cols(); j0 += kNarrowCols) {
    product_tile<kTransposeA, kR, kNarrowCols>(a, b, c, i0, j0, 0);
  }
  if (j0 < c.cols()) product_tile<kTransposeA, kR, 0>(a, b, c, i0, j0, c.cols() - j0);
}

/// C = op(A) * B with op(A) = A or A^T, in register tiles of 4 rows x 32
/// columns of C (8-column tiles for narrow B, 1-row tiles for the
/// remainder rows). Every element sums from 0.0 over k ascending and
/// skips the terms whose op(A) entry is zero. The skip is a bit mask, not
/// a branch: the ReLU-masked gradients these products see are about half
/// zeros in no pattern, which a branch would mispredict. A masked term is
/// +0.0, and adding +0.0 changes no bits, because a sum that starts at
/// +0.0 can never become -0.0.
template <bool kTransposeA>
void product_into(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = kTransposeA ? a.cols() : a.rows();
  c.reshape(m, b.cols());  // every element is written below
  std::size_t i0 = 0;
  for (; i0 + kProductRows <= m; i0 += kProductRows) {
    product_rows<kTransposeA, kProductRows>(a, b, c, i0);
  }
  for (; i0 < m; ++i0) product_rows<kTransposeA, 1>(a, b, c, i0);
}

}  // namespace

void Matrix::multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.cols() == b.rows() && "multiply_into: inner dimensions disagree");
  assert(&c != &a && &c != &b && "multiply_into: output aliases an input");
  product_into<false>(a, b, c);
}

void Matrix::multiply_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  assert(a.rows() == b.rows());
  assert(&c != &a && &c != &b && "multiply_at_b_into: output aliases an input");
  product_into<true>(a, b, c);
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double scalar) { return a *= scalar; }

}  // namespace verihvac
