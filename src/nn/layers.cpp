#include "nn/layers.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace verihvac::nn {

namespace {

/// Accumulation order of one output element: the kernel's only
/// compile-time parameter. Both walk k ascending; they differ in where
/// the bias enters, which changes rounding.
enum class Order {
  kBiasFirst,  ///< inference: b + w.x — the scalar Mlp::predict order
  kBiasLast,   ///< training: (sum w.x from 0.0) + b
};

constexpr std::size_t kOTile = 32;    // outputs per register tile
constexpr std::size_t kRTile = 4;     // rows per register tile
constexpr std::size_t kThinRows = 8;  // rows per block of the thin-head path

/// One register tile: kR rows x kW outputs of the product, starting at
/// output `o0` (kW == 0: a runtime `width` < kOTile for the last tile).
/// The accumulators live in a fixed-size local array across the whole k
/// loop and are stored exactly once, with the bias (kBiasLast) and ReLU
/// applied on the way out.
template <Order kOrder, std::size_t kR, std::size_t kW>
inline void dense_tile(const double* const* x, double* const* y, const Matrix& wt,
                       const double* bias, std::size_t o0, std::size_t width, bool relu) {
  const std::size_t w = kW != 0 ? kW : width;
  double acc[kR][kOTile];
  for (std::size_t j = 0; j < kR; ++j) {
    for (std::size_t o = 0; o < w; ++o) {
      acc[j][o] = kOrder == Order::kBiasFirst ? bias[o0 + o] : 0.0;
    }
  }
  for (std::size_t k = 0; k < wt.rows(); ++k) {
    const double* __restrict wk = wt.row_data(k) + o0;
    for (std::size_t j = 0; j < kR; ++j) {
      const double xk = x[j][k];
      for (std::size_t o = 0; o < w; ++o) acc[j][o] += xk * wk[o];
    }
  }
  for (std::size_t j = 0; j < kR; ++j) {
    for (std::size_t o = 0; o < w; ++o) {
      double v = acc[j][o];
      if constexpr (kOrder == Order::kBiasLast) v += bias[o0 + o];
      y[j][o0 + o] = relu ? std::max(v, 0.0) : v;
    }
  }
}

/// kR rows across every output tile.
template <Order kOrder, std::size_t kR>
inline void dense_rows(const Matrix& input, const Matrix& wt, const double* bias, std::size_t r,
                       bool relu, Matrix& out) {
  const double* x[kR];
  double* y[kR];
  for (std::size_t j = 0; j < kR; ++j) {
    x[j] = input.row_data(r + j);
    y[j] = out.row_data(r + j);
  }
  const std::size_t on = out.cols();
  std::size_t o0 = 0;
  for (; o0 + kOTile <= on; o0 += kOTile) {
    dense_tile<kOrder, kR, kOTile>(x, y, wt, bias, o0, 0, relu);
  }
  if (o0 < on) dense_tile<kOrder, kR, 0>(x, y, wt, bias, o0, on - o0, relu);
}

/// Y = X W^T + b (optionally ReLU'd) with every element in `kOrder`.
template <Order kOrder>
void dense(const Matrix& input, const Matrix& weight, const Matrix& wt, const Matrix& bias,
           bool relu, Matrix& out) {
  assert(input.cols() == weight.cols());
  assert(&input != &out && "dense: output aliases the input");
  const std::size_t n = input.rows();
  const std::size_t in = weight.cols();
  const std::size_t on = weight.rows();
  const double* b = bias.row_data(0);
  out.reshape(n, on);  // every element is written below

  const auto store = [&](double v, std::size_t o) {
    if constexpr (kOrder == Order::kBiasLast) v += b[o];
    return relu ? std::max(v, 0.0) : v;
  };
  const auto init = [&](std::size_t o) { return kOrder == Order::kBiasFirst ? b[o] : 0.0; };

  // Thin output layers (e.g. the 32 -> 1 regression head) are pure
  // reductions over k — latency-bound on one FP-add chain per output. Row
  // blocking flips the parallelism axis: eight rows' chains retire
  // together, each still in `kOrder` with k ascending, so bits are
  // unchanged. These read W's rows directly.
  if (on < 8) {
    std::size_t r = 0;
    for (; r + kThinRows <= n; r += kThinRows) {
      const double* xr[kThinRows];
      for (std::size_t j = 0; j < kThinRows; ++j) xr[j] = input.row_data(r + j);
      for (std::size_t o = 0; o < on; ++o) {
        const double* __restrict wrow = weight.row_data(o);
        double acc[kThinRows];
        for (std::size_t j = 0; j < kThinRows; ++j) acc[j] = init(o);
        for (std::size_t k = 0; k < in; ++k) {
          const double wk = wrow[k];
          for (std::size_t j = 0; j < kThinRows; ++j) acc[j] += wk * xr[j][k];
        }
        for (std::size_t j = 0; j < kThinRows; ++j) out(r + j, o) = store(acc[j], o);
      }
    }
    for (; r < n; ++r) {
      const double* __restrict xr = input.row_data(r);
      for (std::size_t o = 0; o < on; ++o) {
        const double* __restrict wrow = weight.row_data(o);
        double sum = init(o);
        for (std::size_t k = 0; k < in; ++k) sum += wrow[k] * xr[k];
        out(r, o) = store(sum, o);
      }
    }
    return;
  }

  // Wide layers: i-k-j over W^T in 4-row x 32-output register tiles. Each
  // weight row slice is loaded once per k and reused by four rows; the
  // remainder rows take the 1-row tile, which is the same code shape.
  assert(wt.rows() == in && wt.cols() == on && "dense: stale or missing W^T");
  std::size_t r = 0;
  for (; r + kRTile <= n; r += kRTile) dense_rows<kOrder, kRTile>(input, wt, b, r, relu, out);
  for (; r < n; ++r) dense_rows<kOrder, 1>(input, wt, b, r, relu, out);
}

}  // namespace

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : weight_(out_features, in_features),
      bias_(1, out_features),
      weight_grad_(out_features, in_features),
      bias_grad_(1, out_features) {}

void Linear::init(Rng& rng) {
  // Kaiming-uniform with gain for ReLU fan-in, as in torch.nn.Linear.
  const double bound = std::sqrt(1.0 / static_cast<double>(in_features()));
  for (double& w : weight_.data()) w = rng.uniform(-bound, bound);
  for (double& b : bias_.data()) b = rng.uniform(-bound, bound);
}

const Matrix& Linear::forward(const Matrix& input) {
  assert(input.cols() == in_features());
  cached_input_ = input;  // copy-assign reuses the buffer's capacity
  transpose_weight_into(wt_);
  dense<Order::kBiasLast>(input, weight_, wt_, bias_, false, output_);
  return output_;
}

void Linear::transpose_weight_into(Matrix& wt) const {
  wt.reshape(in_features(), out_features());
  for (std::size_t o = 0; o < out_features(); ++o) {
    const double* wrow = weight_.row_data(o);
    for (std::size_t k = 0; k < in_features(); ++k) wt(k, o) = wrow[k];
  }
}

void Linear::forward_into(const Matrix& input, const Matrix& wt, Matrix& out, bool relu) const {
  dense<Order::kBiasFirst>(input, weight_, wt, bias_, relu, out);
}

const Matrix& Linear::backward(const Matrix& grad_output) {
  assert(grad_output.cols() == out_features());
  assert(grad_output.rows() == cached_input_.rows());
  // dW += dY^T X ; db += column sums of dY ; dX = dY W. dW is formed in
  // scratch and then added, so the rounding of two backward() calls
  // without a zero_grad() between them is that of two separate sums.
  Matrix::multiply_at_b_into(grad_output, cached_input_, step_weight_grad_);
  weight_grad_ += step_weight_grad_;
  for (std::size_t r = 0; r < grad_output.rows(); ++r) {
    const double* row = grad_output.row_data(r);
    for (std::size_t c = 0; c < grad_output.cols(); ++c) bias_grad_(0, c) += row[c];
  }
  Matrix::multiply_into(grad_output, weight_, grad_input_);
  return grad_input_;
}

void Linear::zero_grad() {
  weight_grad_.fill(0.0);
  bias_grad_.fill(0.0);
}

const Matrix& Relu::forward(const Matrix& input) {
  mask_.reshape(input.rows(), input.cols());
  output_.reshape(input.rows(), input.cols());
  const std::vector<double>& src = input.data();
  for (std::size_t i = 0; i < src.size(); ++i) {
    const bool active = src[i] > 0.0;
    mask_.data()[i] = active ? 1.0 : 0.0;
    output_.data()[i] = active ? src[i] : 0.0;
  }
  return output_;
}

const Matrix& Relu::backward(const Matrix& grad_output) {
  assert(grad_output.rows() == mask_.rows() && grad_output.cols() == mask_.cols());
  grad_input_.reshape(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_output.data().size(); ++i) {
    grad_input_.data()[i] = grad_output.data()[i] * mask_.data()[i];
  }
  return grad_input_;
}

}  // namespace verihvac::nn
