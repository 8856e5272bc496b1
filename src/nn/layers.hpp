// Neural-network layers (PyTorch substitute, regression-scale).
//
// The paper's thermal dynamics model is a small fully-connected MLP; this
// module implements exactly the pieces needed to train one: a Linear layer
// with explicit forward/backward, and ReLU activation. Batches are dense
// row-major matrices (rows = samples).
//
// Training and inference share one register-tiled dense kernel (see
// Linear::forward_into). Training passes keep their inputs, outputs and
// gradients in per-layer scratch that is reused across minibatches, so a
// training step allocates nothing once the buffers have grown.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"

namespace verihvac::nn {

/// Fully-connected layer: Y = X W^T + b, with gradient accumulation.
class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  std::size_t in_features() const { return weight_.cols(); }
  std::size_t out_features() const { return weight_.rows(); }

  /// Kaiming-uniform initialization (the PyTorch default for Linear).
  void init(Rng& rng);

  /// Training forward; caches the input for backward. Every element is
  /// (sum_k w[o][k] * x[k], from 0.0 with k ascending) + b[o]. The result
  /// lives in the layer's output buffer until the next forward().
  const Matrix& forward(const Matrix& input);

  /// Writes W^T (in x out) into `wt`: the layout forward_into reads.
  void transpose_weight_into(Matrix& wt) const;

  /// Allocation-free inference forward into caller-owned `out` (resized in
  /// place; must not alias `input`), with ReLU fused into the store when
  /// `relu` is set. `wt` must hold this layer's current W^T
  /// (transpose_weight_into). No layer state is touched, so this is safe
  /// on a shared const layer from many threads at once.
  ///
  /// Bit-compat contract: every output element accumulates as
  /// bias + sum_k w[o][k] * x[k] with k ascending — the exact order of the
  /// scalar Mlp::predict hot path — so batched and scalar inference agree
  /// to the last bit. The kernel tiles 4 rows x 32 outputs in registers:
  /// the vector lanes are independent output columns, so vectorization
  /// never reassociates a single output's accumulation chain.
  void forward_into(const Matrix& input, const Matrix& wt, Matrix& out, bool relu) const;

  /// Backward pass: accumulates dW/db, returns dL/dX (valid until the
  /// next backward()).
  const Matrix& backward(const Matrix& grad_output);

  void zero_grad();

  Matrix& weight() { return weight_; }
  Matrix& bias() { return bias_; }
  const Matrix& weight() const { return weight_; }
  const Matrix& bias() const { return bias_; }
  Matrix& weight_grad() { return weight_grad_; }
  Matrix& bias_grad() { return bias_grad_; }

 private:
  Matrix weight_;       // out x in
  Matrix bias_;         // 1 x out
  Matrix weight_grad_;  // out x in
  Matrix bias_grad_;    // 1 x out
  // Training scratch, reused across minibatches.
  Matrix cached_input_;
  Matrix wt_;           // W^T staged per training forward (weights move every step)
  Matrix output_;
  Matrix step_weight_grad_;  // this backward's dW, added into weight_grad_
  Matrix grad_input_;
};

/// Elementwise ReLU with cached mask (training only: inference fuses the
/// activation into Linear::forward_into).
class Relu {
 public:
  const Matrix& forward(const Matrix& input);
  const Matrix& backward(const Matrix& grad_output);

 private:
  Matrix mask_;
  Matrix output_;
  Matrix grad_input_;
};

}  // namespace verihvac::nn
