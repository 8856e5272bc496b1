// Multilayer perceptron with ReLU hidden activations.
//
// Architecture is given as a width list, e.g. {8, 32, 32, 1}. The final
// layer is linear (regression head). Provides batched forward, a
// scratch-free single-sample fast path (the random-shooting optimizer calls
// it millions of times), and backward for training.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace verihvac::nn {

/// Every layer's transposed weights (in x out): the layout the batched
/// inference kernel reads (Linear::forward_into). A snapshot — it does
/// not follow later weight changes, so its owner rebuilds it (pack_into)
/// whenever the network's weights change.
struct PackedWeights {
  std::vector<Matrix> wt;
};

/// Caller-owned ping-pong activation matrices for the allocation-free
/// batched inference path (same ownership convention as IbpScratch /
/// dyn::PredictScratch: the network stays const, so one scratch per worker
/// thread makes batched inference on a shared model thread-safe).
/// Buffers grow to the largest (batch x width) seen and are then reused.
struct BatchScratch {
  Matrix a;
  Matrix b;
  /// W^T staged per call by the forward_into overload without a packed copy.
  PackedWeights staged;
};

class Mlp {
 public:
  /// Builds the network; `widths` must have >= 2 entries.
  explicit Mlp(const std::vector<std::size_t>& widths);

  std::size_t input_dim() const { return layers_.front().in_features(); }
  std::size_t output_dim() const { return layers_.back().out_features(); }
  std::size_t parameter_count() const;

  void init(Rng& rng);

  /// Training forward: caches what backward() needs. The result lives in
  /// the network's scratch until the next forward().
  const Matrix& forward(const Matrix& input);
  /// Backward from dL/dY; returns dL/dX (gradients accumulate in layers),
  /// valid until the next backward().
  const Matrix& backward(const Matrix& grad_output);
  void zero_grad();

  /// Allocation-free single-sample inference into caller-provided scratch.
  /// `scratch` is resized on first use; result has output_dim() entries.
  void predict(const std::vector<double>& input, std::vector<double>& output,
               std::vector<double>& scratch) const;

  /// Batched allocation-free inference: rows of `input` are samples, `out`
  /// becomes (rows x output_dim()). No autograd buffers are touched, so
  /// this is safe on a shared const network with one scratch per thread.
  /// Row r of the result is bit-identical to predict() on row r — the
  /// batched Linear kernel keeps the scalar path's accumulation order (see
  /// Linear::forward_into), which rollout/verification equivalence tests
  /// lock in. `packed` must be this network's current pack_into() result;
  /// `out` must not alias `input` or the scratch buffers.
  void forward_into(const Matrix& input, const PackedWeights& packed, Matrix& out,
                    BatchScratch& scratch) const;
  /// Same kernel for callers without a packed copy (tests, one-off calls):
  /// stages W^T into `scratch` first.
  void forward_into(const Matrix& input, Matrix& out, BatchScratch& scratch) const;

  /// Writes every layer's current W^T into `packed`.
  void pack_into(PackedWeights& packed) const;

  std::vector<Linear>& layers() { return layers_; }
  const std::vector<Linear>& layers() const { return layers_; }

  /// Flat parameter access (serialization, tests, optimizer hookup).
  std::vector<double> parameters() const;
  void set_parameters(const std::vector<double>& params);

 private:
  std::vector<Linear> layers_;
  std::vector<Relu> activations_;  // one per hidden layer
};

}  // namespace verihvac::nn
