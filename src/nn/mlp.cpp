#include "nn/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace verihvac::nn {

Mlp::Mlp(const std::vector<std::size_t>& widths) {
  if (widths.size() < 2) throw std::invalid_argument("Mlp needs >= 2 widths");
  for (std::size_t i = 0; i + 1 < widths.size(); ++i) {
    layers_.emplace_back(widths[i], widths[i + 1]);
  }
  activations_.resize(layers_.size() - 1);
}

std::size_t Mlp::parameter_count() const {
  std::size_t count = 0;
  for (const auto& layer : layers_) {
    count += layer.weight().size() + layer.bias().size();
  }
  return count;
}

void Mlp::init(Rng& rng) {
  for (auto& layer : layers_) layer.init(rng);
}

const Matrix& Mlp::forward(const Matrix& input) {
  const Matrix* x = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = &layers_[i].forward(*x);
    if (i < activations_.size()) x = &activations_[i].forward(*x);
  }
  return *x;
}

const Matrix& Mlp::backward(const Matrix& grad_output) {
  const Matrix* grad = &grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (i < activations_.size()) grad = &activations_[i].backward(*grad);
    grad = &layers_[i].backward(*grad);
  }
  return *grad;
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

void Mlp::predict(const std::vector<double>& input, std::vector<double>& output,
                  std::vector<double>& scratch) const {
  assert(input.size() == input_dim());
  // Ping-pong between `scratch` and `output` so no layer allocates; the
  // source of layer 0 is the caller's input, afterwards the previous buffer.
  const std::vector<double>* src = &input;
  std::vector<double>* buffers[2] = {&scratch, &output};
  int which = 0;

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    std::vector<double>* dst = buffers[which];
    which ^= 1;

    const Linear& layer = layers_[li];
    dst->assign(layer.out_features(), 0.0);
    const Matrix& w = layer.weight();
    const Matrix& b = layer.bias();
    for (std::size_t o = 0; o < layer.out_features(); ++o) {
      const double* wrow = w.row_data(o);
      double sum = b(0, o);
      for (std::size_t i = 0; i < layer.in_features(); ++i) sum += wrow[i] * (*src)[i];
      (*dst)[o] = sum;
    }
    if (li + 1 < layers_.size()) {
      for (double& v : *dst) v = std::max(v, 0.0);
    }
    src = dst;
  }
  if (src != &output) output = *src;
}

void Mlp::forward_into(const Matrix& input, const PackedWeights& packed, Matrix& out,
                       BatchScratch& scratch) const {
  assert(input.cols() == input_dim());
  assert(packed.wt.size() == layers_.size());
  // Same ping-pong as predict(), lifted to whole batches: layer li reads
  // one scratch matrix and writes the other with ReLU fused into the
  // store; the last layer writes straight into `out`.
  const Matrix* src = &input;
  Matrix* buffers[2] = {&scratch.a, &scratch.b};
  int which = 0;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const bool last = li + 1 == layers_.size();
    Matrix* dst = last ? &out : buffers[which];
    which ^= 1;
    layers_[li].forward_into(*src, packed.wt[li], *dst, !last);
    src = dst;
  }
}

void Mlp::forward_into(const Matrix& input, Matrix& out, BatchScratch& scratch) const {
  pack_into(scratch.staged);
  forward_into(input, scratch.staged, out, scratch);
}

void Mlp::pack_into(PackedWeights& packed) const {
  packed.wt.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    layers_[li].transpose_weight_into(packed.wt[li]);
  }
}

std::vector<double> Mlp::parameters() const {
  std::vector<double> flat;
  flat.reserve(parameter_count());
  for (const auto& layer : layers_) {
    const auto& w = layer.weight().data();
    const auto& b = layer.bias().data();
    flat.insert(flat.end(), w.begin(), w.end());
    flat.insert(flat.end(), b.begin(), b.end());
  }
  return flat;
}

void Mlp::set_parameters(const std::vector<double>& params) {
  if (params.size() != parameter_count()) {
    throw std::invalid_argument("set_parameters: wrong size");
  }
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    auto& w = layer.weight().data();
    std::copy_n(params.begin() + static_cast<long>(offset), w.size(), w.begin());
    offset += w.size();
    auto& b = layer.bias().data();
    std::copy_n(params.begin() + static_cast<long>(offset), b.size(), b.begin());
    offset += b.size();
  }
}

}  // namespace verihvac::nn
