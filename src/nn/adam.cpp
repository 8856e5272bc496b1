#include "nn/adam.hpp"

#include <cmath>

namespace verihvac::nn {

Adam::Adam(Mlp& model, AdamConfig config) : config_(config) {
  std::size_t total = 0;
  auto add = [&](Matrix& params, Matrix& grads) {
    blocks_.push_back(Block{params.data().data(), grads.data().data(), params.size()});
    total += params.size();
  };
  for (auto& layer : model.layers()) {
    add(layer.weight(), layer.weight_grad());
    add(layer.bias(), layer.bias_grad());
  }
  m_.assign(total, 0.0);
  v_.assign(total, 0.0);
}

void Adam::step() {
  ++t_;
  const double bias_correction1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bias_correction2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  const double beta1 = config_.beta1;
  const double beta2 = config_.beta2;
  const double one_minus_beta1 = 1.0 - beta1;
  const double one_minus_beta2 = 1.0 - beta2;
  const double lr = config_.learning_rate;
  const double eps = config_.epsilon;
  const double decay = config_.weight_decay;
  double* __restrict m = m_.data();
  double* __restrict v = v_.data();
  // Elementwise over each contiguous block, so the loop vectorizes; every
  // element sees the same IEEE operations in the same order as a scalar
  // loop would, hence the same bits.
  for (const Block& block : blocks_) {
    double* __restrict param = block.param;
    const double* __restrict grad = block.grad;
    for (std::size_t i = 0; i < block.size; ++i) {
      const double g = grad[i] + decay * param[i];
      m[i] = beta1 * m[i] + one_minus_beta1 * g;
      v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
      const double m_hat = m[i] / bias_correction1;
      const double v_hat = v[i] / bias_correction2;
      param[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
    m += block.size;
    v += block.size;
  }
}

}  // namespace verihvac::nn
