#include "nn/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/rng.hpp"

namespace verihvac::nn {

double mse_loss(const Matrix& prediction, const Matrix& target) {
  assert(prediction.rows() == target.rows() && prediction.cols() == target.cols());
  double sum = 0.0;
  for (std::size_t i = 0; i < prediction.data().size(); ++i) {
    const double d = prediction.data()[i] - target.data()[i];
    sum += d * d;
  }
  return sum / static_cast<double>(prediction.data().size());
}

void mse_gradient(const Matrix& prediction, const Matrix& target, Matrix& grad) {
  assert(prediction.rows() == target.rows() && prediction.cols() == target.cols());
  grad.reshape(prediction.rows(), prediction.cols());
  const double scale = 2.0 / static_cast<double>(prediction.data().size());
  for (std::size_t i = 0; i < prediction.data().size(); ++i) {
    grad.data()[i] = (prediction.data()[i] - target.data()[i]) * scale;
  }
}

namespace {

void gather_rows(const Matrix& data, const std::vector<std::size_t>& indices, std::size_t begin,
                 std::size_t end, Matrix& out) {
  out.reshape(end - begin, data.cols());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t c = 0; c < data.cols(); ++c) out(i - begin, c) = data(indices[i], c);
  }
}

}  // namespace

TrainingReport train(Mlp& model, const Matrix& inputs, const Matrix& targets,
                     const TrainerConfig& config) {
  if (inputs.rows() != targets.rows() || inputs.rows() == 0) {
    throw std::invalid_argument("train: inputs/targets row mismatch or empty");
  }
  Rng rng(config.shuffle_seed);
  Adam optimizer(model, config.adam);

  // Split train/validation once.
  auto perm = rng.permutation(inputs.rows());
  const auto val_count = static_cast<std::size_t>(
      config.validation_fraction * static_cast<double>(inputs.rows()));
  const std::size_t train_count = inputs.rows() - val_count;
  std::vector<std::size_t> train_idx(perm.begin(), perm.begin() + static_cast<long>(train_count));
  std::vector<std::size_t> val_idx(perm.begin() + static_cast<long>(train_count), perm.end());

  Matrix val_x;
  Matrix val_y;
  gather_rows(inputs, val_idx, 0, val_idx.size(), val_x);
  gather_rows(targets, val_idx, 0, val_idx.size(), val_y);

  // Minibatch buffers, reused by every step.
  Matrix bx;
  Matrix by;
  Matrix grad;

  TrainingReport report;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    // Reshuffle training indices each epoch.
    for (std::size_t i = train_idx.size(); i > 1; --i) {
      std::swap(train_idx[i - 1], train_idx[rng.index(i)]);
    }
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < train_count; begin += config.batch_size) {
      const std::size_t end = std::min(begin + config.batch_size, train_count);
      gather_rows(inputs, train_idx, begin, end, bx);
      gather_rows(targets, train_idx, begin, end, by);

      model.zero_grad();
      const Matrix& pred = model.forward(bx);
      epoch_loss += mse_loss(pred, by);
      ++batches;
      mse_gradient(pred, by, grad);
      model.backward(grad);
      optimizer.step();
    }
    report.train_loss_per_epoch.push_back(epoch_loss / static_cast<double>(std::max<std::size_t>(batches, 1)));
    if (val_idx.empty()) {
      report.val_loss_per_epoch.push_back(report.train_loss_per_epoch.back());
    } else {
      report.val_loss_per_epoch.push_back(mse_loss(model.forward(val_x), val_y));
    }
  }
  report.final_train_loss =
      report.train_loss_per_epoch.empty() ? 0.0 : report.train_loss_per_epoch.back();
  report.final_val_loss =
      report.val_loss_per_epoch.empty() ? 0.0 : report.val_loss_per_epoch.back();
  return report;
}

}  // namespace verihvac::nn
