// Minibatch MSE trainer.
//
// Implements the paper's training loop: epochs = 150, Adam(lr 1e-3,
// weight-decay 1e-5), MSE loss, shuffled minibatches. Also reports
// train/validation loss histories so model quality is inspectable.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace verihvac::nn {

struct TrainerConfig {
  std::size_t epochs = 150;
  std::size_t batch_size = 64;
  AdamConfig adam;
  /// Fraction of the data held out for validation-loss reporting.
  double validation_fraction = 0.1;
  std::uint64_t shuffle_seed = 7;
};

struct TrainingReport {
  std::vector<double> train_loss_per_epoch;
  std::vector<double> val_loss_per_epoch;
  double final_train_loss = 0.0;
  double final_val_loss = 0.0;
};

/// Mean squared error over all elements.
double mse_loss(const Matrix& prediction, const Matrix& target);
/// Gradient of MSE w.r.t. prediction, (pred - target) * (2/N), into `grad`
/// (resized in place, reusing capacity).
void mse_gradient(const Matrix& prediction, const Matrix& target, Matrix& grad);

/// Trains `model` in place on (inputs, targets); rows are samples. Inputs
/// and targets are expected pre-normalized by the caller (see
/// dynamics::DynamicsModel for the end-to-end wrapper). Minibatch steps
/// reuse one set of buffers, so the epoch loop allocates nothing once
/// they have grown to the batch size.
TrainingReport train(Mlp& model, const Matrix& inputs, const Matrix& targets,
                     const TrainerConfig& config);

}  // namespace verihvac::nn
