#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace verihvac::nn {
namespace {

TEST(LossTest, MseOfEqualIsZero) {
  Matrix a{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(mse_loss(a, a), 0.0);
}

TEST(LossTest, MseMatchesHandComputation) {
  Matrix pred{{1.0}, {3.0}};
  Matrix target{{0.0}, {1.0}};
  // ((1)^2 + (2)^2) / 2 = 2.5
  EXPECT_DOUBLE_EQ(mse_loss(pred, target), 2.5);
}

TEST(LossTest, GradientPointsTowardTarget) {
  Matrix pred{{2.0}};
  Matrix target{{0.0}};
  Matrix grad;
  mse_gradient(pred, target, grad);
  EXPECT_DOUBLE_EQ(grad(0, 0), 4.0);  // 2*(2-0)/1
}

TEST(TrainerTest, LearnsLinearFunction) {
  // y = 2 x0 - x1 + 0.5: an MLP with ReLU should fit this easily.
  Rng rng(3);
  const std::size_t n = 400;
  Matrix x(n, 2);
  Matrix y(n, 1);
  for (std::size_t r = 0; r < n; ++r) {
    x(r, 0) = rng.uniform(-1.0, 1.0);
    x(r, 1) = rng.uniform(-1.0, 1.0);
    y(r, 0) = 2.0 * x(r, 0) - x(r, 1) + 0.5;
  }
  Mlp net({2, 16, 1});
  Rng init(4);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 200;
  cfg.batch_size = 32;
  cfg.adam.learning_rate = 1e-2;
  const TrainingReport report = train(net, x, y, cfg);
  EXPECT_LT(report.final_train_loss, 1e-3);
  EXPECT_LT(report.final_val_loss, 5e-3);
}

TEST(TrainerTest, LossDecreasesOverTraining) {
  Rng rng(5);
  Matrix x(200, 1);
  Matrix y(200, 1);
  for (std::size_t r = 0; r < 200; ++r) {
    x(r, 0) = rng.uniform(-2.0, 2.0);
    y(r, 0) = std::sin(x(r, 0));
  }
  Mlp net({1, 16, 16, 1});
  Rng init(6);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 100;
  cfg.adam.learning_rate = 5e-3;
  const TrainingReport report = train(net, x, y, cfg);
  ASSERT_EQ(report.train_loss_per_epoch.size(), 100u);
  EXPECT_LT(report.train_loss_per_epoch.back(), report.train_loss_per_epoch.front() * 0.5);
}

TEST(TrainerTest, ReportHistoriesHaveEpochLength) {
  Matrix x(50, 1, 1.0);
  Matrix y(50, 1, 2.0);
  Mlp net({1, 4, 1});
  Rng init(7);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 5;
  const TrainingReport report = train(net, x, y, cfg);
  EXPECT_EQ(report.train_loss_per_epoch.size(), 5u);
  EXPECT_EQ(report.val_loss_per_epoch.size(), 5u);
}

TEST(TrainerTest, DeterministicAcrossRuns) {
  Rng rng(9);
  Matrix x(100, 2);
  Matrix y(100, 1);
  for (std::size_t r = 0; r < 100; ++r) {
    x(r, 0) = rng.uniform(-1.0, 1.0);
    x(r, 1) = rng.uniform(-1.0, 1.0);
    y(r, 0) = x(r, 0) * x(r, 1);
  }
  auto run = [&]() {
    Mlp net({2, 8, 1});
    Rng init(10);
    net.init(init);
    TrainerConfig cfg;
    cfg.epochs = 20;
    return train(net, x, y, cfg).final_train_loss;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(TrainerTest, ZeroValidationFractionUsesTrainLoss) {
  Matrix x(20, 1, 1.0);
  Matrix y(20, 1, 0.0);
  Mlp net({1, 1});
  Rng init(11);
  net.init(init);
  TrainerConfig cfg;
  cfg.epochs = 3;
  cfg.validation_fraction = 0.0;
  const TrainingReport report = train(net, x, y, cfg);
  EXPECT_EQ(report.val_loss_per_epoch.size(), 3u);
}

TEST(TrainerTest, RejectsEmptyOrMismatched) {
  Mlp net({1, 1});
  TrainerConfig cfg;
  EXPECT_THROW(train(net, Matrix(0, 1), Matrix(0, 1), cfg), std::invalid_argument);
  EXPECT_THROW(train(net, Matrix(3, 1), Matrix(4, 1), cfg), std::invalid_argument);
}

}  // namespace
}  // namespace verihvac::nn
