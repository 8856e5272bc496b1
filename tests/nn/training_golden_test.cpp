// Golden training bits. The expected hashes were recorded with the
// untiled training forward (one scalar dot product per output), the
// allocating minibatch loop and the per-parameter Adam loop; the tiled
// kernel, the reused step buffers and the blocked Adam update must leave
// every bit of the trained weights and loss histories unchanged. The
// hashes are ISA-independent: they hold with and without native kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"

namespace verihvac::nn {
namespace {

/// FNV-1a 64 over the bit patterns of a sequence of doubles.
std::uint64_t fnv1a(const std::vector<double>& values, std::uint64_t h = 1469598103934665603ull) {
  for (double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t hash_report(const TrainingReport& report) {
  return fnv1a(report.val_loss_per_epoch, fnv1a(report.train_loss_per_epoch));
}

/// Seeded regression set with the dynamics model's input width: 300 rows
/// give 270 training rows, so every epoch ends on a 14-row minibatch.
void golden_dataset(std::uint64_t seed, std::size_t rows, Matrix& x, Matrix& y) {
  Rng rng(seed);
  x = Matrix(rows, 8);
  y = Matrix(rows, 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : x.row_view(r)) v = rng.uniform(-2.0, 2.0);
    y(r, 0) = std::sin(x(r, 0)) * x(r, 1) - 0.3 * x(r, 2) + 0.1 * rng.normal();
  }
}

Mlp golden_network() {
  Mlp net({8, 32, 32, 1});
  Rng init(3);
  net.init(init);
  return net;
}

TrainerConfig golden_config() {
  TrainerConfig config;
  config.epochs = 8;
  return config;
}

TEST(TrainingGoldenTest, TrainMatchesRecordedBits) {
  Matrix x;
  Matrix y;
  golden_dataset(0x601D, 300, x, y);
  Mlp net = golden_network();
  const TrainingReport report = train(net, x, y, golden_config());
  EXPECT_EQ(fnv1a(net.parameters()), 4042990960188620831ull);
  EXPECT_EQ(hash_report(report), 397549135213352340ull);
}

TEST(TrainingGoldenTest, WarmStartMatchesRecordedBits) {
  // The fine-tune shape: continue training the trained network on new data
  // for a few epochs with fresh Adam moments and a salted shuffle seed.
  Matrix x;
  Matrix y;
  golden_dataset(0x601D, 300, x, y);
  Mlp net = golden_network();
  train(net, x, y, golden_config());
  golden_dataset(0xF17E, 150, x, y);
  TrainerConfig config = golden_config();
  config.epochs = 3;
  config.shuffle_seed += 0x5DEECE66Dull;
  const TrainingReport report = train(net, x, y, config);
  EXPECT_EQ(fnv1a(net.parameters()), 2069353848086971582ull);
  EXPECT_EQ(hash_report(report), 12800535842078820263ull);
}

TEST(TrainingGoldenTest, BackwardTwiceWithoutZeroGradMatchesRecordedBits) {
  // Gradients of two minibatches accumulate across backward() calls; then
  // one Adam step consumes the sum.
  Matrix x;
  Matrix y;
  golden_dataset(0xBAC2, 100, x, y);
  Matrix first(64, 8);
  Matrix second(36, 8);
  for (std::size_t r = 0; r < 100; ++r) (r < 64 ? first : second).set_row(r % 64, x.row_view(r));
  Mlp net = golden_network();
  Adam optimizer(net);

  net.zero_grad();
  std::vector<double> input_grads;
  for (const Matrix* batch : {&first, &second}) {
    const Matrix& pred = net.forward(*batch);
    Matrix grad_out = pred;
    for (double& v : grad_out.data()) v = 0.5 * v - 0.1;
    const Matrix& grad_in = net.backward(grad_out);
    input_grads.insert(input_grads.end(), grad_in.data().begin(), grad_in.data().end());
  }
  std::vector<double> grads;
  for (Linear& layer : net.layers()) {
    grads.insert(grads.end(), layer.weight_grad().data().begin(), layer.weight_grad().data().end());
    grads.insert(grads.end(), layer.bias_grad().data().begin(), layer.bias_grad().data().end());
  }
  EXPECT_EQ(fnv1a(grads), 16201172297589323067ull);
  EXPECT_EQ(fnv1a(input_grads), 14050917110063148899ull);
  optimizer.step();
  EXPECT_EQ(fnv1a(net.parameters()), 15666209435127538928ull);
}

}  // namespace
}  // namespace verihvac::nn
