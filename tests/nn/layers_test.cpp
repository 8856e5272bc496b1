#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

namespace verihvac::nn {
namespace {

TEST(LinearTest, ForwardMatchesHandComputation) {
  Linear layer(2, 3);
  // W = [[1,2],[3,4],[5,6]], b = [0.1, 0.2, 0.3].
  layer.weight() = Matrix{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  layer.bias() = Matrix{{0.1, 0.2, 0.3}};
  const Matrix out = layer.forward(Matrix{{1.0, 1.0}});
  EXPECT_NEAR(out(0, 0), 3.1, 1e-12);
  EXPECT_NEAR(out(0, 1), 7.2, 1e-12);
  EXPECT_NEAR(out(0, 2), 11.3, 1e-12);
}

TEST(LinearTest, ForwardBatched) {
  Linear layer(2, 1);
  layer.weight() = Matrix{{2.0, -1.0}};
  layer.bias() = Matrix{{0.5}};
  const Matrix out = layer.forward(Matrix{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
  EXPECT_NEAR(out(0, 0), 2.5, 1e-12);
  EXPECT_NEAR(out(1, 0), -0.5, 1e-12);
  EXPECT_NEAR(out(2, 0), 1.5, 1e-12);
}

TEST(LinearTest, ForwardMatchesExplicitTransposeProduct) {
  // The training forward's order: (sum_k x[k] * w[o][k] from 0.0, k
  // ascending) + b[o] — exactly X * W^T through the reference GEMM, then
  // the bias. Widths cover full and partial 32-output tiles and the thin
  // head; row counts cover the 4-row and 8-row remainders.
  Rng rng(31);
  const std::pair<std::size_t, std::size_t> shapes[] = {{8, 32}, {5, 37}, {32, 9}, {6, 3}};
  for (const auto& [in, out] : shapes) {
    Linear layer(in, out);
    layer.init(rng);
    for (std::size_t rows = 1; rows <= 17; ++rows) {
      Matrix x(rows, in);
      for (double& v : x.data()) v = rng.uniform(-2.0, 2.0);
      Matrix expect = Matrix::multiply(x, layer.weight().transposed());
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < out; ++c) expect(r, c) += layer.bias()(0, c);
      }
      const Matrix& got = layer.forward(x);
      ASSERT_EQ(got.rows(), rows);
      ASSERT_EQ(got.cols(), out);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got.data()[i], expect.data()[i]) << in << "x" << out << " rows " << rows;
      }
    }
  }
}

TEST(LinearTest, BackwardGradientsNumerically) {
  // Central-difference check of dL/dW, dL/db and dL/dX with L = sum(Y).
  Rng rng(3);
  Linear layer(3, 2);
  layer.init(rng);
  Matrix x{{0.3, -0.7, 1.2}, {0.9, 0.1, -0.4}};

  layer.zero_grad();
  layer.forward(x);
  Matrix grad_out(2, 2, 1.0);  // dL/dY = 1
  const Matrix grad_in = layer.backward(grad_out);

  constexpr double kEps = 1e-6;
  auto loss = [&](Linear& l, const Matrix& input) {
    const Matrix y = l.forward(input);
    double sum = 0.0;
    for (double v : y.data()) sum += v;
    return sum;
  };

  // dL/dW numeric.
  for (std::size_t i = 0; i < layer.weight().data().size(); ++i) {
    Linear plus = layer;
    Linear minus = layer;
    plus.weight().data()[i] += kEps;
    minus.weight().data()[i] -= kEps;
    const double numeric = (loss(plus, x) - loss(minus, x)) / (2 * kEps);
    EXPECT_NEAR(layer.weight_grad().data()[i], numeric, 1e-5);
  }
  // dL/db numeric.
  for (std::size_t i = 0; i < layer.bias().data().size(); ++i) {
    Linear plus = layer;
    Linear minus = layer;
    plus.bias().data()[i] += kEps;
    minus.bias().data()[i] -= kEps;
    const double numeric = (loss(plus, x) - loss(minus, x)) / (2 * kEps);
    EXPECT_NEAR(layer.bias_grad().data()[i], numeric, 1e-5);
  }
  // dL/dX numeric.
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    Matrix xp = x;
    Matrix xm = x;
    xp.data()[i] += kEps;
    xm.data()[i] -= kEps;
    Linear copy = layer;
    const double numeric = (loss(copy, xp) - loss(copy, xm)) / (2 * kEps);
    EXPECT_NEAR(grad_in.data()[i], numeric, 1e-5);
  }
}

TEST(LinearTest, GradientsAccumulateUntilZeroed) {
  Linear layer(1, 1);
  layer.weight() = Matrix{{1.0}};
  layer.bias() = Matrix{{0.0}};
  Matrix x{{2.0}};
  Matrix g{{1.0}};
  layer.zero_grad();
  layer.forward(x);
  layer.backward(g);
  layer.forward(x);
  layer.backward(g);
  EXPECT_NEAR(layer.weight_grad()(0, 0), 4.0, 1e-12);  // 2 + 2
  layer.zero_grad();
  EXPECT_DOUBLE_EQ(layer.weight_grad()(0, 0), 0.0);
}

TEST(LinearTest, InitBoundsFollowFanIn) {
  Rng rng(17);
  Linear layer(100, 10);
  layer.init(rng);
  const double bound = std::sqrt(1.0 / 100.0);
  for (double w : layer.weight().data()) {
    EXPECT_GE(w, -bound);
    EXPECT_LE(w, bound);
  }
}

TEST(ReluTest, ForwardClampsNegatives) {
  Relu relu;
  const Matrix out = relu.forward(Matrix{{-1.0, 0.0, 2.5}});
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 2.5);
}

TEST(ReluTest, BackwardMasksGradient) {
  Relu relu;
  relu.forward(Matrix{{-1.0, 3.0}});
  const Matrix grad = relu.backward(Matrix{{10.0, 10.0}});
  EXPECT_DOUBLE_EQ(grad(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 10.0);
}

}  // namespace
}  // namespace verihvac::nn
