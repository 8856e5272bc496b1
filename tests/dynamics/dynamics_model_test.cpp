#include "dynamics/dynamics_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "dynamics/model_eval.hpp"

namespace verihvac::dyn {
namespace {

/// Synthetic ground-truth plant for fast, controlled tests: a linear
/// one-step thermal response. dT = a*(out - T) + b*(heat_sp - T)_+ etc.
double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
  const double t = x[env::kZoneTemp];
  const double outdoor = x[env::kOutdoorTemp];
  double dt = 0.08 * (outdoor - t);
  if (t < a.heating_c) dt += 0.35 * std::min(a.heating_c - t, 1.5);
  if (t > a.cooling_c) dt -= 0.30 * std::min(t - a.cooling_c, 1.5);
  dt += 0.01 * x[env::kOccupancy];
  return t + dt;
}

TransitionDataset toy_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TransitionDataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Transition t;
    t.input = {rng.uniform(14.0, 28.0), rng.uniform(-10.0, 15.0), rng.uniform(20.0, 90.0),
               rng.uniform(0.0, 8.0),   rng.uniform(0.0, 500.0),  rng.bernoulli(0.5) ? 11.0 : 0.0};
    t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
    t.action.cooling_c =
        static_cast<double>(rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
    t.next_zone_temp = toy_plant(t.input, t.action);
    data.add(t);
  }
  return data;
}

DynamicsModelConfig fast_config() {
  DynamicsModelConfig cfg;
  cfg.hidden = {24, 24};
  cfg.trainer.epochs = 60;
  cfg.trainer.adam.learning_rate = 3e-3;
  return cfg;
}

TEST(DynamicsModelTest, UntrainedPredictThrows) {
  DynamicsModel model;
  EXPECT_THROW(model.predict({20, 0, 50, 3, 0, 0}, sim::SetpointPair{20, 24}),
               std::logic_error);
}

TEST(DynamicsModelTest, TrainOnEmptyThrows) {
  DynamicsModel model;
  EXPECT_THROW(model.train(TransitionDataset{}), std::invalid_argument);
}

TEST(DynamicsModelTest, LearnsToyPlantAccurately) {
  const TransitionDataset train_data = toy_dataset(2000, 1);
  const TransitionDataset test_data = toy_dataset(300, 2);
  DynamicsModel model(fast_config());
  model.train(train_data);
  const double rmse = one_step_rmse(model, test_data);
  EXPECT_LT(rmse, 0.15);  // one-step error well under the comfort band width
}

TEST(DynamicsModelTest, PredictionRespondsToAction) {
  const TransitionDataset data = toy_dataset(2000, 3);
  DynamicsModel model(fast_config());
  model.train(data);
  const std::vector<double> cold = {16.0, -5.0, 60.0, 3.0, 0.0, 11.0};
  const double heated = model.predict(cold, sim::SetpointPair{23.0, 30.0});
  const double setback = model.predict(cold, sim::SetpointPair{15.0, 30.0});
  EXPECT_GT(heated, setback + 0.2);
}

TEST(DynamicsModelTest, PredictIsDeterministic) {
  const TransitionDataset data = toy_dataset(500, 4);
  DynamicsModel model(fast_config());
  model.train(data);
  const std::vector<double> x = {20.0, 0.0, 50.0, 2.0, 100.0, 11.0};
  const double p1 = model.predict(x, sim::SetpointPair{21.0, 25.0});
  const double p2 = model.predict(x, sim::SetpointPair{21.0, 25.0});
  EXPECT_DOUBLE_EQ(p1, p2);
}

TEST(DynamicsModelTest, PredictRawMatchesPredict) {
  const TransitionDataset data = toy_dataset(500, 5);
  DynamicsModel model(fast_config());
  model.train(data);
  const std::vector<double> x = {19.0, -2.0, 70.0, 4.0, 50.0, 0.0};
  std::vector<double> raw = x;
  raw.push_back(20.0);
  raw.push_back(26.0);
  EXPECT_DOUBLE_EQ(model.predict(x, sim::SetpointPair{20.0, 26.0}), model.predict_raw(raw));
}

TEST(DynamicsModelTest, PredictBatchMatchesScalar) {
  const TransitionDataset data = toy_dataset(500, 6);
  DynamicsModel model(fast_config());
  model.train(data);
  const Matrix inputs = data.inputs();
  const auto batch = model.predict_batch(inputs);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_DOUBLE_EQ(batch[r], model.predict_raw(inputs.row(r)));
  }
}

TEST(DynamicsModelTest, PredictBatchIntoBitIdenticalToScalarPredict) {
  const TransitionDataset data = toy_dataset(500, 9);
  DynamicsModel model(fast_config());
  model.train(data);
  const Matrix inputs = data.inputs();

  BatchScratch batch_scratch;
  std::vector<double> batched;
  model.predict_batch_into(inputs, batched, batch_scratch);
  ASSERT_EQ(batched.size(), inputs.rows());

  PredictScratch scalar_scratch;
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    const std::vector<double> row = inputs.row(r);
    const std::vector<double> x(row.begin(), row.begin() + env::kInputDims);
    const sim::SetpointPair action{row[kHeatSpIndex], row[kCoolSpIndex]};
    // EXPECT_EQ: the batched fused path must match the scalar hot path to
    // the last bit (the rollout-engine determinism contract).
    EXPECT_EQ(batched[r], model.predict(x, action, scalar_scratch)) << "row " << r;
  }
}

TEST(DynamicsModelTest, PredictBatchIntoUntrainedThrows) {
  DynamicsModel model;
  BatchScratch scratch;
  std::vector<double> out;
  EXPECT_THROW(model.predict_batch_into(Matrix(2, kModelInputDims), out, scratch),
               std::logic_error);
}

TEST(DynamicsModelTest, PredictBatchIntoScratchReuseAcrossBatchSizes) {
  const TransitionDataset data = toy_dataset(300, 10);
  DynamicsModel model(fast_config());
  model.train(data);
  const Matrix inputs = data.inputs();

  BatchScratch scratch;
  std::vector<double> full;
  model.predict_batch_into(inputs, full, scratch);

  // Re-run a prefix with the (now larger-capacity) scratch: same bits.
  Matrix prefix(7, kModelInputDims);
  for (std::size_t r = 0; r < prefix.rows(); ++r) prefix.set_row(r, inputs.row(r));
  std::vector<double> small;
  model.predict_batch_into(prefix, small, scratch);
  for (std::size_t r = 0; r < prefix.rows(); ++r) EXPECT_EQ(small[r], full[r]);
}

/// Batched prediction over the first n rows equals scalar prediction row
/// by row, exactly, for n hitting every 4-row and 8-row tile remainder.
void expect_batched_matches_scalar(const DynamicsModel& model, const Matrix& inputs,
                                   const std::string& stage) {
  BatchScratch scratch;
  std::vector<double> batched;
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 21u, 33u, 87u, 108u, 512u}) {
    ASSERT_LE(n, inputs.rows());
    Matrix prefix(n, inputs.cols());
    for (std::size_t r = 0; r < n; ++r) prefix.set_row(r, inputs.row_view(r));
    model.predict_batch_into(prefix, batched, scratch);
    ASSERT_EQ(batched.size(), n);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(batched[r], model.predict_raw(inputs.row(r)))
          << stage << " n " << n << " row " << r;
    }
  }
}

TEST(DynamicsModelTest, PackedWeightsFollowEveryWeightChange) {
  // predict_batch_into reads a transposed copy of the weights. It must be
  // rebuilt by train(), fine_tune() and the copy constructor: a stale
  // copy would keep serving the old weights through the batched path
  // while the scalar path moves on.
  DynamicsModelConfig cfg = fast_config();
  cfg.hidden = {32, 32};  // the pipeline's widths: full 32-output tiles
  cfg.trainer.epochs = 10;
  const Matrix inputs = toy_dataset(600, 12).inputs();

  DynamicsModel model(cfg);
  model.train(toy_dataset(400, 13));
  expect_batched_matches_scalar(model, inputs, "train");

  DynamicsModel copy(model);
  expect_batched_matches_scalar(copy, inputs, "copy");

  copy.fine_tune(toy_dataset(200, 14), 3, 1);
  expect_batched_matches_scalar(copy, inputs, "fine_tune");
  // The source model kept its own weights and its own packed copy.
  expect_batched_matches_scalar(model, inputs, "source after copy's fine_tune");
  EXPECT_NE(copy.predict_raw(inputs.row(0)), model.predict_raw(inputs.row(0)));
}

TEST(DynamicsModelTest, TrainingReportShowsConvergence) {
  const TransitionDataset data = toy_dataset(1000, 7);
  DynamicsModel model(fast_config());
  const nn::TrainingReport report = model.train(data);
  EXPECT_LT(report.final_train_loss, report.train_loss_per_epoch.front());
}

TEST(ModelEvalTest, KStepRolloutErrorGrowsWithHorizon) {
  // Open-loop error should be no smaller over 8 steps than over 1 step.
  CollectionConfig cc;
  cc.episodes = 1;
  env::EnvConfig ec;
  ec.days = 3;
  const TransitionDataset data = collect_historical_data(ec, cc);
  DynamicsModel model(fast_config());
  model.train(data);
  const double e1 = k_step_rollout_mae(model, data, 1);
  const double e8 = k_step_rollout_mae(model, data, 8);
  EXPECT_GE(e8, e1 * 0.5);  // allow noise but 8-step should not be drastically smaller
  EXPECT_LT(e1, 0.5);
}

TEST(ModelEvalTest, RejectsDegenerateInputs) {
  DynamicsModel model(fast_config());
  const TransitionDataset data = toy_dataset(10, 8);
  model.train(data);
  EXPECT_THROW(one_step_rmse(model, TransitionDataset{}), std::invalid_argument);
  EXPECT_THROW(k_step_rollout_mae(model, data, 10), std::invalid_argument);
}

}  // namespace
}  // namespace verihvac::dyn
