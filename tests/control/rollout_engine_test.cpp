#include "control/rollout_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "control/cem.hpp"
#include "control/mbrl_agent.hpp"
#include "control/mppi.hpp"
#include "control/random_shooting.hpp"
#include "control/rs_reference.hpp"

namespace verihvac::control {
namespace {

TEST(RolloutEngineTest, CoversEveryIndexExactlyOnce) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/1});
  for (std::size_t n : {0u, 1u, 3u, 16u, 100u, 1013u}) {
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    engine.parallel_for(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(RolloutEngineTest, WorkerIdsStayInRange) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/1});
  std::atomic<bool> out_of_range{false};
  engine.parallel_for(256, [&](std::size_t worker, std::size_t, std::size_t) {
    if (worker >= engine.thread_count()) out_of_range.store(true);
  });
  EXPECT_FALSE(out_of_range.load());
}

TEST(RolloutEngineTest, SmallBatchRunsInlineOnCaller) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/64});
  std::vector<std::size_t> workers;
  engine.parallel_for(8, [&](std::size_t worker, std::size_t begin, std::size_t end) {
    // Inline path: single invocation covering the whole range on worker 0.
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 8u);
    workers.push_back(worker);
  });
  EXPECT_EQ(workers.size(), 1u);
}

TEST(RolloutEngineTest, SingleThreadConfigSpawnsNoWorkers) {
  RolloutEngine engine({/*threads=*/1, /*min_parallel_batch=*/1});
  EXPECT_EQ(engine.thread_count(), 1u);
  int calls = 0;
  engine.parallel_for(32, [&](std::size_t, std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(end - begin, 32u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(RolloutEngineTest, PropagatesExceptionsFromWorkers) {
  RolloutEngine engine({/*threads=*/4, /*min_parallel_batch=*/1});
  EXPECT_THROW(
      engine.parallel_for(128,
                          [&](std::size_t, std::size_t begin, std::size_t) {
                            if (begin == 0) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool must survive a throwing batch and keep serving work.
  std::atomic<std::size_t> covered{0};
  engine.parallel_for(64, [&](std::size_t, std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(RolloutEngineTest, SharedEngineIsReused) {
  const auto a = RolloutEngine::shared();
  const auto b = RolloutEngine::shared();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GE(a->thread_count(), 1u);
}

/// Fixture with a tiny trained dynamics model (same recipe as cem_test).
class ParallelRolloutTest : public ::testing::Test {
 protected:
  static double toy_plant(const std::vector<double>& x, const sim::SetpointPair& a) {
    const double t = x[env::kZoneTemp];
    double dt = 0.08 * (x[env::kOutdoorTemp] - t);
    if (t < a.heating_c) dt += 0.4 * std::min(a.heating_c - t, 1.2);
    if (t > a.cooling_c) dt -= 0.35 * std::min(t - a.cooling_c, 1.2);
    return t + dt;
  }

  static const dyn::DynamicsModel& model() {
    static const dyn::DynamicsModel* instance = train_toy(1, {16, 16});
    return *instance;
  }

  /// A second, differently shaped model for mixed-model batches.
  static const dyn::DynamicsModel& other_model() {
    static const dyn::DynamicsModel* instance = train_toy(2, {24});
    return *instance;
  }

  static const dyn::DynamicsModel* train_toy(std::uint64_t seed,
                                             std::vector<std::size_t> hidden) {
    Rng rng(seed);
    dyn::TransitionDataset data;
    for (int i = 0; i < 1500; ++i) {
      dyn::Transition t;
      t.input = {rng.uniform(14.0, 28.0), rng.uniform(-8.0, 12.0), 50.0, 3.0,
                 rng.uniform(0.0, 400.0), rng.bernoulli(0.5) ? 11.0 : 0.0};
      t.action.heating_c = static_cast<double>(rng.uniform_int(15, 23));
      t.action.cooling_c = static_cast<double>(
          rng.uniform_int(std::max(21, static_cast<int>(t.action.heating_c)), 30));
      t.next_zone_temp = toy_plant(t.input, t.action);
      data.add(t);
    }
    dyn::DynamicsModelConfig cfg;
    cfg.hidden = std::move(hidden);
    cfg.trainer.epochs = 30;
    cfg.trainer.adam.learning_rate = 3e-3;
    auto* m = new dyn::DynamicsModel(cfg);
    m->train(data);
    return m;
  }

  static env::Observation cold_occupied() {
    env::Observation obs;
    obs.zone_temp_c = 17.5;
    obs.weather.outdoor_temp_c = -5.0;
    obs.weather.humidity_pct = 50.0;
    obs.weather.wind_mps = 3.0;
    obs.occupants = 11.0;
    return obs;
  }

  static std::vector<env::Disturbance> persistence_forecast(const env::Observation& obs,
                                                            std::size_t h) {
    env::Disturbance d;
    d.weather = obs.weather;
    d.occupants = obs.occupants;
    return std::vector<env::Disturbance>(h, d);
  }

  static std::shared_ptr<const RolloutEngine> four_threads() {
    static const auto engine = std::make_shared<const RolloutEngine>(
        RolloutEngineConfig{/*threads=*/4, /*min_parallel_batch=*/1});
    return engine;
  }

  /// Engines for the VERI_HVAC_THREADS=1/4/8 identity sweeps.
  static std::shared_ptr<const RolloutEngine> engine_with_threads(std::size_t threads) {
    return std::make_shared<const RolloutEngine>(
        RolloutEngineConfig{threads, /*min_parallel_batch=*/1});
  }
};

TEST_F(ParallelRolloutTest, ScratchPredictMatchesMemberScratchPredict) {
  const env::Observation obs = cold_occupied();
  const std::vector<double> x = obs.to_vector();
  dyn::PredictScratch scratch;
  for (double heat : {15.0, 19.0, 23.0}) {
    const sim::SetpointPair action{heat, heat + 7.0};
    EXPECT_DOUBLE_EQ(model().predict(x, action), model().predict(x, action, scratch));
  }
}

TEST_F(ParallelRolloutTest, BatchReturnsMatchSerialReturns) {
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 6, 0.99}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);

  Rng rng(7);
  std::vector<std::vector<std::size_t>> sequences(40, std::vector<std::size_t>(6));
  for (auto& seq : sequences) {
    for (auto& a : seq) a = rng.index(actions.size());
  }

  std::vector<double> serial(sequences.size());
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    serial[s] = rs.rollout_return(model(), obs, forecast, sequences[s]);
  }

  rs.set_engine(four_threads());
  std::vector<double> parallel;
  rs.rollout_returns(model(), obs, forecast, sequences, parallel);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t s = 0; s < serial.size(); ++s) {
    EXPECT_DOUBLE_EQ(parallel[s], serial[s]) << "sequence " << s;
  }
}

TEST_F(ParallelRolloutTest, BatchedSliceBitIdenticalToScalarRolloutForAnySlicing) {
  // The lock-step kernel's per-candidate arithmetic must be independent of
  // how the batch is sliced into sub-batches — that is what makes the
  // sharded path thread-count invariant.
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 5, 0.97}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 5);

  Rng rng(31);
  std::vector<std::vector<std::size_t>> sequences(23, std::vector<std::size_t>(5));
  for (auto& seq : sequences) {
    for (auto& a : seq) a = rng.index(actions.size());
  }

  std::vector<double> scalar(sequences.size());
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    scalar[s] = rs.rollout_return(model(), obs, forecast, sequences[s]);
  }

  for (std::size_t slice : {1u, 4u, 7u, 23u}) {
    std::vector<double> batched(sequences.size(), -1.0);
    RolloutScratch scratch;
    for (std::size_t begin = 0; begin < sequences.size(); begin += slice) {
      const std::size_t end = std::min(begin + slice, sequences.size());
      rs.rollout_returns_slice(model(), obs, forecast, sequences, begin, end, batched, scratch);
    }
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      EXPECT_EQ(batched[s], scalar[s]) << "slice " << slice << " sequence " << s;
    }
  }
}

TEST_F(ParallelRolloutTest, BatchedReturnsHandleRaggedSequences) {
  // Mixed-length candidate sets: shorter candidates must stop accumulating
  // reward at their own horizon while longer ones keep going.
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 8, 0.99}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 8);

  Rng rng(37);
  std::vector<std::vector<std::size_t>> sequences;
  for (std::size_t len : {8u, 1u, 5u, 0u, 8u, 3u}) {
    std::vector<std::size_t> seq(len);
    for (auto& a : seq) a = rng.index(actions.size());
    sequences.push_back(seq);
  }

  std::vector<double> batched;
  rs.rollout_returns(model(), obs, forecast, sequences, batched);
  ASSERT_EQ(batched.size(), sequences.size());
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    EXPECT_EQ(batched[s], rs.rollout_return(model(), obs, forecast, sequences[s]))
        << "sequence " << s << " (length " << sequences[s].size() << ")";
  }
  EXPECT_EQ(batched[3], 0.0);  // empty sequence scores zero
}

TEST_F(ParallelRolloutTest, ReturnsBitIdenticalAcrossOneFourEightThreads) {
  const ActionSpace actions;
  RandomShooting rs(RandomShootingConfig{1, 6, 0.99}, actions, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);

  Rng rng(41);
  std::vector<std::vector<std::size_t>> sequences(60, std::vector<std::size_t>(6));
  for (auto& seq : sequences) {
    for (auto& a : seq) a = rng.index(actions.size());
  }

  std::vector<double> scalar(sequences.size());
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    scalar[s] = rs.rollout_return(model(), obs, forecast, sequences[s]);
  }
  for (std::size_t threads : {1u, 4u, 8u}) {
    RandomShooting batched_rs(RandomShootingConfig{1, 6, 0.99}, actions, env::RewardConfig{});
    batched_rs.set_engine(engine_with_threads(threads));
    std::vector<double> batched;
    batched_rs.rollout_returns(model(), obs, forecast, sequences, batched);
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      EXPECT_EQ(batched[s], scalar[s]) << threads << " threads, sequence " << s;
    }
  }
}

TEST_F(ParallelRolloutTest, RandomShootingDecisionIdenticalAcrossThreadCounts) {
  const ActionSpace actions;
  RandomShootingConfig cfg;
  cfg.samples = 96;
  cfg.horizon = 6;
  cfg.refine_first_action = true;
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 6);

  RandomShooting serial(cfg, actions, env::RewardConfig{});
  for (std::size_t threads : {1u, 4u, 8u}) {
    RandomShooting parallel(cfg, actions, env::RewardConfig{});
    parallel.set_engine(engine_with_threads(threads));
    for (std::uint64_t seed : {3u, 17u, 91u}) {
      Rng rng_a(seed);
      Rng rng_b(seed);
      EXPECT_EQ(
          testing::reference_optimize(serial, actions.size(), model(), obs, forecast, rng_a),
          parallel.optimize(model(), obs, forecast, rng_b))
          << threads << " threads, seed " << seed;
    }
  }
}

class RandomShootingTest : public ParallelRolloutTest {};

TEST_F(RandomShootingTest, OptimizeBatchMatchesScalarReference) {
  // Seven distinct decisions: two differently shaped models, cold to warm
  // and occupied/unoccupied zones, drifting forecasts of 5-7 steps.
  struct Decision {
    const dyn::DynamicsModel* model;
    env::Observation obs;
    std::vector<env::Disturbance> forecast;
    std::uint64_t seed;
  };
  std::vector<Decision> decisions;
  for (std::size_t k = 0; k < 7; ++k) {
    Decision d{k % 2 == 0 ? &model() : &other_model(), cold_occupied(), {}, 100 + 13 * k};
    d.obs.zone_temp_c = 15.0 + 1.5 * static_cast<double>(k);
    if (k % 3 == 2) d.obs.occupants = 0.0;
    d.forecast = persistence_forecast(d.obs, 5 + k % 3);
    for (std::size_t t = 0; t < d.forecast.size(); ++t) {
      d.forecast[t].weather.outdoor_temp_c += (k % 2 == 0 ? 0.7 : -0.7) * static_cast<double>(t);
    }
    decisions.push_back(std::move(d));
  }

  // Plans decisions[order[i]] as request i, each from a fresh Rng(seed);
  // also returns each stream's next draw, so the draws consumed are checked.
  const auto plan = [&](const RandomShooting& rs, const std::vector<std::size_t>& order,
                        std::vector<std::uint64_t>& next_draws) {
    std::vector<Rng> rngs;
    rngs.reserve(order.size());
    std::vector<RandomShooting::PlanRequest> requests;
    for (const std::size_t k : order) {
      rngs.emplace_back(decisions[k].seed);
      requests.push_back({*decisions[k].model, decisions[k].obs, decisions[k].forecast,
                          rngs.back()});
    }
    std::vector<std::size_t> actions_out;
    rs.optimize_batch(requests, actions_out);
    next_draws.clear();
    for (Rng& rng : rngs) next_draws.push_back(rng());
    return actions_out;
  };

  const ActionSpace actions;
  for (const bool refine : {false, true}) {
    RandomShootingConfig cfg;
    cfg.samples = 48;
    cfg.horizon = 5;
    cfg.refine_first_action = refine;
    const RandomShooting scalar(cfg, actions, env::RewardConfig{});
    std::vector<std::size_t> expected;
    std::vector<std::uint64_t> expected_next;
    for (const Decision& d : decisions) {
      Rng rng(d.seed);
      expected.push_back(
          testing::reference_optimize(scalar, actions.size(), *d.model, d.obs, d.forecast, rng));
      expected_next.push_back(rng());
    }
    // The batch must tell the decisions apart for the permutations to mean
    // anything.
    EXPECT_GT(std::set<std::size_t>(expected.begin(), expected.end()).size(), 1u)
        << "refine " << refine;

    for (const std::size_t threads : {1u, 4u, 8u}) {
      RandomShooting rs(cfg, actions, env::RewardConfig{});
      rs.set_engine(engine_with_threads(threads));
      std::vector<std::vector<std::size_t>> orders;
      for (const std::size_t size : {1u, 2u, 7u}) {
        std::vector<std::size_t> order(size);
        std::iota(order.begin(), order.end(), std::size_t{0});
        orders.push_back(order);
        std::reverse(order.begin(), order.end());
        orders.push_back(order);
      }
      orders.push_back({3, 6, 0, 5, 1, 4, 2});
      for (const std::vector<std::size_t>& order : orders) {
        std::vector<std::uint64_t> next_draws;
        const std::vector<std::size_t> got = plan(rs, order, next_draws);
        ASSERT_EQ(got.size(), order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          EXPECT_EQ(got[i], expected[order[i]])
              << "refine " << refine << ", " << threads << " threads, batch of "
              << order.size() << ", decision " << order[i] << " at position " << i;
          EXPECT_EQ(next_draws[i], expected_next[order[i]]) << "decision " << order[i];
        }
      }

      // One Rng shared by all seven requests: they draw from it in request
      // order, exactly as seven sequential decisions would.
      Rng shared(4242);
      Rng sequential(4242);
      std::vector<RandomShooting::PlanRequest> requests;
      std::vector<std::size_t> sequential_answers;
      for (const Decision& d : decisions) {
        requests.push_back({*d.model, d.obs, d.forecast, shared});
        sequential_answers.push_back(testing::reference_optimize(
            scalar, actions.size(), *d.model, d.obs, d.forecast, sequential));
      }
      std::vector<std::size_t> got;
      rs.optimize_batch(requests, got);
      EXPECT_EQ(got, sequential_answers) << "shared Rng, " << threads << " threads";
      EXPECT_EQ(shared(), sequential());
    }
  }
}

TEST_F(RandomShootingTest, OptimizeBatchRejectsShortForecastBeforeDrawing) {
  RandomShootingConfig cfg;
  cfg.samples = 8;
  cfg.horizon = 5;
  const RandomShooting rs(cfg, ActionSpace{}, env::RewardConfig{});
  const env::Observation obs = cold_occupied();
  const auto full = persistence_forecast(obs, 5);
  const auto short_forecast = persistence_forecast(obs, 4);
  Rng rng(5);
  std::vector<std::size_t> actions_out;
  EXPECT_THROW(rs.optimize_batch({{model(), obs, full, rng}, {model(), obs, short_forecast, rng}},
                                 actions_out),
               std::invalid_argument);
  Rng fresh(5);
  EXPECT_EQ(rng(), fresh());
}

class MbrlAgentTest : public ParallelRolloutTest {};

TEST_F(MbrlAgentTest, ActionDistributionMatchesSequentialDecisions) {
  // Plain (unrefined) random shooting: decisions vary with the draws, so
  // equal counts and equal follow-up decisions mean equal streams.
  RandomShootingConfig cfg;
  cfg.samples = 24;
  cfg.horizon = 5;
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 5);
  constexpr std::size_t kRepeats = 12;
  for (const std::size_t threads : {1u, 4u}) {
    MbrlAgent batched(model(), cfg, ActionSpace{}, env::RewardConfig{}, /*seed=*/77);
    batched.set_engine(engine_with_threads(threads));
    MbrlAgent sequential(model(), cfg, ActionSpace{}, env::RewardConfig{}, /*seed=*/77);

    const std::vector<std::size_t> counts = batched.action_distribution(obs, forecast, kRepeats);
    std::vector<std::size_t> expected(ActionSpace{}.size(), 0);
    for (std::size_t r = 0; r < kRepeats; ++r) ++expected[sequential.decide_once(obs, forecast)];
    EXPECT_EQ(counts, expected) << threads << " threads";
    EXPECT_GT(std::count_if(expected.begin(), expected.end(), [](std::size_t c) { return c > 0; }),
              1)
        << "the optimizer should be stochastic at this budget";
    for (int next = 0; next < 3; ++next) {
      EXPECT_EQ(batched.decide_once(obs, forecast), sequential.decide_once(obs, forecast))
          << threads << " threads, decision " << kRepeats + next;
    }
  }
}

TEST_F(ParallelRolloutTest, CemDecisionIdenticalAcrossThreadCounts) {
  const ActionSpace actions;
  CemConfig cfg;
  cfg.samples = 64;
  cfg.horizon = 4;
  cfg.iterations = 3;
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 4);

  Cem serial(cfg, actions, env::RewardConfig{});
  for (std::size_t threads : {1u, 4u, 8u}) {
    Cem parallel(cfg, actions, env::RewardConfig{});
    parallel.set_engine(engine_with_threads(threads));
    Rng rng_a(23);
    Rng rng_b(23);
    EXPECT_EQ(serial.optimize(model(), obs, forecast, rng_a),
              parallel.optimize(model(), obs, forecast, rng_b))
        << threads << " threads";
  }
}

TEST_F(ParallelRolloutTest, MppiDecisionIdenticalAcrossThreadCounts) {
  const ActionSpace actions;
  MppiConfig cfg;
  cfg.samples = 64;
  cfg.horizon = 4;
  cfg.iterations = 2;
  const env::Observation obs = cold_occupied();
  const auto forecast = persistence_forecast(obs, 4);

  Mppi serial(cfg, actions, env::RewardConfig{});
  for (std::size_t threads : {1u, 4u, 8u}) {
    Mppi parallel(cfg, actions, env::RewardConfig{});
    parallel.set_engine(engine_with_threads(threads));
    Rng rng_a(29);
    Rng rng_b(29);
    EXPECT_EQ(serial.optimize(model(), obs, forecast, rng_a),
              parallel.optimize(model(), obs, forecast, rng_b))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace verihvac::control
