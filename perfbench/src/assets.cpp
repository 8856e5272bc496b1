#include "assets.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "control/action_space.hpp"
#include "control/rule_based.hpp"
#include "core/policy_io.hpp"
#include "dynamics/dataset.hpp"
#include "weather/climate.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBundleKeys = 8;
constexpr std::size_t kBundlePoints = 1500;
constexpr std::size_t kObservationPool = 1 << 16;
constexpr std::size_t kForecastPool = 1 << 12;
constexpr std::size_t kDriftBuildings = 8;

/// Greedy one-step supervision: the action (from a menu of common
/// setpoint pairs) whose predicted next zone temperature lands closest to
/// the key's target, with a small energy penalty. Gives CART trees of the
/// size the extraction pipeline produces (tens to ~100 leaves).
vh::core::DtPolicy fit_bundle(const Assets& assets, std::size_t key, std::size_t variant) {
  const vh::control::ActionSpace actions;
  std::vector<std::size_t> menu;
  for (const double heat : {15.0, 17.0, 19.0, 20.0, 21.0, 22.0, 23.0}) {
    for (const double cool : {24.0, 26.0, 28.0}) {
      menu.push_back(actions.nearest_index({heat, cool}));
    }
  }
  const double target = 20.5 + 0.5 * static_cast<double>(key % 5);
  vh::Rng rng = vh::Rng::stream(mix(assets.seed, 0xB0D1E), key * 2 + variant);
  const std::size_t dims = assets.model->input_dims();
  vh::Matrix inputs(menu.size(), dims);
  std::vector<double> next;
  vh::dyn::BatchScratch scratch;
  vh::core::DecisionDataset data;
  for (std::size_t i = 0; i < kBundlePoints; ++i) {
    const std::vector<double> x = assets.sampler->sample(rng).first;
    for (std::size_t m = 0; m < menu.size(); ++m) {
      for (std::size_t d = 0; d < x.size(); ++d) inputs(m, d) = x[d];
      const vh::sim::SetpointPair& a = actions.action(menu[m]);
      inputs(m, assets.model->heat_index()) = a.heating_c;
      inputs(m, assets.model->cool_index()) = a.cooling_c;
    }
    assets.model->predict_batch_into(inputs, next, scratch);
    std::size_t best = 0;
    double best_cost = 0.0;
    for (std::size_t m = 0; m < menu.size(); ++m) {
      const vh::sim::SetpointPair& a = actions.action(menu[m]);
      const double cost = std::abs(next[m] - target) + 0.03 * (a.heating_c - 15.0) +
                          0.01 * (30.0 - a.cooling_c);
      if (m == 0 || cost < best_cost) {
        best = m;
        best_cost = cost;
      }
    }
    data.records.push_back({x, menu[best]});
  }
  vh::tree::TreeConfig tree;
  tree.min_samples_leaf = 6;
  return vh::core::DtPolicy::fit(data, actions, tree);
}

/// A small fleet under the default BMS schedule whose plants degrade
/// (capacity loss, envelope leak) after the first day: the telemetry the
/// adaptation workload replays.
DriftTelemetry record_drifted_fleet(const Assets& assets) {
  DriftTelemetry out;
  out.buildings = kDriftBuildings;
  out.steps = 3 * 96;
  out.drift_step = 96;
  const vh::control::ActionSpace actions;
  std::vector<vh::env::BuildingEnv> envs;
  std::vector<vh::env::Observation> obs;
  for (std::size_t b = 0; b < out.buildings; ++b) {
    vh::env::EnvConfig config = assets.env;
    config.days = 4;
    config.occupancy.first_weekday = 0;  // Monday: every recorded day is occupied
    config.weather_seed = mix(assets.seed, 0xD21F7, b);
    envs.emplace_back(config);
    obs.push_back(envs.back().reset());
    out.session_seeds.push_back(mix(assets.seed, 0x5E55, b));
  }
  vh::control::RuleBasedController schedule(assets.env.default_occupied,
                                            assets.env.default_unoccupied);
  vh::sim::Degradation degradation;
  degradation.hvac_capacity_factor = 0.3;
  degradation.heating_efficiency_factor = 0.7;
  degradation.envelope_leak_factor = 1.8;
  for (std::size_t step = 0; step < out.steps; ++step) {
    if (step == out.drift_step) {
      for (auto& env : envs) env.apply_degradation(degradation);
    }
    for (std::size_t b = 0; b < out.buildings; ++b) {
      RecordedDecision decision;
      decision.building = b;
      decision.decision_index = step;
      decision.action_index = actions.nearest_index(schedule.act(obs[b], {}));
      decision.action = actions.action(decision.action_index);
      decision.observation = obs[b];
      out.decisions.push_back(decision);
      obs[b] = envs[b].step(decision.action).observation;
    }
  }
  return out;
}

}  // namespace

std::string bundle_bytes(const vh::core::DtPolicy& policy) {
  std::ostringstream out;
  vh::core::write_policy(policy, out);
  return out.str();
}

Assets build_assets(std::uint64_t seed) {
  Assets assets;
  assets.seed = seed;
  assets.env.climate = vh::weather::profile_by_name("Pittsburgh");
  assets.env.days = 7;
  assets.env.weather_seed = mix(seed, 0xE17);

  vh::dyn::CollectionConfig collection;
  collection.episodes = 1;
  collection.seed = mix(seed, 0xC011);
  assets.historical = vh::dyn::collect_historical_data(assets.env, collection);

  vh::dyn::DynamicsModelConfig model_config;
  model_config.trainer.epochs = 20;
  model_config.init_seed = mix(seed, 0x1A17);
  auto model = std::make_shared<vh::dyn::DynamicsModel>(model_config);
  model->train(assets.historical);
  assets.model = model;

  assets.sampler = std::make_unique<vh::core::AugmentedSampler>(
      assets.historical.policy_inputs(), 0.01);

  for (std::size_t k = 0; k < kBundleKeys; ++k) {
    assets.keys.push_back("Pittsburgh/preset" + std::to_string(k));
    auto variant_a = std::make_shared<const vh::core::DtPolicy>(fit_bundle(assets, k, 0));
    auto variant_b = std::make_shared<const vh::core::DtPolicy>(fit_bundle(assets, k, 1));
    assets.bundles.push_back({std::move(variant_a), std::move(variant_b)});
  }

  const vh::core::DecisionDataGenerator continuation(assets.historical, {});
  vh::Rng rng = vh::Rng::stream(mix(seed, 0x0B5), 0);
  assets.observations.reserve(kObservationPool);
  for (std::size_t i = 0; i < kObservationPool; ++i) {
    const auto [x, row] = assets.sampler->sample(rng);
    assets.observations.push_back(vh::env::baseline_schema().to_observation(x));
    if (i < kForecastPool) {
      assets.forecasts.push_back(continuation.forecast_from(row, kServeHorizon));
    }
  }

  assets.drift = record_drifted_fleet(assets);
  return assets;
}

}  // namespace perfbench
