#include "control/random_shooting.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace verihvac::control {

namespace {

/// The calling thread's persistent RolloutScratch: pool workers live for
/// the process, so each worker's candidate matrix and activation buffers
/// warm up once and serve every subsequent batch.
RolloutScratch& worker_rollout_scratch() {
  static thread_local RolloutScratch scratch;
  return scratch;
}

/// Runs body(begin, end) over [0, n): inline on the caller without an
/// engine (or with a one-thread engine), else over the engine's contiguous
/// per-worker slices.
template <typename Body>
void for_each_slice(const RolloutEngine* engine, std::size_t n, const Body& body) {
  if (engine == nullptr || engine->thread_count() <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  engine->parallel_for(n, [&](std::size_t, std::size_t begin, std::size_t end) {
    body(begin, end);
  });
}

}  // namespace

RandomShooting::RandomShooting(RandomShootingConfig config, const ActionSpace& actions,
                               env::RewardConfig reward)
    : config_(config), actions_(actions), reward_(reward) {
  if (config_.samples == 0 || config_.horizon == 0) {
    throw std::invalid_argument("RandomShooting: samples and horizon must be positive");
  }
}

double RandomShooting::rollout_return(const dyn::DynamicsModel& model,
                                      const env::Observation& obs,
                                      const std::vector<env::Disturbance>& forecast,
                                      const std::vector<std::size_t>& action_sequence) const {
  assert(forecast.size() >= action_sequence.size());
  // Warm per-thread scratch keeps the single-sequence path allocation-free
  // (VIPER's per-candidate value estimation loops over this entry point).
  static thread_local dyn::PredictScratch scratch;
  const env::FeatureSchema& schema = model.schema();
  const std::size_t zone_dim = schema.zone_temp_index();
  const std::size_t occ_dim = schema.occupancy_index();
  std::vector<double> x = schema.to_vector(obs);
  double discount = 1.0;
  double total = 0.0;
  for (std::size_t t = 0; t < action_sequence.size(); ++t) {
    const sim::SetpointPair action = actions_.action(action_sequence[t]);
    const double next_temp = model.predict(x, action, scratch);
    // r(f_hat(s_t, d_t, a_t), a_t): comfort of the predicted state plus the
    // energy proxy of the action taken, weighted by occupancy at step t.
    const bool occupied = x[occ_dim] > 0.5;
    total += discount * env::reward(reward_, next_temp, action, occupied);
    discount *= config_.gamma;

    // Advance the input to step t+1: predicted state + forecast disturbances.
    x[zone_dim] = next_temp;
    schema.apply_disturbance(forecast[t], x.data());
  }
  return total;
}

void RandomShooting::rollout_returns_slice(const dyn::DynamicsModel& model,
                                           const env::Observation& obs,
                                           const std::vector<env::Disturbance>& forecast,
                                           const std::vector<std::vector<std::size_t>>& sequences,
                                           std::size_t begin, std::size_t end,
                                           std::vector<double>& returns,
                                           RolloutScratch& scratch) const {
  assert(end <= sequences.size() && returns.size() >= sequences.size());
  const std::size_t n = end - begin;
  if (n == 0) return;
  std::size_t max_len = 0;
  for (std::size_t s = begin; s < end; ++s) max_len = std::max(max_len, sequences[s].size());
  assert(forecast.size() >= max_len);

  // Structure-of-arrays candidate state: row r holds candidate begin+r's
  // current model input (schema observation dims + the 2 setpoints of the
  // action about to be applied).
  const env::FeatureSchema& schema = model.schema();
  const std::size_t zone_dim = schema.zone_temp_index();
  const std::size_t occ_dim = schema.occupancy_index();
  const std::size_t heat_col = model.heat_index();
  const std::size_t cool_col = model.cool_index();
  const std::vector<double> x0 = schema.to_vector(obs);
  scratch.states.resize(n, model.input_dims());
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(x0.begin(), x0.end(), scratch.states.row_data(r));
  }
  scratch.discounts.assign(n, 1.0);
  scratch.actions.resize(n);
  for (std::size_t s = begin; s < end; ++s) returns[s] = 0.0;

  for (std::size_t t = 0; t < max_len; ++t) {
    // Stage the step-t action of every still-live candidate into the two
    // setpoint columns. Finished candidates (shorter sequences) keep their
    // last state/action: they still ride through the batched forward — the
    // prediction is discarded, so they cannot affect any other row.
    for (std::size_t r = 0; r < n; ++r) {
      const std::vector<std::size_t>& seq = sequences[begin + r];
      if (t >= seq.size()) continue;
      const sim::SetpointPair action = actions_.action(seq[t]);
      scratch.actions[r] = action;
      scratch.states(r, heat_col) = action.heating_c;
      scratch.states(r, cool_col) = action.cooling_c;
    }
    // One batched forward advances every candidate in lock-step.
    model.predict_batch_into(scratch.states, scratch.next_temps, scratch.batch);

    const env::Disturbance& d = forecast[t];
    for (std::size_t r = 0; r < n; ++r) {
      if (t >= sequences[begin + r].size()) continue;
      const double next_temp = scratch.next_temps[r];
      const bool occupied = scratch.states(r, occ_dim) > 0.5;
      returns[begin + r] +=
          scratch.discounts[r] * env::reward(reward_, next_temp, scratch.actions[r], occupied);
      scratch.discounts[r] *= config_.gamma;

      double* row = scratch.states.row_data(r);
      row[zone_dim] = next_temp;
      schema.apply_disturbance(d, row);
    }
  }
}

void RandomShooting::rollout_returns(const dyn::DynamicsModel& model,
                                     const env::Observation& obs,
                                     const std::vector<env::Disturbance>& forecast,
                                     const std::vector<std::vector<std::size_t>>& sequences,
                                     std::vector<double>& returns) const {
  returns.resize(sequences.size());
  // Each worker runs the lock-step pipeline on its contiguous slice with its
  // own persistent scratch. Slicing cannot change any candidate's
  // arithmetic (rows are independent through the batched forward), so
  // decisions stay bit-identical across thread counts.
  for_each_slice(engine_.get(), sequences.size(), [&](std::size_t begin, std::size_t end) {
    rollout_returns_slice(model, obs, forecast, sequences, begin, end, returns,
                          worker_rollout_scratch());
  });
}

std::vector<std::vector<std::size_t>> RandomShooting::draw_sequences(Rng& rng) const {
  std::vector<std::vector<std::size_t>> sequences(config_.samples);
  for (auto& sequence : sequences) {
    sequence.resize(config_.horizon);
    if (rng.bernoulli(config_.persistent_fraction)) {
      sequence.assign(config_.horizon, rng.index(actions_.size()));
    } else {
      for (auto& a : sequence) a = rng.index(actions_.size());
    }
  }
  return sequences;
}

std::size_t RandomShooting::optimize(const dyn::DynamicsModel& model,
                                     const env::Observation& obs,
                                     const std::vector<env::Disturbance>& forecast,
                                     Rng& rng) const {
  std::vector<std::size_t> action;
  optimize_batch({PlanRequest{model, obs, forecast, rng}}, action);
  return action.front();
}

void RandomShooting::optimize_batch(const std::vector<PlanRequest>& requests,
                                    std::vector<std::size_t>& actions_out) const {
  for (const PlanRequest& request : requests) {
    if (request.forecast.size() < config_.horizon) {
      throw std::invalid_argument("RandomShooting: forecast shorter than horizon");
    }
  }
  const std::size_t n = requests.size();
  actions_out.resize(n);
  if (n == 0) return;

  // Draw every candidate first, in request order: scoring consumes no
  // randomness, so each request sees exactly the stream of a decision made
  // on its own.
  std::vector<std::vector<std::vector<std::size_t>>> candidates(n);
  std::vector<std::vector<std::size_t>> best(n);
  for (std::size_t i = 0; i < n; ++i) {
    candidates[i] = draw_sequences(requests[i].rng);
    best[i] = candidates[i].front();
  }

  // The requests' candidate sets form one flattened index space
  // [offsets[i], offsets[i+1]). A worker's contiguous slice may span request
  // boundaries; each (request, sub-range) overlap advances in lock-step
  // through the batched predict, so batching cannot change any bits. The
  // serial first-best argmax then folds the scores into best[i].
  std::vector<std::vector<double>> returns(n);
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<double> best_returns(n, -std::numeric_limits<double>::infinity());
  const auto score_and_select = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      offsets[i + 1] = offsets[i] + candidates[i].size();
      returns[i].resize(candidates[i].size());
    }
    for_each_slice(engine_.get(), offsets[n], [&](std::size_t begin, std::size_t end) {
      std::size_t i = static_cast<std::size_t>(
          std::upper_bound(offsets.begin(), offsets.end(), begin) - offsets.begin() - 1);
      for (; i < n && offsets[i] < end; ++i) {
        const std::size_t lo = std::max(begin, offsets[i]) - offsets[i];
        const std::size_t hi = std::min(end, offsets[i + 1]) - offsets[i];
        if (lo >= hi) continue;
        rollout_returns_slice(requests[i].model, requests[i].obs, requests[i].forecast,
                              candidates[i], lo, hi, returns[i], worker_rollout_scratch());
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t s = 0; s < returns[i].size(); ++s) {
        if (returns[i][s] > best_returns[i]) {
          best_returns[i] = returns[i][s];
          best[i] = candidates[i][s];
        }
      }
    }
  };
  score_and_select();

  if (config_.refine_first_action) {
    // Coordinate-descent pass on the executed action: each winner's tail
    // fixed, its first action enumerated exhaustively.
    for (std::size_t i = 0; i < n; ++i) {
      candidates[i].assign(actions_.size(), best[i]);
      for (std::size_t a = 0; a < actions_.size(); ++a) candidates[i][a].front() = a;
    }
    score_and_select();
  }
  for (std::size_t i = 0; i < n; ++i) actions_out[i] = best[i].front();
}

}  // namespace verihvac::control
