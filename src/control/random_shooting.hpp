// Random Shooting (RS) stochastic optimizer — Eq. 1 of the paper.
//
// Samples N candidate action sequences of length H uniformly from the
// discrete action space, rolls each out through the learned dynamics model
// against the known disturbance forecast, scores them with the discounted
// Eq. 2 reward, and returns the first action of the best sequence. This is
// the optimizer MB2C [9] validated with sample_number=1000, horizon=20 —
// the paper-scale defaults here, scaled down by benches via config.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "control/action_space.hpp"
#include "control/rollout_engine.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/observation.hpp"
#include "envlib/reward.hpp"

namespace verihvac::control {

/// Per-worker persistent scratch for the lock-step batch scoring path
/// (same caller-owned convention as dyn::PredictScratch / BatchScratch).
/// One instance lives in each pool worker's thread-local storage, so the
/// candidate-state matrix and all activation buffers are allocated once
/// per thread and reused across every decision of the process lifetime.
struct RolloutScratch {
  /// Live candidate inputs, one 8-dim model-input row per candidate.
  Matrix states;
  /// Batched one-step predictions for the current horizon step.
  std::vector<double> next_temps;
  /// Per-candidate running discount factor.
  std::vector<double> discounts;
  /// Per-candidate action applied at the current step.
  std::vector<sim::SetpointPair> actions;
  /// Fused normalize -> network -> denormalize predict scratch.
  dyn::BatchScratch batch;
};

struct RandomShootingConfig {
  std::size_t samples = 1000;  ///< candidate sequences per decision
  std::size_t horizon = 20;    ///< planning steps (20 x 15 min = 5 h)
  double gamma = 0.99;         ///< discount factor
  /// Fraction of candidates drawn as *constant* (persistence) sequences —
  /// a standard shooting variance-reduction. Argmax over the summed return
  /// of fully random sequences exerts almost no selection pressure on the
  /// one action actually executed (the first), which is exactly the Fig. 1
  /// stochasticity; constant candidates restore that pressure wherever a
  /// held setpoint is near-optimal (e.g. unoccupied setback) while leaving
  /// the comfort-dominated occupied hours as stochastic as before.
  double persistent_fraction = 0.25;
  /// After the shooting pass, re-optimize the *executed* action: hold the
  /// best sequence's tail fixed and enumerate every first action, taking
  /// the argmax. Costs one extra |A|-rollout sweep but removes the label
  /// noise of argmax-over-sums entirely (many near-equivalent first
  /// actions split the Monte-Carlo mass, so the paper's modal aggregation
  /// can land on a minority behaviour). Off by default — the plain RS
  /// baseline of Fig. 1 must keep its stochasticity; the decision-data
  /// generator (§3.2.1) turns it on for sharp supervision.
  bool refine_first_action = false;
};

class RandomShooting {
 public:
  RandomShooting(RandomShootingConfig config, const ActionSpace& actions,
                 env::RewardConfig reward);

  /// One decision: candidates drawn from `rng` roll out through `model` from
  /// `obs` against `forecast` (>= horizon entries; entry k = disturbances
  /// at step t+k). Requests may share an Rng: draws go in request order.
  struct PlanRequest {
    const dyn::DynamicsModel& model;
    const env::Observation& obs;
    const std::vector<env::Disturbance>& forecast;
    Rng& rng;
  };

  /// One optimization: returns the index (into the action space) of the
  /// chosen first action. A batch of one.
  std::size_t optimize(const dyn::DynamicsModel& model, const env::Observation& obs,
                       const std::vector<env::Disturbance>& forecast, Rng& rng) const;

  /// Plans every request, writing actions_out[i] for requests[i]: draws
  /// each request's candidates in request order, scores all of them in one
  /// lock-step pass sharded over the engine, takes each request's serial
  /// first-best argmax, and (refine_first_action) rescores every first
  /// action under each winner's tail in one more pass. An answer depends
  /// only on its request, so it is bit-identical for any batch composition,
  /// order and thread count. A forecast shorter than the horizon throws
  /// std::invalid_argument before any draw.
  void optimize_batch(const std::vector<PlanRequest>& requests,
                      std::vector<std::size_t>& actions_out) const;

  /// Draws the candidate sequences of one decision (samples x horizon; the
  /// configured persistent fraction held constant). Scoring consumes no
  /// randomness, so this is the *entire* stochastic footprint of a
  /// decision.
  std::vector<std::vector<std::size_t>> draw_sequences(Rng& rng) const;

  /// Scores a fixed action sequence one scalar model step at a time
  /// (VIPER's per-action values, tests). Thread-safe: its predict scratch
  /// is per thread.
  double rollout_return(const dyn::DynamicsModel& model, const env::Observation& obs,
                        const std::vector<env::Disturbance>& forecast,
                        const std::vector<std::size_t>& action_sequence) const;

  /// Scores every candidate sequence, writing returns[i] for sequences[i]
  /// (the scorer behind CEM and MPPI). Candidates advance in lock-step, one
  /// batched forward (dyn::DynamicsModel::predict_batch_into) per horizon
  /// step, sharded over the engine as contiguous per-worker slices.
  /// Per-candidate arithmetic is independent of batch composition, so
  /// results are bit-identical to rollout_return for any thread count and
  /// any sharding (locked in by tests/control/rollout_engine_test.cpp).
  void rollout_returns(const dyn::DynamicsModel& model, const env::Observation& obs,
                       const std::vector<env::Disturbance>& forecast,
                       const std::vector<std::vector<std::size_t>>& sequences,
                       std::vector<double>& returns) const;

  /// Lock-step batch scoring of the contiguous slice [begin, end) of
  /// `sequences` (the per-worker unit of rollout_returns and
  /// optimize_batch, exposed for the throughput bench). Writes returns[s]
  /// for s in [begin, end); `returns` must already have sequences.size()
  /// entries.
  void rollout_returns_slice(const dyn::DynamicsModel& model, const env::Observation& obs,
                             const std::vector<env::Disturbance>& forecast,
                             const std::vector<std::vector<std::size_t>>& sequences,
                             std::size_t begin, std::size_t end, std::vector<double>& returns,
                             RolloutScratch& scratch) const;

  /// Attaches (or detaches, with nullptr) the parallel rollout engine.
  void set_engine(std::shared_ptr<const RolloutEngine> engine) { engine_ = std::move(engine); }

  const RandomShootingConfig& config() const { return config_; }

 private:
  RandomShootingConfig config_;
  ActionSpace actions_;  ///< by value: a pointer would dangle on temporaries
  env::RewardConfig reward_;
  std::shared_ptr<const RolloutEngine> engine_;  ///< null = serial scoring
};

}  // namespace verihvac::control
