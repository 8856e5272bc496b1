// Scalar reference planner for the random-shooting tests.
//
// Independent of RandomShooting::optimize_batch on purpose: it shares only
// the candidate draws (draw_sequences) and scores each candidate with the
// scalar rollout_return, one model step at a time, then takes the same
// first-best argmax and, if configured, the same first-action refine. The
// optimizer's batched, sharded, cross-request path must reproduce it bit
// for bit.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "control/random_shooting.hpp"

namespace verihvac::control::testing {

/// One decision of `rs` (whose action space has `action_count` actions),
/// drawn from `rng` exactly as RandomShooting::optimize draws it.
inline std::size_t reference_optimize(const RandomShooting& rs, std::size_t action_count,
                                      const dyn::DynamicsModel& model,
                                      const env::Observation& obs,
                                      const std::vector<env::Disturbance>& forecast, Rng& rng) {
  const std::vector<std::vector<std::size_t>> sequences = rs.draw_sequences(rng);
  double best_return = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best = sequences.front();
  for (const std::vector<std::size_t>& sequence : sequences) {
    const double value = rs.rollout_return(model, obs, forecast, sequence);
    if (value > best_return) {
      best_return = value;
      best = sequence;
    }
  }
  if (rs.config().refine_first_action) {
    std::vector<std::size_t> candidate = best;
    for (std::size_t a = 0; a < action_count; ++a) {
      candidate.front() = a;
      const double value = rs.rollout_return(model, obs, forecast, candidate);
      if (value > best_return) {
        best_return = value;
        best.front() = a;
      }
    }
  }
  return best.front();
}

}  // namespace verihvac::control::testing
