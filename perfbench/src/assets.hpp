// Set-up: every input the workloads feed the program, generated from the
// run's seed. Nothing here is timed as workload; build_assets() as a whole
// is what setup_s measures.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_data.hpp"
#include "core/dt_policy.hpp"
#include "dynamics/dynamics_model.hpp"
#include "envlib/env.hpp"

namespace perfbench {

namespace vh = verihvac;

/// SplitMix64 finalizer: the benchmark's counter-based input generator.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) { return mix(a ^ mix(b)); }
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(mix(a, b), c);
}

/// One decision of the recorded drifted fleet, replayed into a fresh
/// TelemetryLog by the adaptation workload.
struct RecordedDecision {
  std::size_t building = 0;
  std::uint64_t decision_index = 0;
  std::size_t action_index = 0;
  vh::sim::SetpointPair action;
  vh::env::Observation observation;
};

struct DriftTelemetry {
  std::vector<std::uint64_t> session_seeds;  ///< one per building
  /// Step-major: all buildings' decisions of step 0, then step 1, ...
  std::vector<RecordedDecision> decisions;
  std::size_t buildings = 0;
  std::size_t steps = 0;
  std::size_t drift_step = 0;
};

struct Assets {
  std::uint64_t seed = 0;
  vh::env::EnvConfig env;
  vh::dyn::TransitionDataset historical;
  std::shared_ptr<const vh::dyn::DynamicsModel> model;
  std::unique_ptr<vh::core::AugmentedSampler> sampler;
  /// Bundle keys; bundles[k] holds the two variants hot swaps alternate.
  std::vector<std::string> keys;
  std::vector<std::array<std::shared_ptr<const vh::core::DtPolicy>, 2>> bundles;
  /// Observation pool (AugmentedSampler draws) every DT request picks from.
  std::vector<vh::env::Observation> observations;
  /// Forecast for observations[i], i < forecasts.size(): the historical
  /// continuation of the row the draw was anchored at (MBRL requests).
  std::vector<std::vector<vh::env::Disturbance>> forecasts;
  DriftTelemetry drift;
};

/// Serving-scale random shooting: the FleetConfig defaults (64 x 5).
inline constexpr std::size_t kServeSamples = 64;
inline constexpr std::size_t kServeHorizon = 5;

Assets build_assets(std::uint64_t seed);

/// Canonical bytes of a bundle (core::write_policy).
std::string bundle_bytes(const vh::core::DtPolicy& policy);

}  // namespace perfbench
