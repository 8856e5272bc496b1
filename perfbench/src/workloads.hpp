// The benchmark's three phases — DT serving, fleet-step bursts and
// extract -> adapt — and the shapes each workload runs them at.
//
// Every run reports every metric of its mode, so every workload runs all
// three phases: its own phase at the full shape that names the workload
// and for most of the run, the other two at a fixed compact shape (the
// DT phase keeps its sessions and only runs shorter). The compact phases
// keep each metric defined on every workload; comparisons are always per
// workload, so a compact value is only ever compared with the same
// compact value of another commit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "assets.hpp"
#include "common/task_pool.hpp"
#include "span_trace.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. A correctness failure clears `correct`; a failed
/// operation (a throwing future, a dropped decision, a refused request)
/// counts in `failed`.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void fail(const std::string& problem);
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// Shape of the rollout micro-measures (control.*, dynamics.*,
/// common.pool_gain): candidates x horizon per fan-out.
struct RolloutShape {
  std::size_t candidates = 1024;
  std::size_t horizon = 5;
  const char* name = "serving";
};

/// A run is `rounds` rounds of one slice of each phase, so every phase is
/// sampled across the whole run rather than in one stretch of it.
struct Shapes {
  std::string workload;
  std::size_t rounds = 6;
  double dt_slice_seconds = 0.0;
  std::size_t burst_buildings = 256;
  double burst_slice_seconds = 0.0;
  /// Decision points of each extraction (the pipeline's quick preset has
  /// 900; `verihvac_cli extract --points 120` is the compact shape).
  std::size_t decision_points = 120;
  RolloutShape rollout;
};

/// Throws std::invalid_argument for an unknown workload name.
Shapes shapes_for(const std::string& workload, double seconds);

struct BenchContext {
  std::uint64_t seed = 0;
  std::size_t cores = 1;
  /// The pool sized to the usable cores (serving and adaptation).
  std::shared_ptr<const verihvac::common::TaskPool> pool;
  std::shared_ptr<const verihvac::common::TaskPool> pool1;
  std::size_t queue_shards = 2;
};

/// Serving stacks prepared during set-up (their construction is part of
/// setup_s) and consumed by the phases.
struct DtStack;
struct BurstStack;

struct Prepared {
  Assets assets;
  std::unique_ptr<DtStack> dt;
  std::unique_ptr<BurstStack> burst;

  Prepared();
  ~Prepared();
  Prepared(Prepared&&) noexcept;
  Prepared& operator=(Prepared&&) noexcept;
};

Prepared prepare(const BenchContext& ctx, const Shapes& shapes);

/// The measured rounds, then the correctness checks. The phase metrics
/// (dt_*, fleet_step_*, mbrl_*, extract_s, adapt_generation_s) go to
/// `phase`, the per-layer metrics of the untraced rounds (serve.*
/// counters, common.pool_* of the workload's own phase) to
/// result.per_layer.
void run_measured(const BenchContext& ctx, const Shapes& shapes, Prepared& prepared,
                  RunResult& result, std::map<std::string, Metric>& phase);

/// The same rounds traced: staged calls into each layer with spans
/// recorded into `trace`, per-layer metrics into result.per_layer, and
/// the traced phase metrics into `phase`.
void run_traced(const BenchContext& ctx, const Shapes& shapes, Prepared& prepared,
                RunResult& result, SpanTrace& trace, std::map<std::string, Metric>& phase);

/// control.rollout_candidates_per_s, dynamics.predict_rows_per_s,
/// dynamics.predict_gflops (computed) and common.pool_gain at `shape`.
void measure_rollout_layers(const BenchContext& ctx, const Assets& assets,
                            const RolloutShape& shape, RunResult& result);

/// Chains a counter of concurrent fan-outs behind the obs task-pool hook
/// (common.pool_overlap_mean). Call once, after the obs registry exists.
void install_pool_overlap_hook();

}  // namespace perfbench
