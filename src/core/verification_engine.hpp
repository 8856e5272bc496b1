// Parallel multi-workload verification engine — the certification
// counterpart of control::RolloutEngine.
//
// The three verification workloads of the paper are embarrassingly
// parallel, each at a different granularity:
//   * criterion #1 Monte-Carlo (§3.3.2): independent per sample,
//   * interval certification (branch-and-bound input splitting):
//     independent per (leaf × cell),
//   * Eq. 3 reachability tubes: independent per initial state.
// VerificationEngine batches all three over the shared common::TaskPool.
//
// Determinism contract (mirrors the rollout engine's): every work unit
// writes to its own output slot and the reductions are serial scans in a
// fixed order, so reports are BIT-IDENTICAL for every thread count
// (VERI_HVAC_THREADS=1/4/8, locked in by
// tests/core/verification_engine_test.cpp). For the Monte-Carlo verifier
// this additionally requires decoupling the RNG from the schedule: sample
// i draws from its own counter-based stream Rng::stream(seed, i) instead
// of a single shared sequence, so the estimate depends only on (seed, i)
// — never on which worker ran the sample. verify_probabilistic is the
// repo's one criterion-#1 estimator: the pipeline, refit, the CLI, the
// campaign and the adaptation certify step all call it, and a pool of one
// thread is its serial path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/task_pool.hpp"
#include "core/certificate_cache.hpp"
#include "core/interval_verify.hpp"
#include "core/reachability.hpp"
#include "core/verification.hpp"
#include "obs/instruments.hpp"

namespace verihvac::core {

class VerificationEngine {
 public:
  /// Wraps the given pool (defaults to the process-wide shared pool, so
  /// control and verification share one set of worker threads).
  explicit VerificationEngine(std::shared_ptr<const common::TaskPool> pool = nullptr);

  const common::TaskPool& pool() const { return *pool_; }
  std::size_t thread_count() const { return pool_->thread_count(); }

  /// Criterion #1 Monte-Carlo over per-sample RNG streams: sample i runs
  /// its rejection loop (safe occupied input with an occupied
  /// continuation) entirely inside Rng::stream(seed, i) and contributes
  /// one accept to the estimate. Bit-identical across thread counts. Each
  /// worker advances its slice's accepted inputs with one batched forward
  /// (dyn::DynamicsModel::predict_batch_into).
  ProbabilisticReport verify_probabilistic(const DtPolicy& policy,
                                           const dyn::DynamicsModel& model,
                                           const AugmentedSampler& sampler,
                                           const VerificationCriteria& criteria,
                                           std::size_t n_samples, std::uint64_t seed) const;

  /// Interval certification fanned out per (leaf × input-splitting cell).
  /// Produces a report bit-identical to verify_interval_one_step.
  IntervalReport verify_interval(const DtPolicy& policy, const dyn::DynamicsModel& model,
                                 const VerificationCriteria& criteria,
                                 const DisturbanceBounds& bounds = {},
                                 const IntervalVerifyConfig& config = {}) const;

  /// Incremental re-certification through a CertificateCache: a serial
  /// lookup pass splices every cell whose (dynamics hash, box) key is
  /// cached, only the missing cells fan out over the pool, and the
  /// unchanged serial fold assembles the report — bit-identical to
  /// verify_interval on the same inputs, at every thread count, whatever
  /// the cache holds (every cached image was produced by the same pure
  /// function on the same bits; mismatched keys never splice — see
  /// core/certificate_cache.hpp). When the missing fraction exceeds
  /// recert.fallback_fraction, every cell is recomputed in one parallel
  /// sweep instead (broad drift: a futile lookup pass must not precede
  /// full price). Freshly computed images are inserted and the policy is
  /// recorded as the cache's incumbent. The cache is not thread-safe; one
  /// incremental run may touch it at a time. `run_stats`, when non-null,
  /// receives this run's splice/compute/diff accounting.
  IntervalReport verify_interval_incremental(const DtPolicy& policy,
                                             const dyn::DynamicsModel& model,
                                             const VerificationCriteria& criteria,
                                             CertificateCache& cache,
                                             const DisturbanceBounds& bounds = {},
                                             const IntervalVerifyConfig& config = {},
                                             const RecertConfig& recert = {},
                                             RecertStats* run_stats = nullptr) const;

  /// Cumulative certification observability (atomic; snapshot is not a
  /// consistent cross-counter transaction). Surfaced in the adaptation
  /// promotion log lines and the recert bench JSON. Dual-published: this
  /// per-engine snapshot stays exact, and every increment also lands in
  /// the process-wide obs registry (`verify_*` instruments); each entry
  /// point additionally opens a "verify" trace span.
  struct Stats {
    std::uint64_t interval_runs = 0;       ///< full verify_interval calls
    std::uint64_t incremental_runs = 0;    ///< verify_interval_incremental calls
    std::uint64_t recert_cells_total = 0;  ///< cells seen by incremental runs
    std::uint64_t recert_cells_cached = 0;
    std::uint64_t recert_cells_computed = 0;
    std::uint64_t recert_fallbacks = 0;  ///< broad invalidation -> full recompute
  };
  Stats stats() const;

  /// Eq. 3 reachability tubes fanned out per initial state; tube i of the
  /// result corresponds to initial_states[i]. All tubes share the one
  /// disturbance sequence (see reach_tube for its step contract).
  std::vector<ReachabilityResult> reach_tubes(
      const DtPolicy& policy, const dyn::DynamicsModel& model,
      const std::vector<std::vector<double>>& initial_states,
      const std::vector<env::Disturbance>& disturbances, std::size_t horizon) const;

 private:
  std::shared_ptr<const common::TaskPool> pool_;
  // Counters are mutable atomics: the verification entry points stay
  // const (shared engines are used concurrently), and observability must
  // not serialize them behind a lock.
  mutable std::atomic<std::uint64_t> interval_runs_{0};
  mutable std::atomic<std::uint64_t> incremental_runs_{0};
  mutable std::atomic<std::uint64_t> recert_cells_total_{0};
  mutable std::atomic<std::uint64_t> recert_cells_cached_{0};
  mutable std::atomic<std::uint64_t> recert_cells_computed_{0};
  mutable std::atomic<std::uint64_t> recert_fallbacks_{0};

  /// Process-wide obs instruments (resolved once at construction).
  struct ObsHandles {
    obs::Counter* probabilistic_runs;
    obs::Counter* interval_runs;
    obs::Counter* incremental_runs;
    obs::Counter* reach_runs;
    obs::Counter* recert_cells_total;
    obs::Counter* recert_cells_cached;
    obs::Counter* recert_cells_computed;
    obs::Counter* recert_fallbacks;
  };
  ObsHandles obs_;
};

}  // namespace verihvac::core
