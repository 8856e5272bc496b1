#include "core/verification_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "envlib/observation.hpp"
#include "obs/trace.hpp"

namespace verihvac::core {

VerificationEngine::VerificationEngine(std::shared_ptr<const common::TaskPool> pool)
    : pool_(pool ? std::move(pool) : common::TaskPool::shared()),
      obs_{&obs::counter("verify_probabilistic_runs_total"),
           &obs::counter("verify_interval_runs_total"),
           &obs::counter("verify_incremental_runs_total"),
           &obs::counter("verify_reach_runs_total"), &obs::counter("verify_recert_cells_total"),
           &obs::counter("verify_recert_cells_cached_total"),
           &obs::counter("verify_recert_cells_computed_total"),
           &obs::counter("verify_recert_fallbacks_total")} {}

ProbabilisticReport VerificationEngine::verify_probabilistic(
    const DtPolicy& policy, const dyn::DynamicsModel& model, const AugmentedSampler& sampler,
    const VerificationCriteria& criteria, std::size_t n_samples, std::uint64_t seed) const {
  const obs::TraceSpan span("verify.probabilistic", "verify");
  obs_.probabilistic_runs->add(1);
  ProbabilisticReport report;
  if (n_samples == 0) {
    // "Not measured" must not render as 0% safe (same convention as
    // CampaignRow::tube_within_fraction).
    report.safe_probability = std::numeric_limits<double>::quiet_NaN();
    return report;
  }
  const Matrix& historical = sampler.historical();
  const std::size_t occ_dim = sampler.schema().occupancy_index();
  const std::size_t model_dims = model.input_dims();
  const std::size_t heat_col = model.heat_index();
  const std::size_t cool_col = model.cool_index();

  // One byte per sample: failure flags are per-index slots, reduced by a
  // serial scan — order-independent of the worker schedule.
  //
  // Each worker runs in two phases over its slice: (1) draw every sample's
  // input from its own counter-based stream and stage it, with the
  // policy's action, as one row of a model-input batch matrix; (2) advance the
  // whole slice with a single batched forward. The RNG streams are
  // untouched by the batching — the accepted input stays a pure function
  // of (seed, i) — and the batched forward is bit-identical per row to the
  // scalar predict it replaces, so reports match the scalar path exactly.
  std::vector<std::uint8_t> failed(n_samples, 0);
  struct McScratch {
    dyn::BatchScratch batch;
    Matrix inputs;
    std::vector<double> next_temps;
  };
  std::vector<McScratch> scratches(pool_->thread_count());
  pool_->parallel_for(n_samples, [&](std::size_t worker, std::size_t begin, std::size_t end) {
    McScratch& scratch = scratches[worker];
    const std::size_t n = end - begin;
    Matrix& inputs = scratch.inputs;
    inputs.reshape(n, model_dims);  // every element is overwritten
    for (std::size_t i = begin; i < end; ++i) {
      // The whole rejection loop lives inside sample i's own stream: the
      // accepted input is a pure function of (seed, i).
      Rng rng = Rng::stream(seed, i);
      std::vector<double> x;
      for (int attempt = 0;; ++attempt) {
        auto drawn = sample_safe_occupied(sampler, criteria.comfort, rng);
        if (continuation_occupied(historical, drawn.second, 1, occ_dim)) {
          x = std::move(drawn.first);
          break;
        }
        if (attempt >= 10000) {
          throw std::runtime_error(
              "verify_probabilistic: no safe occupied state with occupied continuation");
        }
      }
      const sim::SetpointPair action = policy.decide(x);
      double* row = inputs.row_data(i - begin);
      std::copy(x.begin(), x.end(), row);
      row[heat_col] = action.heating_c;
      row[cool_col] = action.cooling_c;
    }
    model.predict_batch_into(inputs, scratch.next_temps, scratch.batch);
    for (std::size_t r = 0; r < n; ++r) {
      failed[begin + r] = criteria.comfort.contains(scratch.next_temps[r]) ? 0 : 1;
    }
  });

  report.samples = n_samples;
  for (std::uint8_t f : failed) report.failures += f;
  report.safe_probability =
      1.0 - static_cast<double>(report.failures) / static_cast<double>(report.samples);
  return report;
}

namespace {

/// Flattens the (leaf × cell) grid: cell c of item l lands in the global
/// slot offsets[l] + c, so images are computed in any schedule but folded
/// in the serial path's exact order.
std::vector<std::size_t> cell_offsets(const std::vector<IntervalWorkItem>& items) {
  std::vector<std::size_t> offsets(items.size() + 1, 0);
  for (std::size_t l = 0; l < items.size(); ++l) {
    offsets[l + 1] = offsets[l] + items[l].cells.size();
  }
  return offsets;
}

std::vector<std::size_t> all_slots(std::size_t n) {
  std::vector<std::size_t> slots(n);
  std::iota(slots.begin(), slots.end(), std::size_t{0});
  return slots;
}

/// The cell in global slot g.
const Box& cell_at(const std::vector<IntervalWorkItem>& items,
                   const std::vector<std::size_t>& offsets, std::size_t g) {
  const auto next = std::upper_bound(offsets.begin(), offsets.end(), g);
  const auto l = static_cast<std::size_t>(next - offsets.begin()) - 1;
  return items[l].cells[g - offsets[l]];
}

/// Fills images[g] for every slot g in `slots` over the pool.
void sweep_images(const common::TaskPool& pool, const dyn::DynamicsModel& model,
                  const std::vector<IntervalWorkItem>& items,
                  const std::vector<std::size_t>& offsets, const std::vector<std::size_t>& slots,
                  std::vector<Interval>& images) {
  std::vector<IntervalScratch> scratches(pool.thread_count());
  pool.parallel_for(slots.size(), [&](std::size_t worker, std::size_t begin, std::size_t end) {
    for (std::size_t m = begin; m < end; ++m) {
      const Box& cell = cell_at(items, offsets, slots[m]);
      images[slots[m]] = interval_next_state(model, cell, scratches[worker]);
    }
  });
}

/// The serial fold, leaf by leaf in item order.
void fold_images(const std::vector<IntervalWorkItem>& items,
                 const std::vector<std::size_t>& offsets, const std::vector<Interval>& images,
                 const env::ComfortRange& comfort, IntervalReport& report) {
  for (std::size_t l = 0; l < items.size(); ++l) {
    const std::vector<Interval> leaf_images(
        images.begin() + static_cast<std::ptrdiff_t>(offsets[l]),
        images.begin() + static_cast<std::ptrdiff_t>(offsets[l + 1]));
    ++report.leaves_subject;
    IntervalLeafResult result = fold_interval_leaf(items[l], leaf_images, comfort);
    if (result.certified) ++report.leaves_certified;
    report.results.push_back(std::move(result));
  }
}

}  // namespace

IntervalReport VerificationEngine::verify_interval(const DtPolicy& policy,
                                                   const dyn::DynamicsModel& model,
                                                   const VerificationCriteria& criteria,
                                                   const DisturbanceBounds& bounds,
                                                   const IntervalVerifyConfig& config) const {
  const obs::TraceSpan span("verify.interval", "verify");
  IntervalReport report;
  const std::vector<IntervalWorkItem> items =
      interval_work_items(policy, criteria, bounds, config, report.leaves_total);
  const std::vector<std::size_t> offsets = cell_offsets(items);
  std::vector<Interval> images(offsets.back());
  sweep_images(*pool_, model, items, offsets, all_slots(images.size()), images);
  fold_images(items, offsets, images, criteria.comfort, report);
  interval_runs_.fetch_add(1, std::memory_order_relaxed);
  obs_.interval_runs->add(1);
  return report;
}

IntervalReport VerificationEngine::verify_interval_incremental(
    const DtPolicy& policy, const dyn::DynamicsModel& model,
    const VerificationCriteria& criteria, CertificateCache& cache,
    const DisturbanceBounds& bounds, const IntervalVerifyConfig& config,
    const RecertConfig& recert, RecertStats* run_stats) const {
  const obs::TraceSpan span("verify.interval_incremental", "verify");
  IntervalReport report;
  const std::vector<IntervalWorkItem> items =
      interval_work_items(policy, criteria, bounds, config, report.leaves_total);
  const std::vector<std::size_t> offsets = cell_offsets(items);
  const std::size_t total_cells = offsets.back();

  RecertStats stats;
  stats.cells_total = total_cells;
  const std::uint64_t dyn_hash = hash_dynamics(model);
  if (cache.has_incumbent()) {
    stats.dynamics_changed = dyn_hash != cache.incumbent_dynamics_hash();
    const TreeDiff diff = cache.diff_against_incumbent(policy);
    stats.diff_leaves_total = diff.leaves_total;
    stats.diff_leaves_changed = diff.leaves_changed;
  }

  // Serial splice pass: cached images land in their slots, the rest queue
  // for the parallel sweep. Serial on purpose — the cache is single-writer
  // and a lookup is three orders of magnitude cheaper than an IBP forward.
  std::vector<Interval> images(total_cells);
  std::vector<std::size_t> missing;
  for (std::size_t l = 0; l < items.size(); ++l) {
    for (std::size_t c = 0; c < items[l].cells.size(); ++c) {
      CertificateKey key{dyn_hash, items[l].cells[c]};
      if (auto cached = cache.lookup(key)) {
        images[offsets[l] + c] = *cached;
      } else {
        missing.push_back(offsets[l] + c);
      }
    }
  }

  // Broad invalidation (fine-tuned dynamics, reshaped schema/config):
  // splicing a sliver is not worth the bookkeeping — recompute everything
  // in one sweep, exactly the full path's fan-out.
  stats.fallback_full =
      total_cells > 0 && static_cast<double>(missing.size()) >
                             recert.fallback_fraction * static_cast<double>(total_cells);
  if (stats.fallback_full) missing = all_slots(total_cells);
  stats.cells_computed = missing.size();
  stats.cells_cached = total_cells - missing.size();

  sweep_images(*pool_, model, items, offsets, missing, images);

  // Serial insert pass (single-writer cache), then the fold.
  for (const std::size_t g : missing) {
    cache.insert(CertificateKey{dyn_hash, cell_at(items, offsets, g)}, images[g]);
  }
  fold_images(items, offsets, images, criteria.comfort, report);
  cache.note_certified(policy, dyn_hash);

  incremental_runs_.fetch_add(1, std::memory_order_relaxed);
  recert_cells_total_.fetch_add(stats.cells_total, std::memory_order_relaxed);
  recert_cells_cached_.fetch_add(stats.cells_cached, std::memory_order_relaxed);
  recert_cells_computed_.fetch_add(stats.cells_computed, std::memory_order_relaxed);
  if (stats.fallback_full) recert_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  obs_.incremental_runs->add(1);
  obs_.recert_cells_total->add(stats.cells_total);
  obs_.recert_cells_cached->add(stats.cells_cached);
  obs_.recert_cells_computed->add(stats.cells_computed);
  if (stats.fallback_full) obs_.recert_fallbacks->add(1);
  if (run_stats != nullptr) *run_stats = stats;
  return report;
}

VerificationEngine::Stats VerificationEngine::stats() const {
  Stats s;
  s.interval_runs = interval_runs_.load(std::memory_order_relaxed);
  s.incremental_runs = incremental_runs_.load(std::memory_order_relaxed);
  s.recert_cells_total = recert_cells_total_.load(std::memory_order_relaxed);
  s.recert_cells_cached = recert_cells_cached_.load(std::memory_order_relaxed);
  s.recert_cells_computed = recert_cells_computed_.load(std::memory_order_relaxed);
  s.recert_fallbacks = recert_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

std::vector<ReachabilityResult> VerificationEngine::reach_tubes(
    const DtPolicy& policy, const dyn::DynamicsModel& model,
    const std::vector<std::vector<double>>& initial_states,
    const std::vector<env::Disturbance>& disturbances, std::size_t horizon) const {
  const obs::TraceSpan span("verify.reach_tubes", "verify");
  obs_.reach_runs->add(1);
  std::vector<ReachabilityResult> tubes(initial_states.size());
  std::vector<dyn::PredictScratch> scratches(pool_->thread_count());
  pool_->parallel_for(initial_states.size(),
                      [&](std::size_t worker, std::size_t begin, std::size_t end) {
                        dyn::PredictScratch& scratch = scratches[worker];
                        for (std::size_t i = begin; i < end; ++i) {
                          tubes[i] = reach_tube(policy, model, initial_states[i], disturbances,
                                                horizon, scratch);
                        }
                      });
  return tubes;
}

}  // namespace verihvac::core
