#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "adapt/adaptation_controller.hpp"
#include "adapt/telemetry.hpp"
#include "control/random_shooting.hpp"
#include "core/pipeline.hpp"
#include "core/verification.hpp"
#include "obs/instruments.hpp"
#include "obs/trace.hpp"
#include "serve/request_scheduler.hpp"
#include "stats.hpp"

namespace perfbench {

namespace serve = verihvac::serve;
namespace control = verihvac::control;
namespace core = verihvac::core;
namespace adapt = verihvac::adapt;
namespace dyn = verihvac::dyn;
namespace env = verihvac::env;
namespace common = verihvac::common;
namespace obs = verihvac::obs;

namespace {

constexpr double kMbrlFraction = 0.25;
/// Leading burst steps replayed through the inline scalar reference.
constexpr std::size_t kCheckSteps = 16;
/// Steps the burst phase needs for a p99 with ten samples beyond it.
constexpr std::size_t kMinBurstSteps = 1100;
/// DT sessions at every shape: the 10^5-session working set is what the
/// fleet's DT path runs against (a 10^4 set fits the caches and runs
/// about 1.5x faster).
constexpr std::size_t kDtSessions = 100000;
/// Serving stacks (segments) per burst slice; see run_burst_slice.
constexpr std::size_t kBurstSegmentsPerRound = 3;
/// Unrecorded steps a fresh burst stack serves before its segment starts.
constexpr std::size_t kWarmupSteps = 8;
constexpr auto kMbrlBudget = std::chrono::microseconds(4000);
/// Production sampling of the DT tap and of DT latency telemetry (the
/// fleet soak's settings).
constexpr std::size_t kDtSamplePeriod = 32;
/// Client-side latency timing and replay recording, 1 in N requests.
constexpr std::uint64_t kDtTimedPeriod = 64;
constexpr std::uint64_t kDtRecordPeriod = 64;
/// Traced runs keep the spans of 1 in N DT requests.
constexpr std::uint64_t kDtSpanPeriod = 1024;
/// The dt_fleet writer's traffic follows two cadences of the program:
/// - A building's session covers one episode, and FleetConfig's default
///   episode (serve/fleet_harness.hpp, days = 2) is 192 fifteen-minute
///   decisions; so the writer replaces one session per 192 DT decisions
///   served, whatever the serving rate.
/// - A hot swap ends a promoted adaptation generation, and the
///   AdaptationController runs one generation at a time, so a fleet sees
///   at most one swap per generation. The extract_adapt phase measures a
///   generation at 0.23-0.34 s on a quiet 4-vCPU host (adapt_generation_s);
///   the writer swaps every 250 ms, the fastest that cadence allows.
constexpr std::uint64_t kDecisionsPerSession = 2 * 96;
constexpr auto kSwapPeriod = std::chrono::milliseconds(250);
/// The tap is drained at the AdaptationController worker's default poll
/// interval (AdaptationConfig::poll_interval).
constexpr auto kDrainPeriod = std::chrono::milliseconds(50);
/// A churned-out session closes only this long after clients stop picking
/// it, so no in-flight request can reach a closed session.
constexpr auto kRetireGrace = std::chrono::milliseconds(500);
const std::string kAdaptKey = "Pittsburgh/baseline";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }
double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

std::string percentile_note(const char* metric, const PercentileReport& report) {
  return std::string(metric) + ": " + report.label();
}

serve::SchedulerConfig serving_config(std::size_t queue_shards) {
  serve::SchedulerConfig config;
  config.queue_shards = queue_shards;
  config.default_latency_budget = kMbrlBudget;
  config.dt_timing_sample_period = kDtSamplePeriod;
  return config;
}

}  // namespace

void RunResult::fail(const std::string& problem) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", problem.c_str());
}

Shapes shapes_for(const std::string& workload, double seconds) {
  Shapes shapes;
  shapes.workload = workload;
  const double round = seconds / static_cast<double>(shapes.rounds);
  // The workload's own phase gets 60% of the run; the compact DT and burst
  // slices 20% and 15% (a compact burst slice is mostly set by its minimum
  // step count); extraction runs once per round at either shape.
  shapes.dt_slice_seconds = 0.2 * round;
  shapes.burst_slice_seconds = 0.15 * round;
  if (workload == "dt_fleet") {
    shapes.dt_slice_seconds = 0.6 * round;
  } else if (workload == "fleet_burst") {
    shapes.burst_buildings = 1024;
    shapes.burst_slice_seconds = 0.6 * round;
  } else if (workload == "extract_adapt") {
    shapes.decision_points = 900;
    shapes.rollout = {128, 10, "pipeline"};
  } else {
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (expected dt_fleet, fleet_burst or extract_adapt)");
  }
  return shapes;
}

// ---------------------------------------------------------------------------
// Pool instruments.

namespace {

std::atomic<std::uint64_t> g_overlap_calls{0};
std::atomic<std::uint64_t> g_overlap_sum{0};
common::TaskPool::MetricsHook g_previous_hook = nullptr;

void overlap_hook(std::size_t items, double seconds, std::size_t active) {
  if (g_previous_hook != nullptr) g_previous_hook(items, seconds, active);
  g_overlap_calls.fetch_add(1, std::memory_order_relaxed);
  g_overlap_sum.fetch_add(active, std::memory_order_relaxed);
}

/// The taskpool_* instruments (every pool in the process reports into
/// them) summed over the windows a phase times, so common.pool_* describe
/// that phase's fan-outs and nothing run around them.
struct PoolTally {
  std::uint64_t fanouts = 0;
  std::uint64_t items = 0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t overlap_calls = 0;
  std::uint64_t overlap_sum = 0;

  static PoolTally now() {
    PoolTally t;
    t.fanouts = obs::counter("taskpool_batches_total").value();
    t.items = obs::counter("taskpool_items_total").value();
    const auto snapshot = obs::histogram("taskpool_batch_seconds").snapshot();
    t.buckets.assign(snapshot.buckets.begin(), snapshot.buckets.end());
    t.overlap_calls = g_overlap_calls.load();
    t.overlap_sum = g_overlap_sum.load();
    return t;
  }

  /// Adds the fan-outs between `start` and now.
  void add_since(const PoolTally& start) {
    const PoolTally end = now();
    fanouts += end.fanouts - start.fanouts;
    items += end.items - start.items;
    buckets.resize(end.buckets.size(), 0);
    for (std::size_t i = 0; i < end.buckets.size(); ++i) {
      buckets[i] += end.buckets[i] - std::min(end.buckets[i], start.buckets[i]);
    }
    overlap_calls += end.overlap_calls - start.overlap_calls;
    overlap_sum += end.overlap_sum - start.overlap_sum;
  }

  void report(const char* phase, RunResult& result) const {
    auto snapshot = obs::histogram("taskpool_batch_seconds").snapshot();
    snapshot.count = 0;
    for (std::size_t i = 0; i < snapshot.buckets.size(); ++i) {
      snapshot.buckets[i] = i < buckets.size() ? buckets[i] : 0;
      snapshot.count += snapshot.buckets[i];
    }
    const double per_fanout =
        fanouts == 0 ? 0.0 : static_cast<double>(items) / static_cast<double>(fanouts);
    const double overlap = overlap_calls == 0 ? 0.0
                                              : static_cast<double>(overlap_sum) /
                                                    static_cast<double>(overlap_calls);
    std::printf("pool fan-outs of the %s phase's timed windows: %llu, %.1f items each, "
                "p50 %.1f us, %.2f in flight\n",
                phase, static_cast<unsigned long long>(fanouts), per_fanout,
                snapshot.quantile(0.5) * 1e6, overlap);
    result.layer("common.pool_fanouts", static_cast<double>(fanouts), "count");
    result.layer("common.pool_items_per_fanout", per_fanout, "items");
    result.layer("common.pool_fanout_us_p50", snapshot.quantile(0.5) * 1e6, "us");
    result.layer("common.pool_overlap_mean", overlap, "fanouts");
  }
};

}  // namespace

void install_pool_overlap_hook() {
  obs::register_catalog();  // makes sure the obs hook is installed first
  g_previous_hook = common::TaskPool::set_metrics_hook(&overlap_hook);
}

// ---------------------------------------------------------------------------
// Serving stacks (built during set-up).

struct DtStack {
  std::shared_ptr<serve::PolicyRegistry> registry = std::make_shared<serve::PolicyRegistry>();
  std::shared_ptr<serve::SessionManager> sessions = std::make_shared<serve::SessionManager>();
  std::shared_ptr<adapt::TelemetryLog> log;
  std::unique_ptr<serve::RequestScheduler> scheduler;
  /// Session id each client-visible slot currently maps to (churn swaps).
  std::vector<std::atomic<serve::SessionId>> slots;
  /// Every published bundle by registry version, for the serial replay.
  std::map<std::uint64_t, std::shared_ptr<const core::DtPolicy>> by_version;
  std::vector<std::uint64_t> variant;  ///< per key: variant currently installed

  DtStack(const BenchContext& ctx, const Assets& assets, std::size_t n_sessions)
      : slots(n_sessions) {
    adapt::TelemetryConfig telemetry;
    telemetry.dt_sample_period = kDtSamplePeriod;
    log = std::make_shared<adapt::TelemetryLog>(telemetry);
    // DT requests never touch the pool; a one-thread pool spawns nothing.
    scheduler = std::make_unique<serve::RequestScheduler>(
        serving_config(ctx.queue_shards), registry, sessions,
        control::RandomShootingConfig{kServeSamples, kServeHorizon, 0.99},
        control::ActionSpace{}, env::RewardConfig{}, ctx.pool1);
    scheduler->set_tap(log);
    for (std::size_t k = 0; k < assets.keys.size(); ++k) {
      by_version[registry->install(assets.keys[k], assets.bundles[k][0])] =
          assets.bundles[k][0];
      variant.push_back(0);
    }
    for (std::size_t i = 0; i < n_sessions; ++i) {
      serve::SessionConfig session;
      session.policy_key = assets.keys[i % assets.keys.size()];
      session.seed = mix(ctx.seed, 0x5E55, i);
      const serve::SessionId id = sessions->open(session);
      log->register_session(id, session.seed, session.policy_key);
      slots[i].store(id, std::memory_order_relaxed);
    }
  }
};

/// Records when each MBRL decision was answered and its batch solve time.
class BurstTap final : public serve::DecisionTap {
 public:
  BurstTap(serve::SessionId first, std::size_t buildings)
      : first_(first), done_ns_(buildings, 0), solve_s_(buildings, 0.0) {}
  void on_decision(const serve::DecisionEvent& event) noexcept override {
    if (event.kind != serve::RequestKind::kMbrlFallback) return;
    const std::size_t b = static_cast<std::size_t>(event.session - first_);
    if (b >= done_ns_.size()) return;
    done_ns_[b] = now_ns();
    solve_s_[b] = event.latency_seconds;
  }
  std::uint64_t done_ns(std::size_t b) const { return done_ns_[b]; }
  double solve_s(std::size_t b) const { return solve_s_[b]; }

 private:
  serve::SessionId first_;
  std::vector<std::uint64_t> done_ns_;
  std::vector<double> solve_s_;
};

struct BurstStack {
  std::shared_ptr<serve::PolicyRegistry> registry = std::make_shared<serve::PolicyRegistry>();
  std::shared_ptr<serve::SessionManager> sessions = std::make_shared<serve::SessionManager>();
  std::unique_ptr<serve::RequestScheduler> scheduler;
  std::shared_ptr<BurstTap> tap;
  std::vector<serve::SessionId> ids;
  std::vector<std::uint64_t> seeds;
  std::vector<std::size_t> mbrl;  ///< building indices on the MBRL fallback
  std::vector<std::size_t> dt;

  BurstStack(const BenchContext& ctx, const Assets& assets, std::size_t buildings,
             std::shared_ptr<const common::TaskPool> pool, bool start) {
    scheduler = std::make_unique<serve::RequestScheduler>(
        serving_config(ctx.queue_shards), registry, sessions,
        control::RandomShootingConfig{kServeSamples, kServeHorizon, 0.99},
        control::ActionSpace{}, env::RewardConfig{}, std::move(pool));
    for (std::size_t k = 0; k < assets.keys.size(); ++k) {
      registry->install(assets.keys[k], assets.bundles[k][0]);
      scheduler->install_model(assets.keys[k], assets.model);
    }
    const auto stride = static_cast<std::size_t>(std::lround(1.0 / kMbrlFraction));
    for (std::size_t b = 0; b < buildings; ++b) {
      serve::SessionConfig session;
      session.policy_key = assets.keys[b % assets.keys.size()];
      session.seed = mix(ctx.seed, 0xB57, b);
      ids.push_back(sessions->open(session));
      seeds.push_back(session.seed);
      if (ids.back() != ids.front() + b) {
        throw std::logic_error("perfbench: session ids are not consecutive");
      }
      ((b / assets.keys.size()) % stride == 0 ? mbrl : dt).push_back(b);
    }
    tap = std::make_shared<BurstTap>(ids.front(), buildings);
    scheduler->set_tap(tap);
    if (start) scheduler->start();
  }
};

Prepared::Prepared() = default;
Prepared::~Prepared() = default;
Prepared::Prepared(Prepared&&) noexcept = default;
Prepared& Prepared::operator=(Prepared&&) noexcept = default;

Prepared prepare(const BenchContext& ctx, const Shapes& shapes) {
  Prepared prepared;
  prepared.assets = build_assets(ctx.seed);
  prepared.dt = std::make_unique<DtStack>(ctx, prepared.assets, kDtSessions);
  prepared.burst = std::make_unique<BurstStack>(ctx, prepared.assets, shapes.burst_buildings,
                                                ctx.pool, /*start=*/true);
  return prepared;
}

namespace {

// ---------------------------------------------------------------------------
// dt_fleet: closed loop of `cores` client threads over the DT fast path,
// with hot swaps, session churn and a telemetry drain running beside them.

struct DtRecord {
  std::uint64_t version = 0;
  std::uint32_t observation = 0;
  std::uint32_t action = 0;
};

struct DtAccum {
  std::uint64_t slices = 0;
  std::uint64_t decisions = 0;
  std::uint64_t failed = 0;
  std::uint64_t replayed = 0;
  double wall = 0.0;
  std::vector<double> window_rates;
  std::vector<double> latency_us;
  std::vector<double> install_us;
  std::vector<double> churn_us;
  std::array<std::uint64_t, 5> stage_ns{};
};

struct DtClient {
  std::uint64_t decisions = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;
  std::vector<DtRecord> records;
  std::array<std::uint64_t, 5> stage_ns{};
  SpanBuffer spans;
};

/// Staged and composite DT paths must agree before the traced split is
/// trusted: it has to measure the same work the scheduler does.
void check_dt_staged(const BenchContext& ctx, Prepared& prepared, RunResult& result) {
  DtStack& stack = *prepared.dt;
  const Assets& assets = prepared.assets;
  for (std::uint64_t n = 0; n < 2000; ++n) {
    const std::uint64_t h = mix(ctx.seed, 0xD7C, n);
    serve::ControlRequest request;
    request.session = stack.slots[h % stack.slots.size()].load();
    request.observation = assets.observations[(h >> 32) % assets.observations.size()];
    const serve::ControlDecision composite = stack.scheduler->serve(request);
    const serve::PolicySnapshot snapshot =
        stack.registry->lookup(stack.sessions->snapshot(request.session).config.policy_key);
    const std::size_t staged =
        snapshot.policy->decide_index(snapshot.policy->schema().to_vector(request.observation));
    if (staged != composite.action_index) {
      result.fail("dt_fleet: staged DT decision differs from RequestScheduler::serve");
      return;
    }
  }
}

/// One DT slice: `seconds` of the closed loop, appended to `acc`.
void run_dt_slice(const BenchContext& ctx, Prepared& prepared, double seconds, DtAccum& acc,
                  RunResult& result, SpanTrace* trace) {
  DtStack& stack = *prepared.dt;
  const Assets& assets = prepared.assets;
  const std::size_t n_slots = stack.slots.size();
  const std::size_t n_obs = assets.observations.size();
  const std::size_t clients = ctx.cores;
  const bool traced = trace != nullptr;
  const double window_seconds = seconds / 4.0;
  const std::uint64_t slice = acc.slices++;

  std::vector<DtClient> outs(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    outs[c].spans = SpanBuffer(static_cast<std::uint32_t>(c + 1));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ready{0};
  std::vector<std::atomic<std::uint64_t>> progress(clients);
  std::atomic<bool> go{false};

  const auto client = [&](std::size_t c) {
    DtClient& out = outs[c];
    const std::uint64_t client_seed = mix(ctx.seed, 0xC11E, mix(slice, c));
    serve::ControlRequest request;
    request.kind = serve::RequestKind::kDtPolicy;
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::uint64_t n = 0;; ++n) {
      if ((n & 255) == 0) {
        progress[c].store(out.decisions, std::memory_order_relaxed);
        if (stop.load(std::memory_order_relaxed)) break;
      }
      const std::uint64_t h = mix(client_seed, n);
      const auto obs_index = static_cast<std::uint32_t>((h >> 32) % n_obs);
      request.session = stack.slots[h % n_slots].load(std::memory_order_acquire);
      request.observation = assets.observations[obs_index];
      const bool timed = n % kDtTimedPeriod == 0;
      std::uint64_t version = 0;
      std::size_t action = 0;
      try {
        if (!traced) {
          const std::uint64_t t0 = timed ? now_ns() : 0;
          const serve::ControlDecision decision = stack.scheduler->serve(request);
          if (timed) out.latency_us.push_back(ns_to_us(now_ns() - t0));
          version = decision.policy_version;
          action = decision.action_index;
        } else {
          // The DT steps RequestScheduler::serve takes, one public call
          // each: session admission, registry lookup, flattening, tree
          // walk, telemetry tap.
          const std::uint64_t t0 = now_ns();
          const serve::DecisionTicket ticket = stack.sessions->begin_decision(
              request.session, serve::RequestKind::kDtPolicy, request.observation);
          const std::uint64_t t1 = now_ns();
          const serve::PolicySnapshot snapshot = stack.registry->lookup(ticket.policy_key);
          const std::uint64_t t2 = now_ns();
          const std::vector<double> x = snapshot.policy->schema().to_vector(request.observation);
          const std::uint64_t t3 = now_ns();
          action = snapshot.policy->decide_index(x);
          const std::uint64_t t4 = now_ns();
          serve::DecisionEvent event;
          event.session = ticket.session;
          event.decision_index = ticket.stream;
          event.session_seed = ticket.seed;
          event.kind = serve::RequestKind::kDtPolicy;
          event.policy_key = &ticket.policy_key;
          event.policy_version = snapshot.version;
          event.action_index = action;
          event.action = snapshot.policy->actions().action(action);
          event.observation = &request.observation;
          event.schema = &snapshot.policy->schema();
          stack.log->on_decision(event);
          const std::uint64_t t5 = now_ns();
          version = snapshot.version;
          out.stage_ns[0] += t1 - t0;
          out.stage_ns[1] += t2 - t1;
          out.stage_ns[2] += t3 - t2;
          out.stage_ns[3] += t4 - t3;
          out.stage_ns[4] += t5 - t4;
          if (timed) out.latency_us.push_back(ns_to_us(t5 - t0));
          if (n % kDtSpanPeriod == 0) {
            const std::uint64_t request_id = (static_cast<std::uint64_t>(c) << 48) | n;
            const std::int64_t root = out.spans.add("dt.request", t0, t5, -1, request_id);
            out.spans.add("serve.session_begin", t0, t1, root, request_id);
            out.spans.add("serve.registry_lookup", t1, t2, root, request_id);
            out.spans.add("envlib.to_vector", t2, t3, root, request_id);
            out.spans.add("core.dt_decide", t3, t4, root, request_id);
            out.spans.add("adapt.tap", t4, t5, root, request_id);
          }
        }
      } catch (const std::exception&) {
        ++out.failed;
        continue;
      }
      if (n % kDtRecordPeriod == 7) {
        out.records.push_back({version, obs_index, static_cast<std::uint32_t>(action)});
      }
      ++out.decisions;
    }
  };

  // Writer: hot swaps, session churn and the telemetry drain — the write
  // traffic a production fleet runs beside its readers, at the cadences
  // named with kDecisionsPerSession, kSwapPeriod and kDrainPeriod.
  std::vector<double>& install_us = acc.install_us;
  std::vector<double>& churn_us = acc.churn_us;
  const std::size_t writes_before = install_us.size() + churn_us.size();
  std::uint64_t writer_failed = 0;
  std::deque<std::pair<serve::SessionId, std::chrono::steady_clock::time_point>> retired;
  const auto writer = [&] {
    std::vector<adapt::TelemetryRecord> drained;
    // The first swap opens the slice, so even a compact slice swaps once.
    auto next_swap = std::chrono::steady_clock::now();
    auto next_drain = std::chrono::steady_clock::now() + kDrainPeriod;
    std::uint64_t churns = 0;
    std::uint64_t swaps = 0;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!stop.load(std::memory_order_relaxed)) {
      std::uint64_t served = 0;
      for (const auto& p : progress) served += p.load(std::memory_order_relaxed);
      try {
        for (; churns < served / kDecisionsPerSession; ++churns) {
          const auto now = std::chrono::steady_clock::now();
          const std::size_t slot = mix(ctx.seed, mix(slice, 0xC7), churns) % n_slots;
          serve::SessionConfig session;
          session.policy_key = assets.keys[slot % assets.keys.size()];
          session.seed = mix(ctx.seed, mix(slice, 0x5E56), churns);
          const std::uint64_t t0 = now_ns();
          const serve::SessionId id = stack.sessions->open(session);
          stack.log->register_session(id, session.seed, session.policy_key);
          retired.emplace_back(stack.slots[slot].exchange(id, std::memory_order_acq_rel), now);
          if (now - retired.front().second >= kRetireGrace) {
            stack.sessions->close(retired.front().first);
            retired.pop_front();
          }
          churn_us.push_back(ns_to_us(now_ns() - t0));
        }
        const auto now = std::chrono::steady_clock::now();
        if (now >= next_swap) {
          next_swap += kSwapPeriod;
          const std::size_t key = swaps % assets.keys.size();
          stack.variant[key] ^= 1;
          const auto& bundle = assets.bundles[key][stack.variant[key]];
          const std::uint64_t t0 = now_ns();
          const std::uint64_t version = stack.registry->install(assets.keys[key], bundle);
          install_us.push_back(ns_to_us(now_ns() - t0));
          stack.by_version[version] = bundle;
          ++swaps;
        }
        if (now >= next_drain) {
          next_drain += kDrainPeriod;
          drained.clear();
          stack.log->drain(drained);
        }
      } catch (const std::exception&) {
        ++writer_failed;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  while (ready.load() < clients) std::this_thread::yield();
  std::thread writer_thread(writer);
  const auto t_start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  // Throughput per window: a stall in one window (a swap storm, a noisy
  // neighbour) moves one sample, not the reported median.
  {
    std::uint64_t last_total = 0;
    auto last = t_start;
    while (seconds_since(t_start) < seconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(window_seconds, seconds - seconds_since(t_start))));
      const auto now = std::chrono::steady_clock::now();
      std::uint64_t total = 0;
      for (const auto& p : progress) total += p.load(std::memory_order_relaxed);
      const double dt = std::chrono::duration<double>(now - last).count();
      if (dt > 0.5 * window_seconds) {
        acc.window_rates.push_back(static_cast<double>(total - last_total) / dt);
      }
      last_total = total;
      last = now;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  const double wall = seconds_since(t_start);
  writer_thread.join();
  // Every client has stopped: the sessions still in their grace period
  // can close now.
  for (const auto& [id, since] : retired) stack.sessions->close(id);

  std::uint64_t decisions = 0;
  std::uint64_t failed = writer_failed;
  std::size_t mismatches = 0;
  std::uint64_t served_sum = 0;
  std::uint64_t replay_sum = 0;
  for (DtClient& out : outs) {
    decisions += out.decisions;
    failed += out.failed;
    acc.latency_us.insert(acc.latency_us.end(), out.latency_us.begin(), out.latency_us.end());
    for (std::size_t s = 0; s < acc.stage_ns.size(); ++s) acc.stage_ns[s] += out.stage_ns[s];
    // Serial decide_index replay of every recorded decision against the
    // bundle its registry version names.
    for (const DtRecord& record : out.records) {
      const auto it = stack.by_version.find(record.version);
      served_sum += mix(record.version, record.observation, record.action);
      if (it == stack.by_version.end()) {
        ++mismatches;
        continue;
      }
      const core::DtPolicy& policy = *it->second;
      const std::size_t expected = policy.decide_index(
          policy.schema().to_vector(assets.observations[record.observation]));
      replay_sum += mix(record.version, record.observation, expected);
      if (expected != record.action) ++mismatches;
    }
    acc.replayed += out.records.size();
    if (traced) trace->absorb(out.spans);
  }
  acc.decisions += decisions;
  acc.wall += wall;
  result.attempted += decisions + failed + install_us.size() + churn_us.size() - writes_before;
  result.failed += failed;
  acc.failed += failed;
  if (mismatches > 0 || served_sum != replay_sum) {
    result.fail("dt_fleet: " + std::to_string(mismatches) +
                " decisions differ from the serial decide_index replay");
  }
}

void report_dt(const DtAccum& acc, std::size_t sessions, std::size_t clients, bool traced,
               RunResult& result, std::map<std::string, Metric>& phase) {
  const PercentileReport p50 = percentile_report(acc.latency_us, 50.0);
  const PercentileReport p99 = percentile_report(acc.latency_us, 99.0);
  std::printf("dt%s: %zu sessions, %zu clients, %llu slices, %.2fs, %llu decisions "
              "(%llu replayed), %llu failed, %zu installs, %zu churns, %.0f/s mean, %.0f/s "
              "window median; %s, %s\n",
              traced ? " (traced)" : "", sessions, clients,
              static_cast<unsigned long long>(acc.slices), acc.wall,
              static_cast<unsigned long long>(acc.decisions),
              static_cast<unsigned long long>(acc.replayed),
              static_cast<unsigned long long>(acc.failed), acc.install_us.size(),
              acc.churn_us.size(), static_cast<double>(acc.decisions) / acc.wall,
              median(acc.window_rates), percentile_note("dt_p50_us", p50).c_str(),
              percentile_note("dt_p99_us", p99).c_str());
  std::printf("dt window rates (M/s):");
  for (const double v : acc.window_rates) std::printf(" %.2f", v * 1e-6);
  std::printf("\n");
  phase["dt_decisions_per_s"] = {median(acc.window_rates), "1/s"};
  phase["dt_p50_us"] = {p50.value, "us"};
  phase["dt_p99_us"] = {p99.value, "us"};
  if (traced) {
    const double n = static_cast<double>(std::max<std::uint64_t>(acc.decisions, 1));
    result.layer("serve.session_begin_ns", static_cast<double>(acc.stage_ns[0]) / n, "ns");
    result.layer("serve.registry_lookup_ns", static_cast<double>(acc.stage_ns[1]) / n, "ns");
    result.layer("envlib.to_vector_ns", static_cast<double>(acc.stage_ns[2]) / n, "ns");
    result.layer("core.dt_decide_ns", static_cast<double>(acc.stage_ns[3]) / n, "ns");
    result.layer("adapt.tap_ns", static_cast<double>(acc.stage_ns[4]) / n, "ns");
  }
  result.layer("serve.registry_install_us", median(acc.install_us), "us");
  result.layer("serve.session_churn_us", median(acc.churn_us), "us");
}

// ---------------------------------------------------------------------------
// fleet_burst: every control step one client submits the whole fleet and
// waits for every reply.

serve::ControlRequest burst_request(const BenchContext& ctx, const Assets& assets,
                                    const BurstStack& stack, std::size_t building,
                                    std::size_t step, bool mbrl) {
  serve::ControlRequest request;
  request.session = stack.ids[building];
  const std::uint64_t h = mix(ctx.seed, mix(0xB0, building), step);
  if (mbrl) {
    const std::size_t i = h % assets.forecasts.size();
    request.kind = serve::RequestKind::kMbrlFallback;
    request.observation = assets.observations[i];
    request.forecast = assets.forecasts[i];
    request.latency_budget = kMbrlBudget;
  } else {
    request.kind = serve::RequestKind::kDtPolicy;
    request.observation = assets.observations[h % assets.observations.size()];
  }
  return request;
}

/// Checksum of one step's actions, in building order.
std::uint64_t step_checksum(const std::vector<std::size_t>& actions) {
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < actions.size(); ++b) sum += mix(b, actions[b], 0xAC7);
  return sum;
}

/// A stack's first steps pay thread wake-ups and first-touch allocations
/// that a long-running fleet does not pay every step: every stack serves
/// kWarmupSteps unrecorded steps (inputs of their own) before it is timed.
void warm_up(const BenchContext& ctx, const Assets& assets, BurstStack& stack) {
  constexpr std::size_t kWarmupInputs = std::size_t{1} << 40;
  for (std::size_t warm = 0; warm < kWarmupSteps; ++warm) {
    std::vector<std::future<serve::ControlDecision>> pending;
    for (std::size_t b : stack.mbrl) {
      pending.push_back(stack.scheduler->submit(
          burst_request(ctx, assets, stack, b, kWarmupInputs + warm, true)));
    }
    for (std::size_t b : stack.dt) {
      stack.scheduler->serve(burst_request(ctx, assets, stack, b, kWarmupInputs + warm, false));
    }
    for (auto& future : pending) future.get();
  }
}

/// The inline scalar reference: a fresh stack whose scheduler is never
/// started, so every MBRL request is solved alone at submit.
std::vector<std::uint64_t> reference_checksums(const BenchContext& ctx, const Assets& assets,
                                               std::size_t buildings, std::size_t steps,
                                               std::shared_ptr<const common::TaskPool> pool) {
  BurstStack reference(ctx, assets, buildings, std::move(pool), /*start=*/false);
  warm_up(ctx, assets, reference);
  std::vector<std::uint64_t> sums;
  std::vector<std::size_t> actions(buildings);
  for (std::size_t step = 0; step < steps; ++step) {
    for (std::size_t b : reference.mbrl) {
      actions[b] = reference.scheduler
                       ->serve(burst_request(ctx, assets, reference, b, step, /*mbrl=*/true))
                       .action_index;
    }
    for (std::size_t b : reference.dt) {
      actions[b] = reference.scheduler
                       ->serve(burst_request(ctx, assets, reference, b, step, /*mbrl=*/false))
                       .action_index;
    }
    sums.push_back(step_checksum(actions));
  }
  return sums;
}

/// Everything the burst slices measured, across segments.
struct BurstAccum {
  std::size_t step = 0;  ///< phase-wide step counter (drives the inputs)
  std::size_t segments = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> checksums;
  std::vector<double> step_ms;
  std::vector<double> dt_inline_ms;
  std::vector<double> mbrl_ms;
  std::vector<double> solve_ms;
  std::vector<double> wait_ms;
  std::vector<double> segment_step_p50;
  std::vector<double> segment_mbrl_p50;
  serve::RequestScheduler::Stats totals;
  PoolTally pool;
};

/// One burst segment: a serving stack driven step by step for `seconds`
/// (and at least `min_steps` steps) after its warm-up. The first segment
/// uses the stack built during set-up; every later one a fresh stack on
/// fresh scheduler threads and a fresh pool, because how shard workers,
/// pool workers and the client land on the cores sets a step-time regime
/// that holds for seconds. A segment is one draw of that regime.
void run_burst_slice(const BenchContext& ctx, Prepared& prepared, double seconds,
                     std::size_t min_steps, BurstAccum& acc,
                     RunResult& result, SpanTrace* trace) {
  const Assets& assets = prepared.assets;
  const std::size_t buildings = prepared.burst->ids.size();
  const bool traced = trace != nullptr;
  SpanBuffer spans(100);
  std::unique_ptr<BurstStack> fresh;
  if (acc.segments > 0) {
    fresh = std::make_unique<BurstStack>(
        ctx, assets, buildings,
        std::make_shared<const common::TaskPool>(
            common::TaskPoolConfig{ctx.pool->thread_count()}),
        /*start=*/true);
  }
  BurstStack& stack = fresh != nullptr ? *fresh : *prepared.burst;
  ++acc.segments;
  warm_up(ctx, assets, stack);
  std::vector<std::future<serve::ControlDecision>> futures(buildings);
  std::vector<std::size_t> actions(buildings, 0);
  const serve::RequestScheduler::Stats before = stack.scheduler->stats();
  const PoolTally pool_before = PoolTally::now();
  const std::size_t first_step = acc.step;
  const std::size_t first_sample = acc.step_ms.size();
  const std::size_t first_mbrl = acc.mbrl_ms.size();
  const auto t_segment = std::chrono::steady_clock::now();
  for (; acc.step - first_step < min_steps || seconds_since(t_segment) < seconds; ++acc.step) {
    // Session streams restart with every fresh stack; the inputs follow
    // the phase-wide step so no two segments serve the same fleet state.
    // Requests are built before the step's clock starts: the client's own
    // input assembly is not serving time.
    std::vector<serve::ControlRequest> mbrl_requests;
    std::vector<serve::ControlRequest> dt_requests;
    for (std::size_t b : stack.mbrl) {
      mbrl_requests.push_back(burst_request(ctx, assets, stack, b, acc.step, true));
    }
    for (std::size_t b : stack.dt) {
      dt_requests.push_back(burst_request(ctx, assets, stack, b, acc.step, false));
    }

    const std::uint64_t t_start = now_ns();
    const std::int64_t step_span = traced ? spans.open("burst.step", -1, acc.step) : -1;
    const std::int64_t submit_span =
        traced ? spans.open("serve.submit_mbrl", step_span, acc.step) : -1;
    for (std::size_t i = 0; i < stack.mbrl.size(); ++i) {
      try {
        futures[stack.mbrl[i]] = stack.scheduler->submit(std::move(mbrl_requests[i]));
      } catch (const std::exception&) {
        futures[stack.mbrl[i]] = {};  // refused: counted as failed below
      }
    }
    if (traced) spans.close(submit_span);
    const std::uint64_t t_dt0 = now_ns();
    for (std::size_t i = 0; i < stack.dt.size(); ++i) {
      try {
        actions[stack.dt[i]] = stack.scheduler->serve(dt_requests[i]).action_index;
      } catch (const std::exception&) {
        ++acc.failed;
      }
    }
    const std::uint64_t t_dt1 = now_ns();
    if (traced) spans.add("serve.dt_inline", t_dt0, t_dt1, step_span, acc.step);
    const std::int64_t await_span =
        traced ? spans.open("serve.await_mbrl", step_span, acc.step) : -1;
    std::uint64_t t_last = t_dt1;
    for (std::size_t b : stack.mbrl) {
      try {
        if (!futures[b].valid()) throw std::runtime_error("refused");
        actions[b] = futures[b].get().action_index;
      } catch (const std::exception&) {
        ++acc.failed;
        actions[b] = std::numeric_limits<std::size_t>::max();
        continue;
      }
      t_last = std::max(t_last, stack.tap->done_ns(b));
    }
    if (traced) {
      spans.close(await_span);
      spans.close(step_span);
    }
    acc.step_ms.push_back(ns_to_ms(t_last - t_start));
    acc.dt_inline_ms.push_back(ns_to_ms(t_dt1 - t_dt0));
    for (std::size_t b : stack.mbrl) {
      if (actions[b] == std::numeric_limits<std::size_t>::max()) continue;  // failed above
      const std::uint64_t done = stack.tap->done_ns(b);
      const double latency = ns_to_ms(done - std::min(done, t_start));
      const double solve = stack.tap->solve_s(b) * 1e3;
      acc.mbrl_ms.push_back(latency);
      acc.solve_ms.push_back(solve);
      acc.wait_ms.push_back(latency - solve);
      if (traced && acc.step % 16 == 0) {
        const std::uint64_t id = (static_cast<std::uint64_t>(acc.step) << 20) | b;
        const std::int64_t request =
            spans.add("serve.mbrl_request", t_start, done, step_span, id);
        const auto solve_ns = static_cast<std::uint64_t>(stack.tap->solve_s(b) * 1e9);
        spans.add("serve.batch_solve", done - std::min(done, solve_ns), done, request, id);
      }
    }
    if (acc.step < kCheckSteps) acc.checksums.push_back(step_checksum(actions));
  }
  if (!traced) acc.pool.add_since(pool_before);
  const serve::RequestScheduler::Stats after = stack.scheduler->stats();
  const std::uint64_t served = after.mbrl_served - before.mbrl_served;
  if (served != stack.mbrl.size() * (acc.step - first_step)) {
    result.fail("fleet_burst: scheduler answered " + std::to_string(served) + " MBRL requests of " +
                std::to_string(stack.mbrl.size() * (acc.step - first_step)));
  }
  acc.totals.mbrl_served += served;
  acc.totals.batches += after.batches - before.batches;
  acc.totals.deadline_closes += after.deadline_closes - before.deadline_closes;
  acc.segment_step_p50.push_back(
      median(std::vector<double>(acc.step_ms.begin() + static_cast<std::ptrdiff_t>(first_sample),
                                 acc.step_ms.end())));
  acc.segment_mbrl_p50.push_back(
      median(std::vector<double>(acc.mbrl_ms.begin() + static_cast<std::ptrdiff_t>(first_mbrl),
                                 acc.mbrl_ms.end())));
  result.attempted += buildings * (acc.step - first_step);
  if (traced) trace->absorb(spans);
}

/// Correctness of the burst phase: the leading steps against the inline
/// scalar reference at pool 1 and at the full pool; in traced runs also
/// the staged MBRL steps against the scheduler.
void check_burst(const BenchContext& ctx, Prepared& prepared, const BurstAccum& acc,
                 bool traced, RunResult& result) {
  const Assets& assets = prepared.assets;
  const std::size_t buildings = prepared.burst->ids.size();
  for (const auto& [label, pool] :
       {std::pair{"pool 1", ctx.pool1}, std::pair{"pool nproc", ctx.pool}}) {
    if (reference_checksums(ctx, assets, buildings, acc.checksums.size(), pool) !=
        acc.checksums) {
      result.fail(std::string("fleet_burst: step actions differ from the inline scalar "
                              "reference at ") + label);
    }
  }
  if (!traced) return;
  // The MBRL steps the scheduler takes, staged: per-request stream,
  // candidate draw, lock-step rollout, argmax — must reproduce the served
  // actions of the first step.
  const control::RandomShooting rs({kServeSamples, kServeHorizon, 0.99}, control::ActionSpace{},
                                   env::RewardConfig{});
  std::vector<double> draw_us;
  control::RolloutScratch scratch;
  BurstStack replay(ctx, assets, buildings, ctx.pool1, /*start=*/false);
  for (std::size_t b : replay.mbrl) {
    const serve::ControlRequest request = burst_request(ctx, assets, replay, b, 0, true);
    const std::size_t served = replay.scheduler->serve(request).action_index;
    verihvac::Rng rng = verihvac::Rng::stream(replay.seeds[b], 0);
    const std::uint64_t t0 = now_ns();
    const auto sequences = rs.draw_sequences(rng);
    draw_us.push_back(ns_to_us(now_ns() - t0));
    std::vector<double> returns(sequences.size(), 0.0);
    rs.rollout_returns_slice(*assets.model, request.observation, request.forecast, sequences, 0,
                             sequences.size(), returns, scratch);
    const std::size_t best = static_cast<std::size_t>(
        std::max_element(returns.begin(), returns.end()) - returns.begin());
    if (sequences[best].front() != served) {
      result.fail("fleet_burst: staged MBRL decision differs from the scheduler's");
      break;
    }
  }
  result.layer("control.draw_us", median(draw_us), "us");
}

void report_burst(const BurstAccum& acc, std::size_t buildings, std::size_t mbrl, bool traced,
                  RunResult& result, std::map<std::string, Metric>& phase) {
  result.failed += acc.failed;
  const PercentileReport step_p99 = percentile_report(acc.step_ms, 99.0);
  const PercentileReport mbrl_p99 = percentile_report(acc.mbrl_ms, 99.0);
  std::printf("burst%s: %zu buildings (%zu MBRL), %zu segments, %zu steps, %llu batches, "
              "%llu failed; step p50 %.3f ms (segment median), %s; MBRL p50 %.3f ms, %s\n",
              traced ? " (traced)" : "", buildings, mbrl, acc.segments, acc.step,
              static_cast<unsigned long long>(acc.totals.batches),
              static_cast<unsigned long long>(acc.failed), median(acc.segment_step_p50),
              percentile_note("fleet_step_p99_ms", step_p99).c_str(),
              median(acc.segment_mbrl_p50), percentile_note("mbrl_p99_ms", mbrl_p99).c_str());
  std::printf("burst segment step p50s (ms):");
  for (const double v : acc.segment_step_p50) std::printf(" %.2f", v);
  std::printf("\n");
  phase["fleet_step_p50_ms"] = {median(acc.segment_step_p50), "ms"};
  phase["fleet_step_p99_ms"] = {step_p99.value, "ms"};
  phase["mbrl_p50_ms"] = {median(acc.segment_mbrl_p50), "ms"};
  phase["mbrl_p99_ms"] = {mbrl_p99.value, "ms"};
  const std::uint64_t batches = acc.totals.batches;
  result.layer("serve.batches", static_cast<double>(batches), "count");
  result.layer("serve.batch_size_mean",
               batches == 0 ? 0.0
                            : static_cast<double>(acc.totals.mbrl_served) /
                                  static_cast<double>(batches),
               "requests");
  result.layer("serve.deadline_closes", static_cast<double>(acc.totals.deadline_closes),
               "count");
  result.layer("serve.solve_ms_p50", median(acc.solve_ms), "ms");
  result.layer("serve.queue_wait_ms_p50", median(acc.wait_ms), "ms");
  result.layer("serve.dt_inline_ms", median(acc.dt_inline_ms), "ms");
}

// ---------------------------------------------------------------------------
// extract_adapt: the extraction pipeline, then one adaptation generation
// fed the recorded drifted-fleet telemetry.

core::PipelineConfig extract_config(std::uint64_t seed, std::size_t decision_points) {
  core::PipelineConfig config = core::PipelineConfig::for_city("Pittsburgh");
  config.decision_points = decision_points;
  config.env.weather_seed = mix(seed, 0xE1);
  config.collection.seed = mix(seed, 0xE2);
  config.decision.seed = mix(seed, 0xE3);
  config.agent_seed = mix(seed, 0xE4);
  config.verification_seed = mix(seed, 0xE5);
  return config;
}

adapt::AdaptationConfig adaptation_config(const core::PipelineConfig& pipeline,
                                          const DriftTelemetry& drift, std::uint64_t seed) {
  adapt::AdaptationConfig config;
  // The alarm may fire only once the healthy first day has set the
  // residual baseline; everything after it is degraded, so a low
  // threshold cannot false-alarm and detection does not hinge on the
  // weather a seed draws.
  config.drift.ph_delta = 0.1;
  config.drift.ph_lambda = 8.0;
  config.drift.min_samples = drift.buildings * drift.drift_step;
  config.min_transitions = 240;
  config.fine_tune_epochs = 30;
  config.probabilistic_samples = 500;
  config.criteria = pipeline.criteria;
  config.criteria.safe_probability_threshold = 0.75;
  config.viper.iterations = 3;
  config.viper.steps_per_iteration = 48;
  config.viper.mc_repeats = 2;
  config.teacher_rs = pipeline.rs_distill;
  config.seed = mix(seed, 0xADA);
  return config;
}

struct AdaptOutcome {
  double seconds = 0.0;  ///< the pump that ran the generation
  bool attempted = false;
  adapt::AdaptationReport report;
  std::string candidate;  ///< promoted bundle bytes + certification digest
  std::vector<obs::SpanRecord> spans;
};

AdaptOutcome run_adaptation(const BenchContext& ctx, const Assets& assets,
                            const core::PipelineArtifacts& artifacts,
                            std::shared_ptr<const common::TaskPool> pool, bool traced) {
  const DriftTelemetry& drift = assets.drift;
  auto registry = std::make_shared<serve::PolicyRegistry>();
  auto sessions = std::make_shared<serve::SessionManager>();
  serve::RequestScheduler scheduler(serve::SchedulerConfig{}, registry, sessions,
                                    artifacts.config.rs, control::ActionSpace{},
                                    env::RewardConfig{}, pool);
  registry->install(kAdaptKey, artifacts.policy);
  scheduler.install_model(kAdaptKey, artifacts.model);
  adapt::TelemetryConfig telemetry;
  telemetry.capacity_per_shard = 4096;
  auto log = std::make_shared<adapt::TelemetryLog>(telemetry);
  adapt::AdaptationController controller(
      adaptation_config(artifacts.config, drift, ctx.seed), log, registry, sessions, scheduler,
      pool);
  adapt::ClusterAssets cluster;
  cluster.model = artifacts.model;
  cluster.env = artifacts.config.env;
  cluster.env.days = 2;
  cluster.baseline = artifacts.historical;
  controller.register_cluster(kAdaptKey, cluster);
  std::vector<serve::SessionId> ids;
  for (std::size_t b = 0; b < drift.buildings; ++b) {
    serve::SessionConfig session;
    session.policy_key = kAdaptKey;
    session.seed = drift.session_seeds[b];
    ids.push_back(sessions->open(session));
    log->register_session(ids.back(), session.seed, kAdaptKey);
  }

  obs::TraceCollector& collector = obs::TraceCollector::global();
  if (traced) {
    collector.clear();
    collector.enable();
  }
  AdaptOutcome outcome;
  for (std::size_t step = 0; step < drift.steps && !outcome.attempted; ++step) {
    for (std::size_t b = 0; b < drift.buildings; ++b) {
      const RecordedDecision& recorded = drift.decisions[step * drift.buildings + b];
      serve::DecisionEvent event;
      event.session = ids[recorded.building];
      event.decision_index = recorded.decision_index;
      event.session_seed = drift.session_seeds[recorded.building];
      event.kind = serve::RequestKind::kDtPolicy;
      event.policy_key = &kAdaptKey;
      event.policy_version = 1;
      event.action_index = recorded.action_index;
      event.action = recorded.action;
      event.observation = &recorded.observation;
      event.schema = &env::baseline_schema();
      log->on_decision(event);
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t attempts = controller.pump();
    if (attempts > 0) {
      outcome.seconds = seconds_since(t0);
      outcome.attempted = true;
    }
  }
  if (traced) {
    collector.disable();
    outcome.spans = collector.snapshot();
    collector.clear();
  }
  const auto history = controller.history();
  if (!history.empty()) {
    outcome.report = history.front();
    std::ostringstream digest;
    digest.precision(17);
    const adapt::AdaptationReport& r = outcome.report;
    digest << "promoted=" << r.promoted << " certified=" << r.certified
           << " safe=" << r.probabilistic.safe_probability
           << " interval=" << r.interval.leaves_certified << "/" << r.interval.leaves_subject
           << " val_loss=" << r.fine_tune_val_loss << " train=" << r.train_transitions << "\n";
    if (r.promoted) digest << bundle_bytes(*registry->lookup(kAdaptKey).policy);
    outcome.candidate = digest.str();
  }
  return outcome;
}

/// Per-layer samples of the traced rounds; reported as medians.
using LayerSamples = std::map<std::string, std::pair<std::vector<double>, std::string>>;

void add_sample(LayerSamples* samples, const std::string& name, double value,
                const char* unit) {
  if (samples == nullptr) return;
  auto& entry = (*samples)[name];
  entry.first.push_back(value);
  entry.second = unit;
}

/// run_pipeline's stages, one public call each, in its order — the traced
/// split of extract_s. With `spans`, every stage is a span and its time a
/// sample in `samples`.
core::PipelineArtifacts staged_pipeline(const core::PipelineConfig& config,
                                        std::shared_ptr<const control::RolloutEngine> engine,
                                        SpanBuffer* spans, LayerSamples* samples) {
  const std::int64_t root = spans != nullptr ? spans->open("core.extract", -1, 0) : -1;
  const auto stage = [&](const char* name) {
    return spans != nullptr ? spans->open(name, root, 0) : -1;
  };
  const auto close = [&](std::int64_t span) {
    if (spans != nullptr) spans->close(span);
  };
  const auto span_s = [&](std::int64_t span) {
    if (spans == nullptr) return 0.0;
    const SpanRecord& s = spans->spans()[static_cast<std::size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  };
  core::PipelineArtifacts artifacts;
  artifacts.config = config;

  std::int64_t span = stage("sim.collect");
  artifacts.historical = dyn::collect_historical_data(config.env, config.collection);
  close(span);
  add_sample(samples, "sim.collect_s", span_s(span), "s");

  span = stage("dynamics.train");
  auto model = std::make_shared<dyn::DynamicsModel>(config.model);
  artifacts.training = model->train(artifacts.historical);
  artifacts.model = model;
  close(span);
  add_sample(samples, "dynamics.train_s", span_s(span), "s");
  add_sample(samples, "nn.train_rows_per_s",
             static_cast<double>(artifacts.historical.size()) *
                 static_cast<double>(config.model.trainer.epochs) / span_s(span),
             "1/s");

  span = stage("core.decision_data");
  control::MbrlAgent agent(*model, config.rs_distill, control::ActionSpace(config.action_space),
                           config.env.reward, config.agent_seed);
  agent.set_engine(std::move(engine));
  core::DecisionDataGenerator generator(artifacts.historical, config.decision);
  artifacts.decisions = generator.generate(agent, config.decision_points);
  close(span);
  add_sample(samples, "core.decision_data_s", span_s(span), "s");
  add_sample(samples, "core.decision_points_per_s",
             static_cast<double>(artifacts.decisions.size()) / span_s(span), "1/s");

  span = stage("tree.fit");
  artifacts.policy = std::make_shared<core::DtPolicy>(
      core::DtPolicy::fit(artifacts.decisions, control::ActionSpace(config.action_space), {},
                          config.decision.schema));
  close(span);
  add_sample(samples, "tree.fit_ms", span_s(span) * 1e3, "ms");

  span = stage("core.verify_formal");
  artifacts.formal = core::verify_formal(*artifacts.policy, config.criteria, /*correct=*/true);
  close(span);
  add_sample(samples, "core.verify_formal_ms", span_s(span) * 1e3, "ms");

  span = stage("core.verify_probabilistic");
  core::DecisionDataGenerator verifier_sampler(artifacts.historical, config.decision);
  verihvac::Rng rng(config.verification_seed);
  artifacts.probabilistic = core::verify_probabilistic_one_step(
      *artifacts.policy, *model, verifier_sampler.sampler(), config.criteria,
      config.probabilistic_samples, rng);
  close(span);
  add_sample(samples, "core.verify_probabilistic_ms", span_s(span) * 1e3, "ms");
  close(root);
  return artifacts;
}

double span_ms(const std::vector<obs::SpanRecord>& spans, const char* name) {
  double total = 0.0;
  for (const obs::SpanRecord& span : spans) {
    if (std::string(span.name) == name) total += static_cast<double>(span.duration_ns) * 1e-6;
  }
  return total;
}

struct ExtractAccum {
  std::vector<double> extract_s;
  std::vector<double> adapt_s;
  std::string bundle;
  std::string candidate;
  std::unique_ptr<core::PipelineArtifacts> first;
  LayerSamples layers;
  PoolTally pool;
};

/// One extract -> adapt repetition: run_pipeline, then one generation on
/// its artifacts. Bytes must repeat exactly across repetitions.
void run_extract_slice(const BenchContext& ctx, const Assets& assets, std::size_t points,
                       ExtractAccum& acc, RunResult& result) {
  const core::PipelineConfig config = extract_config(ctx.seed, points);
  const PoolTally pool_before = PoolTally::now();
  const auto t0 = std::chrono::steady_clock::now();
  core::PipelineArtifacts artifacts = core::run_pipeline(config);
  acc.extract_s.push_back(seconds_since(t0));
  acc.pool.add_since(pool_before);
  ++result.attempted;
  const std::string bytes = bundle_bytes(*artifacts.policy);
  if (acc.bundle.empty()) {
    acc.bundle = bytes;
  } else if (bytes != acc.bundle) {
    result.fail("extract_adapt: bundle bytes differ between repetitions");
  }

  const AdaptOutcome adapted = run_adaptation(ctx, assets, artifacts, ctx.pool, false);
  ++result.attempted;
  if (!adapted.attempted) {
    ++result.failed;
    result.fail("extract_adapt: the drifted telemetry never started a generation");
    return;
  }
  acc.adapt_s.push_back(adapted.seconds);
  if (acc.candidate.empty()) {
    acc.candidate = adapted.candidate;
    const adapt::AdaptationReport& r = adapted.report;
    std::printf("adapt generation: %s, safe %.3f, interval %zu/%zu, recert %zu computed / %zu "
                "cached%s\n",
                r.promoted ? "promoted" : "refused", r.probabilistic.safe_probability,
                r.interval.leaves_certified, r.interval.leaves_subject, r.recert.cells_computed,
                r.recert.cells_cached, r.recert.fallback_full ? " (full fallback)" : "");
  } else if (adapted.candidate != acc.candidate) {
    result.fail("extract_adapt: adaptation candidate differs between repetitions");
  }
  if (acc.first == nullptr) {
    acc.first = std::make_unique<core::PipelineArtifacts>(std::move(artifacts));
  }
}

/// Pool-size independence: the staged pipeline and the adaptation
/// generation at pool 1 must reproduce the full pool's bytes.
void check_extract(const BenchContext& ctx, const Assets& assets, std::size_t points,
                   const ExtractAccum& acc, RunResult& result) {
  const core::PipelineConfig config = extract_config(ctx.seed, points);
  const std::string serial = bundle_bytes(*staged_pipeline(
      config, std::make_shared<const control::RolloutEngine>(ctx.pool1), nullptr, nullptr)
                                               .policy);
  if (serial != acc.bundle) result.fail("extract_adapt: bundle bytes differ at pool 1");
  if (acc.first != nullptr &&
      run_adaptation(ctx, assets, *acc.first, ctx.pool1, false).candidate != acc.candidate) {
    result.fail("extract_adapt: adaptation candidate differs at pool 1");
  }
}

/// The traced repetition: run_pipeline's stages one by one with spans,
/// asserted equal to run_pipeline's bundle, then a generation with the
/// controller's own adapt.* spans collected.
void run_extract_traced(const BenchContext& ctx, const Assets& assets, std::size_t points,
                        ExtractAccum& acc, RunResult& result, SpanTrace* trace) {
  const core::PipelineConfig config = extract_config(ctx.seed, points);
  SpanBuffer spans(200);
  const auto t0 = std::chrono::steady_clock::now();
  const core::PipelineArtifacts artifacts =
      staged_pipeline(config, control::RolloutEngine::shared(), &spans, &acc.layers);
  acc.extract_s.push_back(seconds_since(t0));
  ++result.attempted;
  const std::string bytes = bundle_bytes(*artifacts.policy);
  if (acc.bundle.empty()) {
    // The split must produce exactly what the composite call produces.
    acc.bundle = bundle_bytes(*core::run_pipeline(config).policy);
  }
  if (bytes != acc.bundle) {
    result.fail("extract_adapt: staged pipeline bundle differs from run_pipeline's");
  }
  const std::int64_t adapt_root = spans.open("adapt.run", -1, 1);
  const AdaptOutcome adapted = run_adaptation(ctx, assets, artifacts, ctx.pool, true);
  spans.close(adapt_root);
  ++result.attempted;
  if (!adapted.attempted) {
    ++result.failed;
    result.fail("extract_adapt: the drifted telemetry never started a generation");
  } else {
    acc.adapt_s.push_back(adapted.seconds);
    if (acc.candidate.empty()) acc.candidate = adapted.candidate;
    if (adapted.candidate != acc.candidate) {
      result.fail("extract_adapt: adaptation candidate differs between repetitions");
    }
  }
  if (acc.first == nullptr) acc.first = std::make_unique<core::PipelineArtifacts>(artifacts);
  const auto base = static_cast<std::int64_t>(trace->size());
  trace->absorb(spans);
  trace->import_obs(adapted.spans, base + adapt_root, 1000);
  for (const char* stage : {"fine_tune", "redistill", "recertify", "shadow_gate", "hot_swap"}) {
    add_sample(&acc.layers, std::string("adapt.") + stage + "_ms",
               span_ms(adapted.spans, (std::string("adapt.") + stage).c_str()), "ms");
  }
  const core::RecertStats& recert = adapted.report.recert;
  const double interval_ms = span_ms(adapted.spans, "verify.interval") +
                             span_ms(adapted.spans, "verify.interval_incremental");
  add_sample(&acc.layers, "core.interval_cells_per_s",
             interval_ms > 0.0 ? static_cast<double>(recert.cells_computed) / (interval_ms * 1e-3)
                               : 0.0,
             "1/s");
  add_sample(&acc.layers, "core.recert_cells_computed",
             static_cast<double>(recert.cells_computed), "count");
  add_sample(&acc.layers, "core.recert_cells_cached", static_cast<double>(recert.cells_cached),
             "count");
}

void report_extract(const ExtractAccum& acc, std::size_t points, bool traced,
                    RunResult& result, std::map<std::string, Metric>& phase) {
  for (const auto& [name, samples] : acc.layers) {
    result.layer(name, median(samples.first), samples.second);
  }
  std::printf("extract%s: %zu decision points, %zu repetition(s), extract %.3fs, adapt %.3fs "
              "(medians)\n",
              traced ? " (traced)" : "", points, acc.extract_s.size(), median(acc.extract_s),
              median(acc.adapt_s));
  phase["extract_s"] = {median(acc.extract_s), "s"};
  phase["adapt_generation_s"] = {median(acc.adapt_s), "s"};
}

}  // namespace

// ---------------------------------------------------------------------------
// Rounds.

namespace {

void run_rounds(const BenchContext& ctx, const Shapes& shapes, Prepared& prepared,
                RunResult& result, std::map<std::string, Metric>& phase, SpanTrace* trace) {
  const bool traced = trace != nullptr;
  const std::size_t segments = shapes.rounds * kBurstSegmentsPerRound;
  const std::size_t min_steps =
      std::max((kMinBurstSteps + segments - 1) / segments, kCheckSteps);
  DtAccum dt;
  BurstAccum burst;
  ExtractAccum extract;
  for (std::size_t round = 0; round < shapes.rounds; ++round) {
    run_dt_slice(ctx, prepared, shapes.dt_slice_seconds, dt, result, trace);
    for (std::size_t s = 0; s < kBurstSegmentsPerRound; ++s) {
      run_burst_slice(ctx, prepared, shapes.burst_slice_seconds / kBurstSegmentsPerRound,
                      min_steps, burst, result, trace);
    }
    if (traced) {
      run_extract_traced(ctx, prepared.assets, shapes.decision_points, extract, result, trace);
    } else {
      run_extract_slice(ctx, prepared.assets, shapes.decision_points, extract, result);
    }
  }
  check_burst(ctx, prepared, burst, traced, result);
  check_extract(ctx, prepared.assets, shapes.decision_points, extract, result);
  report_dt(dt, prepared.dt->slots.size(), ctx.cores, traced, result, phase);
  report_burst(burst, prepared.burst->ids.size(), prepared.burst->mbrl.size(), traced, result,
               phase);
  report_extract(extract, shapes.decision_points, traced, result, phase);
  // Fan-outs of the phase the workload runs at full shape: few and large
  // from one caller in extraction, many and small from the shard workers
  // in bursts (dt_fleet's DT phase fans out nothing; it reports its
  // compact bursts).
  if (!traced) {
    if (shapes.workload == "extract_adapt") {
      extract.pool.report("extract", result);
    } else {
      burst.pool.report("burst", result);
    }
  }
}

}  // namespace

void run_measured(const BenchContext& ctx, const Shapes& shapes, Prepared& prepared,
                  RunResult& result, std::map<std::string, Metric>& phase) {
  run_rounds(ctx, shapes, prepared, result, phase, nullptr);
}

void run_traced(const BenchContext& ctx, const Shapes& shapes, Prepared& prepared,
                RunResult& result, SpanTrace& trace, std::map<std::string, Metric>& phase) {
  check_dt_staged(ctx, prepared, result);
  run_rounds(ctx, shapes, prepared, result, phase, &trace);
  measure_rollout_layers(ctx, prepared.assets, shapes.rollout, result);
}

// ---------------------------------------------------------------------------
// Rollout micro-measures.

void measure_rollout_layers(const BenchContext& ctx, const Assets& assets,
                            const RolloutShape& shape, RunResult& result) {
  const env::Observation& obs = assets.observations.front();
  env::Disturbance disturbance;
  disturbance.weather = obs.weather;
  disturbance.occupants = obs.occupants;
  const std::vector<env::Disturbance> forecast(shape.horizon, disturbance);
  control::RandomShooting rs({shape.candidates, shape.horizon, 0.99}, control::ActionSpace{},
                             env::RewardConfig{});
  verihvac::Rng rng(mix(ctx.seed, 0x7011));
  const auto sequences = rs.draw_sequences(rng);
  std::vector<double> returns(sequences.size(), 0.0);
  control::RolloutScratch scratch;

  // Serial lock-step rollout of the whole shape, repeated for ~0.3 s.
  const auto time_loop = [](double budget_s, const auto& body) {
    std::vector<double> per_call;
    const auto t_end = std::chrono::steady_clock::now() + std::chrono::duration<double>(budget_s);
    do {
      const std::uint64_t t0 = now_ns();
      body();
      per_call.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    } while (std::chrono::steady_clock::now() < t_end || per_call.size() < 5);
    return median(per_call);
  };
  const double rollout_s = time_loop(0.3, [&] {
    rs.rollout_returns_slice(*assets.model, obs, forecast, sequences, 0, sequences.size(), returns,
                             scratch);
  });
  result.layer("control.rollout_candidates_per_s",
               static_cast<double>(sequences.size()) / rollout_s, "1/s");

  const std::size_t dims = assets.model->input_dims();
  verihvac::Matrix inputs(shape.candidates, dims);
  const std::vector<double> x = env::baseline_schema().to_vector(obs);
  for (std::size_t r = 0; r < shape.candidates; ++r) {
    for (std::size_t d = 0; d < x.size(); ++d) inputs(r, d) = x[d];
    inputs(r, assets.model->heat_index()) = 18.0 + static_cast<double>(r % 5);
    inputs(r, assets.model->cool_index()) = 24.0 + static_cast<double>(r % 6);
  }
  std::vector<double> next;
  dyn::BatchScratch batch;
  const double predict_s =
      time_loop(0.2, [&] { assets.model->predict_batch_into(inputs, next, batch); });
  const double rows_per_s = static_cast<double>(shape.candidates) / predict_s;
  result.layer("dynamics.predict_rows_per_s", rows_per_s, "1/s");
  // Computed, not counted: 2 flops per weight of each dense layer.
  double flops_per_row = 0.0;
  std::size_t fan_in = dims;
  for (const std::size_t width : assets.model->config().hidden) {
    flops_per_row += 2.0 * static_cast<double>(fan_in * width);
    fan_in = width;
  }
  flops_per_row += 2.0 * static_cast<double>(fan_in);
  result.layer("dynamics.predict_gflops", rows_per_s * flops_per_row * 1e-9, "GFLOP/s");

  // Pool gain: the same rollout through the pool-1 and the full pool.
  const auto engine_time = [&](std::shared_ptr<const common::TaskPool> pool) {
    control::RandomShooting pooled({shape.candidates, shape.horizon, 0.99},
                                   control::ActionSpace{}, env::RewardConfig{});
    pooled.set_engine(std::make_shared<const control::RolloutEngine>(std::move(pool)));
    return time_loop(0.3, [&] {
      pooled.rollout_returns(*assets.model, obs, forecast, sequences, returns);
    });
  };
  const double serial_s = engine_time(ctx.pool1);
  const double parallel_s = engine_time(ctx.pool);
  result.layer("common.pool_gain", serial_s / parallel_s, "ratio");
  std::printf("rollout layers (%s shape %zu x %zu): %.0f candidates/s serial, pool gain %.2f "
              "(pool 1 %.3f ms vs pool %zu %.3f ms)\n",
              shape.name, shape.candidates, shape.horizon,
              static_cast<double>(sequences.size()) / rollout_s, serial_s / parallel_s,
              serial_s * 1e3, ctx.cores, parallel_s * 1e3);
}

}  // namespace perfbench
