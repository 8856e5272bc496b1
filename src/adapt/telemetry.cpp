#include "adapt/telemetry.hpp"

#include <algorithm>
#include <stdexcept>

namespace verihvac::adapt {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// First entry of the id-sorted session table with id >= `id`.
template <typename Sessions>
auto find_session(Sessions& sessions, serve::SessionId id) {
  return std::lower_bound(sessions.begin(), sessions.end(), id,
                          [](const TelemetrySession& s, serve::SessionId v) { return s.id < v; });
}

// The seqlock protocol (see the header comment). Readers copy optimistically
// and validate with the slot's sequence; the payload copy itself is a plain
// memcpy of a trivially-copyable record, with fences pinning the compiler's
// ordering — the standard userspace-seqlock construction.

}  // namespace

std::vector<env::Disturbance> TelemetryRecord::forecast_vector() const {
  std::vector<env::Disturbance> out(forecast_len);
  for (std::size_t k = 0; k < forecast_len; ++k) {
    out[k].weather.outdoor_temp_c = forecast[k].outdoor_temp_c;
    out[k].weather.humidity_pct = forecast[k].humidity_pct;
    out[k].weather.wind_mps = forecast[k].wind_mps;
    out[k].weather.solar_wm2 = forecast[k].solar_wm2;
    out[k].occupants = forecast[k].occupants;
    out[k].hour_sin = forecast[k].hour_sin;
    out[k].hour_cos = forecast[k].hour_cos;
    out[k].occupants_ahead = forecast[k].occupants_ahead;
  }
  return out;
}

TelemetryLog::TelemetryLog(TelemetryConfig config)
    : config_(config),
      obs_{&obs::counter("telemetry_records_total"), &obs::counter("telemetry_lost_total"),
           &obs::counter("telemetry_overwritten_total"),
           &obs::counter("telemetry_sampling_skips_total")} {
  if (config_.shards == 0) config_.shards = 1;
  config_.shards = round_up_pow2(config_.shards);
  shard_mask_ = config_.shards - 1;
  const std::size_t capacity = round_up_pow2(std::max<std::size_t>(2, config_.capacity_per_shard));
  slot_mask_ = capacity - 1;
  const std::size_t forecast_capacity =
      round_up_pow2(std::max<std::size_t>(2, config_.forecast_capacity_per_shard));
  forecast_mask_ = forecast_capacity - 1;
  dt_sample_mask_ = config_.dt_sample_period > 1
                        ? round_up_pow2(config_.dt_sample_period) - 1
                        : 0;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->slots = std::vector<Slot>(capacity);
    shard->forecast_slots = std::vector<ForecastSlot>(forecast_capacity);
    shards_.push_back(std::move(shard));
  }
}

std::size_t TelemetryLog::capacity_per_shard() const { return slot_mask_ + 1; }

void TelemetryLog::register_session(serve::SessionId id, std::uint64_t seed,
                                    const std::string& policy_key) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (sessions_.empty() || sessions_.back().id < id) {
    sessions_.push_back(TelemetrySession{id, seed, policy_key});
    registration_order_.push_back(id);
    return;
  }
  const auto it = find_session(sessions_, id);
  if (it != sessions_.end() && it->id == id) {
    it->seed = seed;
    it->policy_key = policy_key;
  } else {
    sessions_.insert(it, TelemetrySession{id, seed, policy_key});
    registration_order_.push_back(id);
  }
}

std::size_t TelemetryLog::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

std::vector<TelemetrySession> TelemetryLog::sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_;
}

std::size_t TelemetryLog::sessions_since(std::size_t cursor,
                                         std::vector<TelemetrySession>& out) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (cursor == 0) {
    out = sessions_;  // every session: the table is already in id order
    return registration_order_.size();
  }
  out.clear();
  for (std::size_t i = cursor; i < registration_order_.size(); ++i) {
    out.push_back(*find_session(sessions_, registration_order_[i]));
  }
  std::sort(out.begin(), out.end(),
            [](const TelemetrySession& a, const TelemetrySession& b) { return a.id < b.id; });
  return registration_order_.size();
}

std::optional<std::string> TelemetryLog::session_key(serve::SessionId id) const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const auto it = find_session(sessions_, id);
  if (it == sessions_.end() || it->id != id) return std::nullopt;
  return it->policy_key;
}

void TelemetryLog::on_decision(const serve::DecisionEvent& event) noexcept {
  // Deterministic DT sampling: record runs of two decision indices per
  // period so transition pairing survives; MBRL always records.
  if (dt_sample_mask_ != 0 && event.kind == serve::RequestKind::kDtPolicy &&
      (event.decision_index & dt_sample_mask_) > 1) {
    sampling_skips_.fetch_add(1, std::memory_order_relaxed);
    obs_.sampling_skips->add(1);
    return;
  }

  Shard& shard = *shards_[static_cast<std::size_t>(event.session) & shard_mask_];

  // Forecast first (MBRL only): its publication must be visible before
  // the compact record that references it.
  std::uint64_t forecast_ticket = 0;
  std::uint16_t forecast_len = 0;
  std::uint8_t forecast_truncated = 0;
  bool has_forecast = false;
  if (event.forecast != nullptr && !event.forecast->empty()) {
    const std::vector<env::Disturbance>& forecast = *event.forecast;
    const std::size_t n = std::min(forecast.size(), kTelemetryMaxForecast);
    forecast_len = static_cast<std::uint16_t>(n);
    forecast_truncated = forecast.size() > kTelemetryMaxForecast ? 1 : 0;
    has_forecast = true;
    forecast_ticket = shard.forecast_head.fetch_add(1, std::memory_order_relaxed);
    ForecastSlot& fslot = shard.forecast_slots[forecast_ticket & forecast_mask_];
    fslot.seq.store(2 * forecast_ticket + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t k = 0; k < n; ++k) {
      fslot.entries[k].outdoor_temp_c = forecast[k].weather.outdoor_temp_c;
      fslot.entries[k].humidity_pct = forecast[k].weather.humidity_pct;
      fslot.entries[k].wind_mps = forecast[k].weather.wind_mps;
      fslot.entries[k].solar_wm2 = forecast[k].weather.solar_wm2;
      fslot.entries[k].occupants = forecast[k].occupants;
      fslot.entries[k].hour_sin = forecast[k].hour_sin;
      fslot.entries[k].hour_cos = forecast[k].hour_cos;
      fslot.entries[k].occupants_ahead = forecast[k].occupants_ahead;
    }
    fslot.seq.store(2 * forecast_ticket + 2, std::memory_order_release);
  }

  const std::uint64_t ticket = shard.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = shard.slots[ticket & slot_mask_];

  // Mark writing (odd) before touching the payload so a lapped reader's
  // re-check can never validate a half-overwritten copy.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);

  CompactRecord& r = slot.record;
  r.session = event.session;
  r.decision_index = event.decision_index;
  r.session_seed = event.session_seed;
  r.policy_version = event.policy_version;
  r.kind = static_cast<std::uint8_t>(event.kind);
  r.action_index = static_cast<std::uint32_t>(event.action_index);
  r.latency_seconds = event.latency_seconds;
  const env::Observation& obs = *event.observation;
  if (event.schema != nullptr) {
    // Records carry the deciding artifact's schema layout; trace pairing
    // and replay read zone temperature by the persisted role index, not
    // by trusting column 0.
    r.obs_len = static_cast<std::uint16_t>(event.schema->dims());
    r.zone_temp_dim = static_cast<std::uint16_t>(event.schema->zone_temp_index());
    event.schema->write_observation(obs, r.obs);
  } else {
    // A custom scheduler that predates the schema seam: assume the legacy
    // baseline layout, exactly as v1 telemetry did.
    r.obs_len = static_cast<std::uint16_t>(env::kInputDims);
    r.zone_temp_dim = 0;
    r.obs[env::kZoneTemp] = obs.zone_temp_c;
    r.obs[env::kOutdoorTemp] = obs.weather.outdoor_temp_c;
    r.obs[env::kHumidity] = obs.weather.humidity_pct;
    r.obs[env::kWind] = obs.weather.wind_mps;
    r.obs[env::kSolar] = obs.weather.solar_wm2;
    r.obs[env::kOccupancy] = obs.occupants;
  }
  r.heating_c = event.action.heating_c;
  r.cooling_c = event.action.cooling_c;
  r.forecast_len = forecast_len;
  r.forecast_truncated = forecast_truncated;
  r.forecast_ticket = has_forecast ? forecast_ticket + 1 : 0;  // 0 = none

  slot.seq.store(2 * ticket + 2, std::memory_order_release);
  obs_.records->add(1);
}

std::uint64_t TelemetryLog::drain(std::vector<TelemetryRecord>& out) {
  std::uint64_t lost = 0;
  std::uint64_t overwritten = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    const std::uint64_t head = shard.head.load(std::memory_order_acquire);
    std::uint64_t t = shard.tail;
    // Anything more than one lap behind the claim counter is gone already.
    const std::uint64_t capacity = slot_mask_ + 1;
    if (head > capacity && t < head - capacity) {
      overwritten += (head - capacity) - t;
      lost += (head - capacity) - t;
      t = head - capacity;
    }
    for (; t < head; ++t) {
      Slot& slot = shard.slots[t & slot_mask_];
      const std::uint64_t published = 2 * t + 2;
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 < published) {
        // The claiming producer has not published yet (claim/publish is a
        // two-step dance): stop here and pick the rest up next drain.
        break;
      }
      if (s1 == published) {
        const CompactRecord copy = slot.record;
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) == published &&
            copy.forecast_len <= kTelemetryMaxForecast && copy.kind <= 1 &&
            copy.obs_len >= 1 && copy.obs_len <= kTelemetryMaxObsDims &&
            copy.zone_temp_dim < copy.obs_len) {
          // The field sanity checks guard the pathological writer-writer
          // lap race (a producer stalled mid-write for a whole ring lap):
          // a torn record must never drive the forecast memcpy below past
          // its array (nor hand downstream readers an out-of-range obs
          // length/zone column), so implausible values count as lost.
          TelemetryRecord record;
          record.session = copy.session;
          record.decision_index = copy.decision_index;
          record.session_seed = copy.session_seed;
          record.policy_version = copy.policy_version;
          record.kind = copy.kind;
          record.forecast_truncated = copy.forecast_truncated;
          record.forecast_len = copy.forecast_len;
          record.action_index = copy.action_index;
          record.latency_seconds = copy.latency_seconds;
          record.obs_len = copy.obs_len;
          record.zone_temp_dim = copy.zone_temp_dim;
          std::memcpy(record.obs, copy.obs, sizeof(record.obs));
          record.heating_c = copy.heating_c;
          record.cooling_c = copy.cooling_c;
          if (copy.forecast_ticket != 0) {
            // Side ring lookup; a lapped forecast makes the whole record
            // unreplayable, so it counts as lost rather than emitted
            // half-empty.
            const std::uint64_t fticket = copy.forecast_ticket - 1;
            ForecastSlot& fslot = shard.forecast_slots[fticket & forecast_mask_];
            const std::uint64_t fpublished = 2 * fticket + 2;
            const std::uint64_t f1 = fslot.seq.load(std::memory_order_acquire);
            bool forecast_ok = false;
            if (f1 == fpublished) {
              std::memcpy(record.forecast, fslot.entries,
                          sizeof(TelemetryDisturbance) * copy.forecast_len);
              std::atomic_thread_fence(std::memory_order_acquire);
              forecast_ok = fslot.seq.load(std::memory_order_relaxed) == fpublished;
            }
            if (!forecast_ok) {
              ++lost;
              continue;
            }
          }
          out.push_back(record);
          continue;
        }
      }
      ++lost;  // lapped (or torn by a lapping writer) before we got to it
    }
    shard.tail = t;
  }
  lost_.fetch_add(lost, std::memory_order_relaxed);
  overwritten_.fetch_add(overwritten, std::memory_order_relaxed);
  if (lost > 0) obs_.lost->add(lost);
  if (overwritten > 0) obs_.overwritten->add(overwritten);
  return lost;
}

TelemetryLog::Stats TelemetryLog::stats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    stats.recorded += shard->head.load(std::memory_order_relaxed);
  }
  stats.lost = lost_.load(std::memory_order_relaxed);
  stats.overwritten = overwritten_.load(std::memory_order_relaxed);
  stats.sampling_skips = sampling_skips_.load(std::memory_order_relaxed);
  return stats;
}

// ---------------------------------------------------------------------------
// Record/session wire format: fields in declaration order with fixed widths
// (native little-endian); records store only the used observation and
// forecast prefixes, so DT-heavy segments stay compact.

namespace {

template <typename T>
void put(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked cursor over one frame body.
struct BodyReader {
  std::string_view rest;

  template <typename T>
  T take() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rest.size() < sizeof(T)) throw std::runtime_error("telemetry frame: truncated body");
    T value;
    std::memcpy(&value, rest.data(), sizeof(T));
    rest.remove_prefix(sizeof(T));
    return value;
  }

  void expect_end() const {
    if (!rest.empty()) throw std::runtime_error("telemetry frame: trailing bytes in body");
  }
};

}  // namespace

namespace detail {

void append_record(std::string& out, const TelemetryRecord& r) {
  put<std::uint64_t>(out, r.session);
  put<std::uint64_t>(out, r.decision_index);
  put<std::uint64_t>(out, r.session_seed);
  put<std::uint64_t>(out, r.policy_version);
  put<std::uint8_t>(out, r.kind);
  put<std::uint8_t>(out, r.forecast_truncated);
  put<std::uint16_t>(out, r.forecast_len);
  put<std::uint32_t>(out, r.action_index);
  put<std::uint16_t>(out, r.obs_len);
  put<std::uint16_t>(out, r.zone_temp_dim);
  put<double>(out, r.latency_seconds);
  for (std::size_t i = 0; i < r.obs_len; ++i) put<double>(out, r.obs[i]);
  put<double>(out, r.heating_c);
  put<double>(out, r.cooling_c);
  for (std::size_t k = 0; k < r.forecast_len; ++k) put<TelemetryDisturbance>(out, r.forecast[k]);
}

TelemetryRecord read_record(std::string_view body) {
  BodyReader in{body};
  TelemetryRecord r;
  r.session = in.take<std::uint64_t>();
  r.decision_index = in.take<std::uint64_t>();
  r.session_seed = in.take<std::uint64_t>();
  r.policy_version = in.take<std::uint64_t>();
  r.kind = in.take<std::uint8_t>();
  r.forecast_truncated = in.take<std::uint8_t>();
  r.forecast_len = in.take<std::uint16_t>();
  r.action_index = in.take<std::uint32_t>();
  r.obs_len = in.take<std::uint16_t>();
  r.zone_temp_dim = in.take<std::uint16_t>();
  if (r.obs_len < 1 || r.obs_len > kTelemetryMaxObsDims || r.zone_temp_dim >= r.obs_len) {
    throw std::runtime_error("telemetry frame: observation length exceeds format cap");
  }
  r.latency_seconds = in.take<double>();
  for (std::size_t d = 0; d < r.obs_len; ++d) r.obs[d] = in.take<double>();
  r.heating_c = in.take<double>();
  r.cooling_c = in.take<double>();
  if (r.forecast_len > kTelemetryMaxForecast) {
    throw std::runtime_error("telemetry frame: forecast length exceeds format cap");
  }
  for (std::size_t k = 0; k < r.forecast_len; ++k) {
    r.forecast[k] = in.take<TelemetryDisturbance>();
  }
  in.expect_end();
  return r;
}

void append_session(std::string& out, const TelemetrySession& session) {
  put<std::uint64_t>(out, session.id);
  put<std::uint64_t>(out, session.seed);
  put<std::uint64_t>(out, session.policy_key.size());
  out.append(session.policy_key);
}

TelemetrySession read_session(std::string_view body) {
  BodyReader in{body};
  TelemetrySession session;
  session.id = in.take<std::uint64_t>();
  session.seed = in.take<std::uint64_t>();
  const auto key_len = in.take<std::uint64_t>();
  if (key_len != in.rest.size()) {
    throw std::runtime_error("telemetry frame: session key length does not match body");
  }
  session.policy_key.assign(in.rest);
  return session;
}

}  // namespace detail

dyn::TransitionDataset trace_to_dataset(const TelemetryTrace& trace) {
  std::vector<const TelemetryRecord*> ordered;
  ordered.reserve(trace.records.size());
  for (const TelemetryRecord& r : trace.records) ordered.push_back(&r);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TelemetryRecord* a, const TelemetryRecord* b) {
                     if (a->session != b->session) return a->session < b->session;
                     return a->decision_index < b->decision_index;
                   });

  dyn::TransitionDataset dataset;
  // A fleet trace can mix schemas (heterogeneous registry keys); a
  // TransitionDataset holds one input width, so pair within the first
  // schema shape seen and leave foreign-shaped records for a separate
  // extraction pass.
  std::uint16_t width = 0;
  for (std::size_t i = 0; i + 1 < ordered.size(); ++i) {
    const TelemetryRecord& cur = *ordered[i];
    const TelemetryRecord& next = *ordered[i + 1];
    if (cur.session != next.session || next.decision_index != cur.decision_index + 1) {
      continue;  // capture gap: no fabricated transition
    }
    if (width == 0) width = cur.obs_len;
    if (cur.obs_len != width || next.obs_len != width) continue;
    dyn::Transition transition;
    transition.input = cur.obs_vector();
    transition.action.heating_c = cur.heating_c;
    transition.action.cooling_c = cur.cooling_c;
    transition.next_zone_temp = next.obs[next.zone_temp_dim];
    dataset.add(std::move(transition));
  }
  return dataset;
}

TraceReplayer::TraceReplayer(const ReplayAssets& assets, const ReplayConfig& config)
    : assets_(assets), actions_(config.action_space), rs_(config.rs, actions_, config.reward) {
  if (config.engine != nullptr) rs_.set_engine(config.engine);
}

TraceReplayer::Outcome TraceReplayer::replay(const TelemetryRecord& r, std::size_t& action_out) {
  if (r.request_kind() == serve::RequestKind::kDtPolicy) {
    const auto it = assets_.policies.find(r.policy_version);
    if (it == assets_.policies.end() || it->second->schema().dims() != r.obs_len) {
      return Outcome::kSkippedMissingAssets;
    }
    action_out = it->second->decide_index(r.obs_vector());
    return Outcome::kReplayed;
  }
  if (r.forecast_truncated != 0) return Outcome::kSkippedTruncated;
  const auto it = assets_.models.find(r.policy_version);
  if (it == assets_.models.end() || it->second->schema().dims() != r.obs_len) {
    // Missing model, or a model whose schema shape no longer matches the
    // record — either way the decision cannot be reconstructed.
    return Outcome::kSkippedMissingAssets;
  }
  // Rebuild the observation through the deciding model's schema — a
  // time-aware record's temporal columns land back in the temporal fields
  // instead of being misread as weather.
  const env::Observation obs = it->second->schema().to_observation(r.obs_vector());
  const std::vector<env::Disturbance> forecast = r.forecast_vector();
  // The decision's entire stochastic footprint, reconstructed from the
  // record's stream coordinates — the same derivation the scheduler used
  // at admission.
  Rng rng = Rng::stream(r.session_seed, r.decision_index);
  action_out = rs_.optimize(*it->second, obs, forecast, rng);
  return Outcome::kReplayed;
}

ReplayReport replay_trace(const TelemetryTrace& trace, const ReplayAssets& assets,
                          const ReplayConfig& config) {
  TraceReplayer replayer(assets, config);

  ReplayReport report;
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const TelemetryRecord& r = trace.records[i];
    std::size_t replayed_action = 0;
    switch (replayer.replay(r, replayed_action)) {
      case TraceReplayer::Outcome::kSkippedTruncated:
        ++report.skipped_truncated;
        continue;
      case TraceReplayer::Outcome::kSkippedMissingAssets:
        ++report.skipped_missing_assets;
        continue;
      case TraceReplayer::Outcome::kReplayed:
        break;
    }
    ++report.replayed;
    if (replayed_action == r.action_index) {
      ++report.matched;
    } else if (report.mismatches.size() < 16) {
      report.mismatches.push_back({i, static_cast<std::size_t>(r.action_index), replayed_action});
    }
  }
  return report;
}

}  // namespace verihvac::adapt
