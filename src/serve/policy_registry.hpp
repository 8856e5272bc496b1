// Versioned, hot-swappable store of verified DT policy bundles.
//
// The deployable artifact of the paper is the policy bundle
// (core/policy_io): a CART tree plus the action-space enumeration it was
// fitted against. At fleet scale one process serves many bundles — one per
// building preset x comfort band (the campaign grid of PR 2) — and bundles
// get re-extracted and re-certified while traffic is live. The registry
// gives that lifecycle a thread-safe home:
//
//   * install() publishes a bundle under a string key ("Pittsburgh/
//     oversized/winter"-style, the campaign scenario convention) and bumps
//     a registry-global monotonic version;
//   * lookup() is the serving fast path: a shared-lock map find returning a
//     shared_ptr snapshot, so a hot-swap never invalidates a decision that
//     is already in flight — in-flight requests finish on the version they
//     looked up, new requests see the new one;
//   * no lock is held while deciding, only while copying the pointer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/dt_policy.hpp"
#include "obs/metrics.hpp"

namespace verihvac::serve {

/// What lookup() hands a serving thread: an owning snapshot of the bundle
/// plus the version it was published as.
struct PolicySnapshot {
  std::shared_ptr<const core::DtPolicy> policy;
  std::uint64_t version = 0;
};

class PolicyRegistry {
 public:
  /// Publishes (or hot-swaps) the bundle under `key`; returns the version
  /// assigned. Versions are monotonic across the whole registry, so any
  /// observed version order is a publication order.
  std::uint64_t install(const std::string& key, std::shared_ptr<const core::DtPolicy> policy);

  /// Loads a policy-bundle file (core::load_policy) and installs it.
  std::uint64_t install_file(const std::string& key, const std::string& path);

  /// Serving lookup. Throws std::out_of_range for an unknown key.
  PolicySnapshot lookup(const std::string& key) const;

  /// Non-throwing variant: empty snapshot (null policy, version 0) on miss.
  PolicySnapshot try_lookup(const std::string& key) const;

  bool contains(const std::string& key) const;
  /// Removes a bundle; returns whether the key existed. In-flight
  /// snapshots keep their shared_ptr alive.
  bool erase(const std::string& key);

  std::size_t size() const;
  std::vector<std::string> keys() const;

  /// Total lookup() / try_lookup() calls (hit or miss) — serving telemetry.
  /// Counted in per-thread padded shards (obs::Counter), so the DT fast
  /// path does not bounce one shared cache line between client threads.
  std::uint64_t lookup_count() const { return lookups_.value(); }

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, PolicySnapshot> entries_;
  std::uint64_t next_version_ = 1;
  mutable obs::Counter lookups_;
};

}  // namespace verihvac::serve
