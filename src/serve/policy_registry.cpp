#include "serve/policy_registry.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/policy_io.hpp"

namespace verihvac::serve {

std::uint64_t PolicyRegistry::install(const std::string& key,
                                      std::shared_ptr<const core::DtPolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("PolicyRegistry::install: null policy for key '" + key + "'");
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // A hot-swap must not change the observation layout out from under the
  // sessions already serving this key: their feature vectors would be
  // silently misread by the new tree. Heterogeneous schemas coexist fine
  // under *different* keys; replacing a bundle requires the same schema.
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.policy->schema() != policy->schema()) {
    throw std::invalid_argument(
        "PolicyRegistry::install: schema mismatch for key '" + key + "': incumbent uses '" +
        it->second.policy->schema().name() + "' (" +
        std::to_string(it->second.policy->schema().dims()) + " dims), replacement uses '" +
        policy->schema().name() + "' (" + std::to_string(policy->schema().dims()) +
        " dims); erase the key first to change schemas");
  }
  const std::uint64_t version = next_version_++;
  entries_[key] = PolicySnapshot{std::move(policy), version};
  return version;
}

std::uint64_t PolicyRegistry::install_file(const std::string& key, const std::string& path) {
  // Parse outside the lock: a slow disk must not stall serving lookups.
  auto policy = std::make_shared<const core::DtPolicy>(core::load_policy(path));
  return install(key, std::move(policy));
}

PolicySnapshot PolicyRegistry::lookup(const std::string& key) const {
  PolicySnapshot snapshot = try_lookup(key);
  if (snapshot.policy == nullptr) {
    throw std::out_of_range("PolicyRegistry: no bundle installed for key '" + key + "'");
  }
  return snapshot;
}

PolicySnapshot PolicyRegistry::try_lookup(const std::string& key) const {
  lookups_.add();
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? PolicySnapshot{} : it->second;
}

bool PolicyRegistry::contains(const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.count(key) > 0;
}

bool PolicyRegistry::erase(const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return entries_.erase(key) > 0;
}

std::size_t PolicyRegistry::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::string> PolicyRegistry::keys() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  return out;
}

}  // namespace verihvac::serve
