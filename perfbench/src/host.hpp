// Host and provenance block stamped on every benchmark result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// CPUs in this process's affinity mask (what the scheduler may actually
/// run us on), falling back to hardware_concurrency when unavailable.
std::size_t usable_cores();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// CPU time all threads of this process have used, in seconds.
double process_cpu_seconds();

struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string commit;
  std::size_t pool_threads = 0;
  std::size_t queue_shards = 0;
  std::size_t session_shards = 0;
};

/// One-line JSON object: usable cores, ISA flags, build type, compiler,
/// commit, effective VERI_HVAC_* environment, pool/shard sizes and seed.
std::string provenance_json(const Provenance& provenance);

}  // namespace perfbench
