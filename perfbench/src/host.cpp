#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string isa_flags() {
  std::string flags;
  const auto add = [&flags](bool present, const char* name) {
    if (!present) return;
    if (!flags.empty()) flags += ' ';
    flags += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
#elif defined(__aarch64__)
  add(true, "aarch64");
#endif
  return flags.empty() ? "baseline" : flags;
}

}  // namespace

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

std::string provenance_json(const Provenance& p) {
  std::map<std::string, std::string> knobs;
  for (char** entry = environ; entry != nullptr && *entry != nullptr; ++entry) {
    const char* kv = *entry;
    if (std::strncmp(kv, "VERI_HVAC_", 10) != 0) continue;
    const char* eq = std::strchr(kv, '=');
    if (eq == nullptr) continue;
    knobs.emplace(std::string(kv, eq), std::string(eq + 1));
  }
  std::ostringstream out;
  out << "{\"workload\": \"" << json_escape(p.workload) << "\", \"seed\": " << p.seed
      << ", \"seconds\": " << p.seconds << ", \"trace\": " << (p.trace ? "true" : "false")
      << ", \"usable_cores\": " << usable_cores()
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ", \"isa\": \"" << isa_flags() << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\", \"commit\": \""
      << json_escape(p.commit) << "\", \"pool_threads\": " << p.pool_threads
      << ", \"queue_shards\": " << p.queue_shards
      << ", \"session_shards\": " << p.session_shards << ", \"env\": {";
  bool first = true;
  for (const auto& [name, value] : knobs) {
    out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": \"" << json_escape(value)
        << "\"";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
