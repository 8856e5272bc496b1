// perfbench — the repository benchmark driver.
//
//   perfbench --workload dt_fleet|fleet_burst|extract_adapt --seed N
//             --seconds S --trace 0|1 [--out DIR] [--commit ID]
//
// Every run sets up five times (setup_s is the median CPU time), then runs
// its rounds of the three phases (see workloads.hpp) and checks their
// outputs.
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same rounds
// untraced and then traced, prints the per-layer metrics plus the tracing
// overhead, and writes a Chrome trace and a per-layer self-time table to
// DIR. The last line of standard output is the result object.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "host.hpp"
#include "serve/session_manager.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = "perfbench_out";
  std::string commit = "unknown";
};

/// The run-level metrics reported end to end. Every other run-level
/// metric is reported with the per-layer metrics of the traced run: none
/// repeated within a tenth across ten seeds in every set of runs on the
/// shared host it was measured on (README.md). setup_s is required.
const std::set<std::string> kEndToEnd = {"setup_s"};

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || args.trace < 0 || args.trace > 1 ||
      !(args.seconds >= 1.0 && args.seconds <= 600.0)) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S(1..600) --trace 0|1");
  }
  return args;
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  char number[64];
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::snprintf(number, sizeof(number), "%.17g", metric.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
    (void)shapes_for(args.workload, args.seconds);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }

  BenchContext ctx;
  ctx.seed = args.seed;
  ctx.cores = usable_cores();
  // The shared pool behind run_pipeline and the adaptation teacher sizes
  // itself from VERI_HVAC_THREADS; pin it to the usable cores unless the
  // caller chose a size.
  if (std::getenv("VERI_HVAC_THREADS") == nullptr) {
    setenv("VERI_HVAC_THREADS", std::to_string(ctx.cores).c_str(), 1);
  }
  ctx.pool = std::make_shared<const verihvac::common::TaskPool>(
      verihvac::common::TaskPoolConfig{ctx.cores});
  ctx.pool1 = std::make_shared<const verihvac::common::TaskPool>(
      verihvac::common::TaskPoolConfig{1});
  ctx.queue_shards = std::min<std::size_t>(2, ctx.cores);
  install_pool_overlap_hook();

  const Shapes shapes = shapes_for(args.workload, args.seconds);
  RunResult result;
  try {
    // setup_s is the CPU time of a set-up: set-up runs on one thread, so
    // on a quiet host this equals its wall time, and a host that
    // deschedules the benchmark for a while does not read as slower
    // set-up (with four busy neighbours on four cores the wall time rose
    // by 40%, the CPU time by 15%).
    std::vector<double> setup_s;
    std::vector<double> setup_wall_s;
    Prepared prepared;
    for (int i = 0; i < 5; ++i) {
      prepared = Prepared();
      const auto t0 = std::chrono::steady_clock::now();
      const double cpu0 = process_cpu_seconds();
      prepared = prepare(ctx, shapes);
      setup_s.push_back(process_cpu_seconds() - cpu0);
      setup_wall_s.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
    std::printf("setup: median %.3f s CPU, %.3f s wall, of %zu\n", median(setup_s),
                median(setup_wall_s), setup_s.size());

    std::map<std::string, Metric> phase;
    run_measured(ctx, shapes, prepared, result, phase);
    phase["setup_s"] = {median(setup_s), "s"};
    phase["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    for (const auto& [name, metric] : phase) {
      (kEndToEnd.count(name) > 0 ? result.end_to_end : result.per_layer)[name] = metric;
    }
    std::printf("phase metrics: %s\n", metrics_json(phase).c_str());

    if (args.trace == 1) {
      // A fresh set-up so the traced rounds start from the same state.
      prepared = prepare(ctx, shapes);
      SpanTrace trace;
      std::map<std::string, Metric> traced;
      run_traced(ctx, shapes, prepared, result, trace, traced);
      for (const auto& [name, metric] : traced) {
        const double untraced = phase.at(name).value;
        result.layer("trace.overhead." + name, metric.value - untraced, metric.unit);
        std::printf("tracing overhead %-22s traced %.6g - untraced %.6g = %+.6g %s\n",
                    name.c_str(), metric.value, untraced, metric.value - untraced,
                    metric.unit.c_str());
      }
      std::filesystem::create_directories(args.out);
      const std::string stem =
          args.out + "/" + args.workload + "-seed" + std::to_string(args.seed);
      trace.write_chrome(stem + ".trace.json");
      std::ofstream table(stem + ".layers.txt");
      table << trace.layer_table_text();
      std::printf("%s", trace.layer_table_text().c_str());
      std::printf("trace: %zu spans written to %s.trace.json\n", trace.size(), stem.c_str());
    }
  } catch (const std::exception& error) {
    result.fail(std::string("run aborted: ") + error.what());
    ++result.failed;
    ++result.attempted;
  }

  Provenance provenance;
  provenance.workload = args.workload;
  provenance.seed = args.seed;
  provenance.seconds = args.seconds;
  provenance.trace = args.trace == 1;
  provenance.commit = args.commit;
  provenance.pool_threads = ctx.pool->thread_count();
  provenance.queue_shards = ctx.queue_shards;
  provenance.session_shards = verihvac::serve::SessionManager().shard_count();
  std::printf("provenance: %s\n", provenance_json(provenance).c_str());
  const std::map<std::string, Metric>& printed =
      args.trace == 1 ? result.per_layer : result.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed), metrics_json(printed).c_str());
  return 0;
}
