// Statistics helpers of the benchmark: medians, percentile reports and
// span self-time. Kept free of any veri-hvac dependency so the self-test
// (stats_test.cpp) builds in seconds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least pct% of the sample at or below it.
double sorted_percentile(const std::vector<double>& sorted, double pct);

/// A latency percentile as the benchmark reports it: the requested
/// percentile when at least ten samples lie beyond it, otherwise the
/// highest percentile of the ladder 99.99/99.9/99/95/90/75/50 below the
/// request that has ten beyond it. `percentile` says which one was taken
/// and `count` how many samples it rests on.
struct PercentileReport {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t count = 0;
  /// False when not even the median has ten samples beyond it (fewer than
  /// 20 samples); `value` is then the sample maximum.
  bool resolved = false;

  /// "p99 of 12345" style label.
  std::string label() const;
};

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
std::size_t samples_beyond(std::size_t n, double pct);

PercentileReport percentile_report(std::vector<double> samples, double wanted_pct);

/// One recorded span: [start_ns, end_ns) with the index of its parent in
/// the same vector (-1 for a root).
struct SpanRecord {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children clipped to
/// the parent; overlapping children count once). out[i] belongs to
/// spans[i].
std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
