#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(),
                                         values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

namespace {

/// 1-based nearest rank of the pct percentile in a sample of n.
std::size_t nearest_rank(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double sorted_percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), pct) - 1];
}

std::size_t samples_beyond(std::size_t n, double pct) {
  return n == 0 ? 0 : n - nearest_rank(n, pct);
}

std::string PercentileReport::label() const {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "p%g of %zu%s", percentile, count,
                resolved ? "" : " (unresolved: max)");
  return buffer;
}

PercentileReport percentile_report(std::vector<double> samples, double wanted_pct) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  PercentileReport report;
  report.count = samples.size();
  if (samples.empty()) return report;
  std::sort(samples.begin(), samples.end());
  std::vector<double> candidates{wanted_pct};
  for (const double pct : kLadder) {
    if (pct < wanted_pct) candidates.push_back(pct);
  }
  for (const double pct : candidates) {
    if (samples_beyond(samples.size(), pct) >= 10) {
      report.value = sorted_percentile(samples, pct);
      report.percentile = pct;
      report.resolved = true;
      return report;
    }
  }
  report.value = samples.back();
  report.percentile = 100.0;
  return report;
}

std::vector<std::uint64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const std::uint64_t duration = span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
    covered.clear();
    for (const std::size_t c : children[i]) {
      const std::uint64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::uint64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (lo < hi) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ns = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    out[i] = duration - std::min(duration, union_ns);
  }
  return out;
}

}  // namespace perfbench
