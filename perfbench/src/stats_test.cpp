// Self-test of the benchmark's statistics helpers. Exits non-zero on the
// first failed check; the checks stay active in every build type.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void test_median() {
  check(near(perfbench::median({}), 0.0), "median of nothing is 0");
  check(near(perfbench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
  check(near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median averages the middle");
}

void test_percentiles() {
  const std::vector<double> sorted = ramp(100);
  check(near(perfbench::sorted_percentile(sorted, 50.0), 50.0), "nearest-rank p50 of 1..100");
  check(near(perfbench::sorted_percentile(sorted, 99.0), 99.0), "nearest-rank p99 of 1..100");
  check(perfbench::samples_beyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  check(perfbench::samples_beyond(999, 99.0) == 9, "999 samples leave 9 beyond p99");

  // Enough samples: the wanted percentile is reported as asked.
  const perfbench::PercentileReport full = perfbench::percentile_report(ramp(1000), 99.0);
  check(full.resolved && near(full.percentile, 99.0) && near(full.value, 990.0),
        "p99 of 1..1000 is 990");
  check(full.count == 1000, "report states its sample count");

  // Too few for p99: fall back to the highest ladder step with ten beyond.
  const perfbench::PercentileReport short_tail = perfbench::percentile_report(ramp(150), 99.0);
  check(short_tail.resolved && near(short_tail.percentile, 90.0) && near(short_tail.value, 135.0),
        "150 samples resolve p90, not p99 or p95");
  check(short_tail.label() == "p90 of 150", "label names the percentile and count");

  const perfbench::PercentileReport tiny = perfbench::percentile_report(ramp(12), 99.0);
  check(!tiny.resolved && near(tiny.value, 12.0), "12 samples cannot resolve even the median");
  check(perfbench::percentile_report({}, 50.0).count == 0, "empty sample");
}

void test_self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlap counts once)
  // and a grandchild [12,18) that must not reduce the root directly.
  std::vector<perfbench::SpanRecord> spans(4);
  spans[0] = {"root", 0, 100, -1, 1, 0};
  spans[1] = {"a", 10, 30, 0, 1, 0};
  spans[2] = {"b", 20, 50, 0, 1, 0};
  spans[3] = {"a.child", 12, 18, 1, 1, 0};
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  check(self[0] == 60, "root self = 100 - union([10,30),[20,50))");
  check(self[1] == 14, "a self = 20 - 6");
  check(self[2] == 30, "leaf self = duration");
  check(self[3] == 6, "grandchild self = duration");

  // A child running past its parent's end is clipped to the parent.
  std::vector<perfbench::SpanRecord> clipped(2);
  clipped[0] = {"p", 100, 200, -1, 0, 0};
  clipped[1] = {"c", 150, 260, 0, 0, 0};
  check(perfbench::self_times(clipped)[0] == 50, "child clipped to parent interval");
}

}  // namespace

int main() {
  test_median();
  test_percentiles();
  test_self_time();
  if (failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
