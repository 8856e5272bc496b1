#include "span_trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch)
          .count());
}

void SpanTrace::absorb(const SpanBuffer& buffer) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (SpanRecord span : buffer.spans()) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

void SpanTrace::import_obs(const std::vector<verihvac::obs::SpanRecord>& spans,
                           std::int64_t parent, std::uint32_t thread) {
  // Map the collector's clock onto ours with one paired reading.
  const std::int64_t offset = static_cast<std::int64_t>(now_ns()) -
                              static_cast<std::int64_t>(
                                  verihvac::obs::TraceCollector::global().now_ns());
  std::vector<verihvac::obs::SpanRecord> sorted = spans;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.duration_ns > b.duration_ns;
  });
  std::vector<std::int64_t> stack;  // open enclosing spans of the current tid
  std::uint32_t tid = ~0u;
  for (const auto& span : sorted) {
    if (span.tid != tid) {
      stack.clear();
      tid = span.tid;
    }
    const auto start =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(span.start_ns) + offset);
    const std::uint64_t end = start + span.duration_ns;
    while (!stack.empty() && spans_[static_cast<std::size_t>(stack.back())].end_ns < end) {
      stack.pop_back();
    }
    SpanRecord record;
    record.name = span.name;
    record.start_ns = start;
    record.end_ns = end;
    record.parent = stack.empty() ? parent : stack.back();
    record.thread = thread + span.tid;
    spans_.push_back(record);
    stack.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  }
}

std::vector<LayerRow> SpanTrace::layer_table() const {
  const std::vector<std::uint64_t> self = self_times(spans_);
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerRow& row = rows[spans_[i].name];
    row.name = spans_[i].name;
    ++row.count;
    row.total_ms += static_cast<double>(spans_[i].end_ns - std::min(spans_[i].end_ns,
                                                                     spans_[i].start_ns)) * 1e-6;
    row.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::string SpanTrace::layer_table_text() const {
  std::string out = "layer                                    spans     total_ms      self_ms\n";
  char line[160];
  for (const LayerRow& row : layer_table()) {
    std::snprintf(line, sizeof(line), "%-36s %9zu %12.3f %12.3f\n", row.name.c_str(), row.count,
                  row.total_ms, row.self_ms);
    out += line;
  }
  return out;
}

void SpanTrace::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"traceEvents\":[";
  char line[384];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double ts = static_cast<double>(s.start_ns) * 1e-3;
    const double dur = static_cast<double>(s.end_ns - std::min(s.end_ns, s.start_ns)) * 1e-3;
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%lld,"
                  "\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, ts, dur, s.thread, i,
                  static_cast<long long>(s.parent), static_cast<unsigned long long>(s.request));
    out << line;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("perfbench: failed writing " + path);
}

}  // namespace perfbench
