// In-memory spans recorded around the benchmark's own calls into each
// layer (traced runs only), merged into one trace at the end of the run
// and written as a Chrome trace_event file plus a per-layer self-time
// table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
std::uint64_t now_ns();

/// Spans recorded by one thread; parents index into the same buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint32_t thread = 0) : thread_(thread) {}

  /// Opens a span now; returns its index (the parent of nested spans).
  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t request) {
    spans_.push_back({name, now_ns(), 0, parent, request, thread_});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t index) { spans_[static_cast<std::size_t>(index)].end_ns = now_ns(); }
  /// Records an already-timed span.
  std::int64_t add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::int64_t parent, std::uint64_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request, thread_});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::uint32_t thread_;
  std::vector<SpanRecord> spans_;
};

struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanTrace {
 public:
  /// Appends a thread's spans (parent indices rebased).
  void absorb(const SpanBuffer& buffer);
  /// Appends spans recorded by the program's own obs::TraceCollector
  /// (e.g. the adaptation controller's adapt.* stages). Nesting among
  /// them is recovered from interval containment per thread; top-level
  /// ones hang under `parent` (an index of this trace, or -1).
  void import_obs(const std::vector<verihvac::obs::SpanRecord>& spans, std::int64_t parent,
                  std::uint32_t thread);
  std::size_t size() const { return spans_.size(); }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per span name: count, total and self time, sorted by self time.
  std::vector<LayerRow> layer_table() const;
  std::string layer_table_text() const;
  /// Chrome trace_event JSON ("X" events; args carry span id, parent id
  /// and request id).
  void write_chrome(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
