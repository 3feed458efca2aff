// Span recorder for the benchmark's traced runs.
//
// Every public library call the benchmark makes is wrapped in a Scope:
// name, module (the track it lands on), start, end, parent span and the
// frame or request it belongs to. Spans stay in memory and are written
// once at exit, as Chrome trace-event JSON with one track per module.
// With tracing off a Scope records nothing, so the untraced runs that
// produce the end-to-end metrics pay one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic host clock in seconds.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;    // "<module>.<call>", e.g. "engines.run_model"
  std::string module;  // track: the prefix of name before the first '.'
  double start = 0;    // host seconds
  double end = 0;
  int parent = -1;     // index into Tracer::spans(), -1 at the root
  long long id = -1;   // frame or request id, -1 when not per-item
};

/// Aggregate of all spans sharing one name.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_seconds = 0;
  double self_seconds = 0;  // total minus the time child spans cover
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int open(std::string name, long long id);
  void close(int span);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Moves another tracer's closed spans in, re-parenting its root spans
  /// under this tracer's innermost open span.
  void append(const Tracer& other);

  /// Summed and mean duration of the spans named `name`.
  double total_seconds(const std::string& name) const;
  double mean_seconds(const std::string& name) const;

  /// Per-name totals with self time, in first-seen order.
  std::vector<SpanSummary> summarize() const;

  /// Writes the spans as Chrome trace-event JSON (one tid per module,
  /// named by thread_name metadata), loadable in Perfetto.
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& t, const char* name, long long id = -1)
      : tracer_(t), span_(t.enabled() ? t.open(name, id) : -1) {}
  ~Scope() {
    if (span_ >= 0) tracer_.close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace perfbench
