// Benchmark-side tracing: spans recorded around the public library calls a
// traced pass makes, kept in memory and written as Chrome-trace JSON when
// the pass ends. Spans inside the library are out of scope, so a layer's
// self time here is the time spent inside calls *into* that layer minus
// the calls it made into other layers that the benchmark could bracket.
//
// Single-threaded by design: traced passes run every Campaign at jobs 1,
// so spans nest strictly and a stack yields each span's parent.
#pragma once

#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace bench {

struct Span {
  std::string name;
  std::string layer;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = -1.0;   ///< < 0 while open
  int parent = -1;       ///< index into the span list, -1 for a root
  long cell = -1;        ///< cell index the span works for, -1 for none
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// The recorder spans go to, or null when tracing is off (the default).
  static SpanRecorder* active();
  static void set_active(SpanRecorder* recorder);

  int begin(std::string name, std::string layer, long cell = -1);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of each span minus the time its direct children cover,
  /// summed per layer. Over a closed trace the values add up to the
  /// summed duration of the root spans.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Chrome trace-event JSON ("X" complete events, one thread).
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on the active recorder; costs one pointer test when tracing
/// is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* layer, long cell = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_ = -1;
};

/// Seconds on the monotonic clock; the benchmark's only time source.
double now_s();

}  // namespace bench
