#include "spans.hpp"

#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace bench {

namespace {
SpanRecorder* g_active = nullptr;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

SpanRecorder* SpanRecorder::active() { return g_active; }

void SpanRecorder::set_active(SpanRecorder* recorder) { g_active = recorder; }

int SpanRecorder::begin(std::string name, std::string layer, long cell) {
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.start_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - origin_)
                     .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.cell = cell;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (open_.empty() || open_.back() != id) {
    // Spans come from RAII guards and same-thread callback pairs, so this
    // is a benchmark bug; a trace with broken nesting has no self times.
    std::fprintf(stderr, "span '%s' closed out of order\n",
                 spans_.at(static_cast<std::size_t>(id)).name.c_str());
    std::abort();
  }
  open_.pop_back();
  spans_[id].end_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - origin_)
                         .count();
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_s - spans_[i].start_s;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_s - spans_[i].start_s;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].layer] += self[i];
  }
  return by_layer;
}

void SpanRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"cell\": %ld}}%s\n",
                  s.name.c_str(), s.layer.c_str(), s.start_s * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent, s.cell,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
}

ScopedSpan::ScopedSpan(const char* name, const char* layer, long cell)
    : recorder_(SpanRecorder::active()) {
  if (recorder_ != nullptr) id_ = recorder_->begin(name, layer, cell);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->end(id_);
}

}  // namespace bench
