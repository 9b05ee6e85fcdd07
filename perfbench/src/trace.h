// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a layer's public API in a
// Span (name, start, end, parent span, operation id). Spans live in memory
// and are written to a side file when the run ends; nothing is recorded
// while tracing is off, so untraced runs pay one branch per call site.
// Span names are "<layer>.<call>"; the layer prefix groups self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr int kCurrent = -2;

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when disabled). The parent is the
  // innermost span open on this thread unless `parent` is given — spans
  // opened on pool workers name their logical parent explicitly.
  int open(const char* name, std::uint64_t op, int parent, int current) {
    if (!enabled_) return -1;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, t, parent == kCurrent ? current : parent, op});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  std::vector<SpanRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Writes every span to `path`, one JSON object per line.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

Tracer& tracer();

// RAII span on the process tracer; it is this thread's current span for
// its lifetime, so nested spans attach to it.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t op = 0,
                int parent = Tracer::kCurrent)
      : id_(tracer().open(name, op, parent, current_)), saved_(current_) {
    if (id_ >= 0) current_ = id_;
  }
  ~Span() {
    if (id_ < 0) return;
    tracer().close(id_);
    current_ = saved_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  static thread_local int current_;
  int id_;
  int saved_;
};

}  // namespace perfbench
