#include "bench.h"

#include <sys/resource.h>

#include <fstream>
#include <iostream>

namespace perfbench {

thread_local int Span::current_ = -1;

Tracer& tracer() {
  static Tracer t;
  return t;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

bool Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "output check failed: " << what << '\n';
  }
  return ok;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

PhaseWalls alternate_for(double seconds, std::size_t min_reps,
                         const std::function<void(std::size_t)>& phase1,
                         const std::function<void(std::size_t)>& phase2) {
  PhaseWalls walls;
  const auto t0 = Clock::now();
  for (std::size_t rep = 0; rep < min_reps || seconds_since(t0) < seconds; ++rep) {
    auto t = Clock::now();
    phase1(rep);
    walls.phase1.push_back(seconds_since(t));
    t = Clock::now();
    phase2(rep);
    walls.phase2.push_back(seconds_since(t));
  }
  return walls;
}

double median_setup(std::size_t times, const std::function<void()>& setup) {
  std::vector<double> walls;
  for (std::size_t i = 0; i < times; ++i) {
    const auto t = Clock::now();
    setup();
    walls.push_back(seconds_since(t));
  }
  return median(walls);
}

std::size_t traced_pairs(double seconds,
                         const std::function<void(std::size_t)>& untraced,
                         const std::function<void(std::size_t)>& traced,
                         Outcome& out) {
  std::vector<double> untraced_walls, traced_walls;
  std::vector<Interval> windows;
  const auto t0 = Clock::now();
  std::size_t units = 0;
  do {
    tracer().enable(false);
    const auto t = Clock::now();
    untraced(units);
    untraced_walls.push_back(seconds_since(t));
    tracer().enable(true);
    const std::int64_t lo = now_ns();
    traced(units);
    const std::int64_t hi = now_ns();
    tracer().enable(false);
    traced_walls.push_back(static_cast<double>(hi - lo) * 1e-9);
    windows.push_back({lo, hi});
    ++units;
  } while (seconds_since(t0) < seconds);

  const std::vector<SpanRecord> spans = tracer().snapshot();
  const double n = static_cast<double>(units);
  out.set("trace.overhead_ratio",
          ratio(median(traced_walls), median(untraced_walls)) - 1, "ratio");
  std::int64_t unattributed = 0;
  for (const Interval& w : windows) unattributed += unattributed_ns(spans, w.start, w.end);
  out.set("trace.unattributed_s", static_cast<double>(unattributed) * 1e-9 / n, "s");
  for (const auto& [layer, secs] : self_seconds_by_layer(spans))
    out.set(layer + ".self_s", secs / n, "s");
  return units;
}

double span_seconds(const std::vector<SpanRecord>& spans, const std::string& name,
                    std::size_t units) {
  double total = 0;
  for (const double ns : span_durations_ns(spans, name)) total += ns;
  return ratio(total * 1e-9, static_cast<double>(units));
}

std::vector<double> span_durations_ns(const std::vector<SpanRecord>& spans,
                                      const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (s.name == name) out.push_back(static_cast<double>(s.end - s.start));
  return out;
}

}  // namespace perfbench
