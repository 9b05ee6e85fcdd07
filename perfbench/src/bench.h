// Shared plumbing of the four workloads: the run configuration, the
// outcome a workload fills (output checks and metrics), timed repetition,
// and the traced-run bookkeeping.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  // checkout root (holds src/ and bench/fig1/)
  std::string out_dir;     // scratch space for artifacts and side files
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0, failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Counts one output check; a failure is reported on stderr.
  bool check(bool ok, const std::string& what);
};

double seconds_since(Clock::time_point t0);
double peak_rss_mb();

struct PhaseWalls {
  std::vector<double> phase1, phase2;  // seconds of each call
};

// Alternates phase1(rep) and phase2(rep) for rep = 0, 1, ... until
// `seconds` have passed and each ran at least `min_reps` times. Alternating
// spreads both phases over the whole run, so a slow spell on a shared
// machine shifts both a little instead of one a lot.
PhaseWalls alternate_for(double seconds, std::size_t min_reps,
                         const std::function<void(std::size_t)>& phase1,
                         const std::function<void(std::size_t)>& phase2);

// Runs `setup` `times` times and returns the median seconds.
double median_setup(std::size_t times, const std::function<void()>& setup);

// The traced run. Alternates one untraced unit and one traced unit until
// `seconds` have passed (at least one pair), then reports
// trace.overhead_ratio (median traced wall / median untraced wall - 1),
// trace.unattributed_s (per traced unit: wall no top-level span covers)
// and <layer>.self_s (per traced unit) for every layer that recorded
// spans. Returns the number of traced units run.
std::size_t traced_pairs(double seconds,
                         const std::function<void(std::size_t)>& untraced,
                         const std::function<void(std::size_t)>& traced,
                         Outcome& out);

// Per-unit mean of the named spans' durations, in seconds, over `units`.
double span_seconds(const std::vector<SpanRecord>& spans, const std::string& name,
                    std::size_t units);
// Durations of the named spans, in nanoseconds.
std::vector<double> span_durations_ns(const std::vector<SpanRecord>& spans,
                                      const std::string& name);

void run_explore(const RunConfig& cfg, Outcome& out);
void run_fuzz(const RunConfig& cfg, Outcome& out);
void run_sweep(const RunConfig& cfg, Outcome& out);
void run_harness(const RunConfig& cfg, Outcome& out);

}  // namespace perfbench
