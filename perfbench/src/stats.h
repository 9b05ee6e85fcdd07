// Pure statistics helpers for the benchmark: order statistics over timing
// samples, zero-safe ratios, and span self time (a span's duration minus
// the union of its children's intervals). Header-only so the unit tests
// link nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Median of `v` (mean of the two middle values for an even count); 0 for
// an empty sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile, p in [0, 100]: the smallest sample with at
// least p% of the samples at or below it. 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

// The highest percentile in {99, 95, 90, 75, 50} that has at least ten
// samples strictly beyond its rank, so a tail figure is never one outlier.
// Returns 50 when even the median lacks ten samples above it.
inline double supported_percentile(std::size_t samples) {
  for (const std::size_t p : {99, 95, 90, 75}) {
    const std::size_t rank = (p * samples + 99) / 100;  // ceil(p% of n)
    if (samples - rank >= 10) return static_cast<double>(p);
  }
  return 50.0;
}

// num / den, or 0 when the denominator is 0 (a layer the run did not
// exercise reports 0, never NaN or inf).
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Interval {
  std::int64_t start = 0, end = 0;  // nanoseconds, end >= start
};

// Length of the union of `v` clipped to [lo, hi]. Overlapping intervals
// (children recorded on different threads) count once.
inline std::int64_t union_length(std::vector<Interval> v, std::int64_t lo,
                                 std::int64_t hi) {
  std::int64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  for (const Interval& iv : v) {
    const std::int64_t s = std::max(iv.start, lo), e = std::min(iv.end, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

// One recorded span. `parent` indexes the enclosing span in the same
// vector, or -1 for a top-level span.
struct SpanRecord {
  std::string name;
  std::int64_t start = 0, end = 0;  // nanoseconds on the steady clock
  int parent = -1;
  std::uint64_t op = 0;  // operation id: repetition, walk, pair, key...
};

// The layer a span belongs to: its name up to the first '.'.
inline std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

// Self time of every span: its duration minus the union of its direct
// children's intervals.
inline std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& s) {
  std::vector<std::vector<Interval>> kids(s.size());
  for (const SpanRecord& r : s)
    if (r.parent >= 0) kids[static_cast<std::size_t>(r.parent)].push_back({r.start, r.end});
  std::vector<std::int64_t> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    out[i] = (s[i].end - s[i].start) - union_length(kids[i], s[i].start, s[i].end);
  return out;
}

// Self seconds summed per layer.
inline std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRecord>& s) {
  const std::vector<std::int64_t> self = self_times(s);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < s.size(); ++i)
    out[layer_of(s[i].name)] += static_cast<double>(self[i]) * 1e-9;
  return out;
}

// Part of [lo, hi] that no top-level span covers: the time the benchmark
// cannot attribute to any layer call.
inline std::int64_t unattributed_ns(const std::vector<SpanRecord>& s,
                                    std::int64_t lo, std::int64_t hi) {
  std::vector<Interval> top;
  for (const SpanRecord& r : s)
    if (r.parent < 0) top.push_back({r.start, r.end});
  return (hi - lo) - union_length(top, lo, hi);
}

}  // namespace perfbench
