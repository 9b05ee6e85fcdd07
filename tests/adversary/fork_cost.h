// Test helper: what the proof harnesses' World forks cost. Each harness
// forks a World per probe; copy-on-write keeps a fork to the bytes its next
// steps actually touch. The case tables pin that figure per case under a
// ceiling of kForkCostSlack times the value the case measured when the
// ceiling was set, so a change that makes forks copy more fails the case.
// The figure is a count of logical bytes, independent of the machine.
#pragma once

#include <cstdint>

#include "sim/cow_stats.h"

namespace memu::testing {

inline constexpr double kForkCostSlack = 1.25;

// COW bytes materialized per World fork while `run()` executes.
template <class Fn>
double cow_bytes_per_fork(Fn&& run) {
  const cowstats::Snapshot before = cowstats::snapshot();
  run();
  const cowstats::Snapshot d = cowstats::snapshot() - before;
  return d.world_copies == 0 ? 0.0
                             : static_cast<double>(d.bytes_copied) /
                                   static_cast<double>(d.world_copies);
}

}  // namespace memu::testing
