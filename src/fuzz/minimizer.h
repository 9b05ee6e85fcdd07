// Counterexample minimization: greedy delta debugging over the injected
// events of a violating FuzzTrace.
//
// Classic ddmin (Zeller-Hildebrandt) over the event list, followed by a
// single-event sweep, so the result is 1-minimal: removing ANY one
// remaining event makes the violation disappear. Each candidate is tested
// by scripted replay — fully deterministic, so minimization itself is
// deterministic: same input trace, same minimized trace, same test count.
//
// Probing is round-based: every round materializes its full candidate set
// (the n chunks, the n complements, or the single-event removals), replays
// ALL of them — concurrently across `threads` workers — and commits
// the lowest-index candidate that still violates. Committing the lowest
// index makes the reduction sequence, the final trace, and `tests_run`
// (which counts every probe launched, round by round) identical for every
// thread count; `threads` is purely a wall-clock knob.
//
// The minimized trace may be EMPTY: a violation that the schedule alone
// produces (e.g. abd-regular checked atomic) needs no faults, and ddmin
// correctly strips all of them.
#pragma once

#include <cstddef>

#include "fuzz/trace_io.h"

namespace memu::fuzz {

struct MinimizeResult {
  FuzzTrace trace;            // minimized; violation fields refreshed
  std::size_t tests_run = 0;  // replays launched shrinking (all rounds)
  // True when the minimized trace still reproduces a violation. False only
  // if the INPUT trace did not violate (nothing to shrink — input returned
  // unchanged).
  bool still_violates = false;
};

// Shrinks `input` to a 1-minimal script. `threads` workers replay each
// round's probes concurrently; the result is identical for any value.
MinimizeResult minimize(const FuzzTrace& input, std::size_t threads = 1);

}  // namespace memu::fuzz
