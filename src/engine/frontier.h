// Frontier-based exhaustive exploration: engine::frontier_search().
//
// The original explorer was a recursive single-threaded DFS. The engine
// replaces it with an iterative search over an explicit LIFO frontier of
// nodes, which reproduces the recursive DFS visit order (and therefore
// every counter and the first counterexample) exactly. The search runs on
// the calling thread; independent searches may run concurrently.
// A frontier node holds a shared parent record (the parent's World and its
// delivery path, stored once for all of its children) plus the one
// ExploreStep that leads to it, and is materialized when popped by
// assigning the parent's World into a scratch World (COW) and delivering
// that step. Deduplication runs through engine::VisitedSet — keyed on
// World::state_hash(), the 64-bit incremental fingerprint maintained
// through every mutation, so the default mode performs zero canonical
// encodings per visited state; opt-in exact mode keys on full canonical
// encodings instead.
//
// With Reduction::symmetry engaged, the COUNTERS are visit-order
// dependent: the canonical key's signature tie-break can under-merge, and
// which tie-sibling becomes the representative — and whether its twins
// later re-merge — depends on the pop order. Reduced runs reach every
// terminal-state ORBIT the full search reaches in each differential test
// (tests/engine/reduction_test.cpp: ABD, CAS and LDR). That is checked,
// not proven: sleep sets combined with visited-set merging depend on
// visit order, and a state first reached with a larger sleep set is
// never re-expanded with a smaller one (ROADMAP "sound sleep sets").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "sim/world.h"

namespace memu {

struct ExploreOptions {
  std::size_t max_depth = 200;       // deliveries along one path
  std::size_t max_states = 500'000;  // distinct states to expand
  // Branch over every in-channel position too (the paper's channels are
  // not FIFO). Branches that lead to identical states (e.g. delivering
  // either of two adjacent identical payloads) merge in the visited set.
  bool reorder = false;

  // --- engine knobs ---------------------------------------------------------
  // Store full canonical encodings in the visited set instead of the
  // incremental 64-bit state hash (collision-paranoid mode; pays one
  // canonical encoding per visited state and ~encoding-length x the
  // memory).
  bool exact_dedupe = false;

  // --- memory budget -------------------------------------------------------
  // Hard byte cap for the search's growing structures (`--mem` on the
  // tools). Unbounded (the default) lets them grow on demand. Bounded, they
  // still grow on demand, but only up to a share: the visited set up to
  // half the budget, the frontier nodes up to an eighth. Growth past a
  // share CHECK-fails with a --mem sizing hint, so a run that completes
  // under a budget is identical to the unbudgeted run. The remainder is
  // slack for parent Worlds and bookkeeping the engine cannot meter
  // exactly.
  MemBudget mem;

  // --- partial-order reduction ---------------------------------------------
  // Both reductions are opt-in and preserve the ok/violation verdict and
  // the reachable terminal-state set (see DESIGN.md for the arguments and
  // tests/engine/reduction_test.cpp for the differential checks).
  struct Reduction {
    // Sleep sets over the delivery independence relation (engine/dpor.h):
    // prune interleavings that merely reorder commuting deliveries already
    // covered by an earlier sibling branch. Cuts transitions and dedupe
    // probes; the set of VISITED states is unchanged.
    bool sleep_sets = false;
    // Merge states differing only by a permutation of interchangeable
    // servers (sim/symmetry.h): the dedupe key becomes the World under the
    // orbit-canonical server relabeling — its canonical encoding in exact
    // mode, its relabeled state hash in fingerprint mode. Silently ignored
    // unless the root World is eligible (no process keeps
    // Process::symmetry() == kNone and some role group has >= 2 servers)
    // — check ExploreResult::symmetry_applied.
    bool symmetry = false;
  };
  Reduction reduction;
};

// One delivery along an exploration path.
struct ExploreStep {
  ChannelId chan;
  std::size_t index = 0;
};

struct ExploreResult {
  std::size_t states_visited = 0;   // distinct states expanded
  std::size_t terminal_states = 0;  // quiescent states reached
  std::size_t transitions = 0;      // deliveries executed
  std::size_t deduped = 0;          // revisits merged away
  std::size_t truncated = 0;        // expansions rejected by max_states
  // Visited-set footprint, via VisitedSet::memory_bytes(): open-addressed
  // slot tables plus (exact mode) the encoding bytes the slabs hold. The
  // two modes are NOT comparable byte-for-byte — check exact_dedupe before
  // comparing across runs (bench emitters tag every record with its mode
  // for exactly this reason).
  std::size_t dedupe_bytes = 0;
  std::size_t dedupe_entries = 0;  // states retained by the visited set
  bool exact_dedupe = false;       // mode behind dedupe_bytes (see above)
  // Peak bytes of frontier nodes (node structs + sleep sets; the shared
  // parent records — each expanded state's World and path — are slack,
  // not metered here). Never more than mem.total / 8 on a budgeted run
  // that completes.
  std::size_t frontier_bytes = 0;
  // Paths cut by max_depth. Like truncated, any nonzero value means the
  // run did NOT cover the space (complete is false) — a depth-limited run
  // reporting ok=true has only checked what it reached.
  std::size_t depth_cut = 0;
  // --- partial-order reduction telemetry -----------------------------------
  // Children pruned because their step was in the parent's sleep set.
  std::size_t sleep_blocked = 0;
  // Dedupe hits that merged a SYMMETRIC twin (the plain fingerprint was
  // fresh when the canonical key was not). Metered only on unbudgeted
  // runs — the twin-detector is an unmetered auxiliary set — and 0 under
  // --mem; the states_visited drop is the budget-safe measure.
  std::size_t symmetry_merged = 0;
  // Whether symmetry reduction actually engaged (requested AND the root
  // World was eligible).
  bool symmetry_applied = false;
  // Replay work: steps delivered materializing popped nodes, one per
  // non-root pop, so always equal to `transitions`.
  std::size_t replay_steps = 0;
  bool complete = false;  // the whole space fit within the bounds
  bool ok = true;         // no invariant/terminal violation found
  std::string violation;  // description of the first violation
  // The delivery sequence from the initial state to the first violating
  // state — a replayable counterexample (apply World::deliver(chan, index)
  // in order, or engine::replay()).
  std::vector<ExploreStep> violation_path;
};

// Returns a violation description, or nullopt if the state is fine.
using StateCheck = std::function<std::optional<std::string>(const World&)>;
// True when the search should stop at the state (see frontier_search).
using LeafCheck = std::function<bool(const World&)>;

namespace engine {

// Explores every state reachable from `initial` under the options.
// `invariant` runs at every state (pass {} to skip); `terminal` runs at
// quiescent states.
//
// `leaf` (optional) runs after `invariant`, before child generation. A
// state it accepts is admitted and counted in states_visited but not
// expanded: not terminal, and `terminal` is not run on it. Under sleep
// sets what the caller collects
// at leaves is kept if the leaf predicate stays true, with the same
// value, under any step that commutes with the step that made it true. A
// read response does: a delivery to the reader produces it, and any step
// to the reader is dependent with that delivery and wakes it (dpor.h).
ExploreResult frontier_search(const World& initial, const ExploreOptions& opt,
                              const StateCheck& invariant,
                              const StateCheck& terminal,
                              const LeafCheck& leaf = {});

}  // namespace engine
}  // namespace memu
