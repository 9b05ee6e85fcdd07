// Valency probing — the executable form of Definition 4.3 / 5.3.
//
// A point P of an execution is k-valent when the execution can be extended,
// with all messages from and to the writer delayed indefinitely, so that a
// read returns v_k. We probe this by cloning the World at P, freezing the
// writer, optionally letting server-to-server channels flush (the
// Theorem 5.1 variant), invoking a read, and running the rest of the system
// fairly until the read responds.
//
// The probe is deterministic (round-robin schedule), so its result is a
// function of the frozen point's live state — exactly the property the
// proofs' injectivity arguments rely on.
#pragma once

#include <optional>
#include <set>

#include "adversary/sut.h"
#include "engine/scheduler.h"
#include "registers/value.h"
#include "sim/world.h"

namespace memu::adversary {

struct ProbeOptions {
  // Deliver all pending server-to-server messages before invoking the read
  // (Definition 5.3; a no-op for gossip-free algorithms).
  bool flush_gossip = false;
  // Decide valency EXACTLY, by exploring all extension schedules
  // (probe_read_all_values) instead of one deterministic schedule. Matches
  // Definition 4.3's existential quantifier; use on small configurations.
  bool exact = false;
  std::uint64_t max_steps = 200000;
};

// Invokes a read at `reader` on `w` and steps `sched` until it responds or
// `max_steps` messages are delivered. Returns the value read, or nullopt if
// the read did not respond. The caller owns the schedule before the read
// (freezes, blocks, a drain on the same scheduler): this is only the solo
// read at the end of every valency probe.
std::optional<Value> run_solo_read(World& w, NodeId reader, Scheduler& sched,
                                   std::uint64_t max_steps);

// Returns the value a solo read obtains from point `at` with the writer
// frozen, or nullopt if the read does not terminate within max_steps
// (which, for a live algorithm, indicates a harness misuse).
std::optional<Value> probe_read(const World& at, NodeId writer, NodeId reader,
                                const ProbeOptions& opt = {});

// The EXACT valency set: every value some schedule of the extension can
// make the solo read return (writer frozen, read invoked at `at`). Decides
// Definition 4.3's existential quantifier by one engine::frontier_search
// over every delivery schedule (exact dedupe, sleep sets; a state where
// the read has responded is a leaf) — feasible for small configurations,
// and the ground truth against which the deterministic probe_read is
// validated. `max_states` bounds the exploration; exceeding it is a
// contract error (an undecided probe must not silently pass as decided).
std::set<Value> probe_read_all_values(const World& at, NodeId writer,
                                      NodeId reader,
                                      const ProbeOptions& opt = {},
                                      std::size_t max_states = 200000);

}  // namespace memu::adversary
