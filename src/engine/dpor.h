// Dynamic partial-order reduction: the independence relation over
// ExploreSteps and the sleep-set bookkeeping frontier_search threads
// through its nodes.
//
// A step is the delivery of one queued message. Two deliveries a and b
// taken from the same state commute — executing them in either order
// reaches the same World — iff swapping them changes no observable state.
// A delivery (c, i):
//   * pops message i from channel c and nothing from any other channel,
//   * runs on_message on c.dst, which mutates only c.dst's process state
//     and APPENDS messages to the backs of c.dst's outgoing queues,
//   * may append operation events to the shared oplog when c.dst is a
//     client (servers never log ops).
// So deliveries to distinct destinations touch disjoint process state and
// disjoint channel queues (appends at queue backs leave existing message
// indices stable, so the swapped-order step names the same message), and
// the only shared structure left is the oplog: two client-destined
// deliveries can interleave their event appends, and event ORDER is part
// of the canonical state. Hence:
//
//   independent(a, b)  <=>  a.chan.dst != b.chan.dst
//                           AND NOT (both destinations are clients)
//
// This is derived purely from channel metadata (destination + a
// server/client bitmap taken from the root World); no per-algorithm
// knowledge is consulted. It is exact commutation, not an approximation:
// that is what makes sleep sets compose soundly with fingerprint dedupe
// (see DESIGN.md).
//
// Sleep sets (Godefroid): a node carries the set of steps `Z` such that
// every interleaving starting with a step in Z has already been covered
// by an earlier sibling branch. visit() skips enumerated steps found in
// Z (counted as sleep_blocked), and the child of executed step e inherits
//   { t in Z ∪ {earlier emitted siblings} : independent(t, e) }
// — dependent steps wake up because executing e may have changed what
// they do. Sleeping steps stay well-formed in the child: e pops only its
// own channel (disjoint from every sleeping step's channel, since equal
// channels share a destination) and appends only at queue backs, so a
// sleeping (c, i) still names the same deliverable message after e.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/frontier.h"

namespace memu {
class World;
}

namespace memu::engine::dpor {

// Per-node server/client bitmap (indexed by NodeId::value), taken from the
// root World. Exploration never adds processes, and crashes do not change
// a node's role, so one snapshot serves the whole search.
std::vector<std::uint8_t> server_mask(const World& root);

inline bool same_step(const ExploreStep& a, const ExploreStep& b) {
  return a.chan == b.chan && a.index == b.index;
}

// True iff the two deliveries commute from any state where both are
// enabled (see file comment for the derivation).
inline bool independent(const ExploreStep& a, const ExploreStep& b,
                        const std::vector<std::uint8_t>& is_server) {
  if (a.chan.dst == b.chan.dst) return false;
  const auto server = [&](NodeId id) {
    return id.value < is_server.size() && is_server[id.value] != 0;
  };
  // Two client-destined deliveries race on oplog event order.
  return server(a.chan.dst) || server(b.chan.dst);
}

// True iff `e` is in the sleep set.
inline bool sleeps(const std::vector<ExploreStep>& sleep,
                   const ExploreStep& e) {
  for (const ExploreStep& s : sleep) {
    if (same_step(s, e)) return true;
  }
  return false;
}

// Sleep set for the child reached by executing `e`, given the accumulated
// set `acc` = parent sleep set ∪ earlier emitted siblings: keep the steps
// that commute with `e`.
inline std::vector<ExploreStep> child_sleep(
    const std::vector<ExploreStep>& acc, const ExploreStep& e,
    const std::vector<std::uint8_t>& is_server) {
  std::vector<ExploreStep> out;
  for (const ExploreStep& t : acc) {
    if (independent(t, e, is_server)) out.push_back(t);
  }
  return out;
}

}  // namespace memu::engine::dpor
