// Process-symmetry canonicalization: merge World states that differ only
// by a permutation of interchangeable servers.
//
// ABD (and CAS with a k=1 codec) treat their servers as an unordered
// quorum: no protocol decision depends on WHICH server answered, only on
// how many. Exploration nevertheless distinguishes "server 1 holds the
// new tag" from "server 2 holds the new tag" — states whose futures are
// exact mirror images. Canonicalization picks one representative per
// orbit: the dedupe key becomes the canonical encoding of the World
// under a canonical permutation of server ids, so the VisitedSet merges
// the whole orbit into its first-visited member.
//
// Soundness rests on two contracts:
//   * Eligibility — NO process in the World keeps the default
//     Process::symmetry() == kNone (see process.h for what a process must
//     audit before opting in). One unaudited process disables the
//     reduction for the whole World; exploration stays exact, just
//     unreduced. LDR stays ineligible this way: its directory state and
//     message payloads embed server ids (locations vectors) and its
//     replica/directory split breaks interchangeability.
//   * Faithful relabeling — the key is the World under a concrete server
//     permutation: World::encode_canonical_relabeled() bytes in exact
//     mode, World::relabeled_state_hash() (the state_hash() of those same
//     bytes' World, folded from cached components) in fingerprint mode.
//     Two states get equal keys iff one really is a server-relabeling of
//     the other (up to 64-bit collisions in fingerprint mode, the usual
//     fingerprint-dedupe caveat); the per-server signature below only
//     decides WHICH permutation is canonical, so a weak signature costs
//     merge rate, never soundness. State checks evaluated by the explorer
//     must themselves be symmetric under server relabeling — the repo's
//     invariant/terminal checks read the oplog (client-only, untouched by
//     the permutation) and per-server predicates that quantify over all
//     servers, which qualify.
//
// Canonical permutation: servers are grouped by role (Process::name());
// within each group every member gets a 64-bit signature folding its
// crash/freeze/block status, the fingerprint of its own state under a
// group-collapsing relabeling (members of a group are indistinguishable
// placeholders, so a server whose state references a symmetric peer still
// signs stably; an id-free server signs with its settled state-hash
// fingerprint), and the folds of its channel queues to and from every
// process (keyed by the counterpart id for asymmetric counterparts,
// XOR-aggregated over same-group peers). Sorting the group by
// (signature, id) and handing out the group's ids in sorted order yields a
// permutation that is invariant across the orbit wherever the signatures
// separate members.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.h"

namespace memu {
class World;
}

namespace memu::symmetry {

// The server role groups of a World. Roles and the process set never
// change during an exploration, so a search builds this once, on the root,
// and keys every state through it.
struct Groups {
  explicit Groups(const World& w);

  // Role groups holding two or more servers, ids ascending within each:
  // the groups canonicalization permutes.
  std::vector<std::vector<std::uint32_t>> symmetric;
  // id -> smallest id of its role group; the identity on non-servers.
  std::vector<std::uint32_t> collapse;
};

// True iff symmetry reduction is sound and useful for `w`: no process
// keeps Process::symmetry() == kNone and at least one role group holds two
// or more servers. Evaluated once per exploration, on the root.
bool eligible(const World& w);

// The canonical server permutation for `w`: map[id] = canonical id.
// Identity on non-servers and on singleton role groups.
std::vector<std::uint32_t> canonical_map(const World& w, const Groups& g);

// World::encode_canonical_relabeled under canonical_map(w), written into
// `out` (cleared; capacity kept). Equal bytes <=> the two Worlds are
// server-relabelings of each other (up to signature ties, which only
// under-merge). The exact-mode dedupe key under symmetry reduction.
void canonical_encoding(const World& w, const Groups& g, Bytes& out);

// World::relabeled_state_hash under canonical_map(w): equal for two Worlds
// iff their canonical_encoding() bytes are equal, up to 64-bit collisions.
// The fingerprint-mode dedupe key under symmetry reduction; serializes no
// World. The one-argument form builds the Groups per call.
std::uint64_t canonical_fingerprint(const World& w, const Groups& g);
std::uint64_t canonical_fingerprint(const World& w);

}  // namespace memu::symmetry
