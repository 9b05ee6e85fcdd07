// Keyed components of the incremental World state hash.
//
// World::state_hash() is a Zobrist-style 64-bit fingerprint of the complete
// logical state (everything canonical_encoding() covers), maintained in
// O(delta) per mutation instead of recomputed from a full encoding: every
// hashable component — a process block, a channel queue, a failure-set
// membership, an oplog event — contributes one keyed 64-bit component that
// XORs out of and into the running hash when it changes. XOR makes removal
// the inverse of insertion; the keys below make components from different
// domains (and different positions within a domain) independent, so
// reordered or relocated content does not cancel out.
//
// The keys are DETERMINISTIC: derived by splitmix64 from fixed domain
// seeds, not randomized per run. Equal logical states therefore hash
// equally across runs and across machines — which is what lets the
// explorer's dedupe counters, the differential tests, and perfbench's
// explore workload all pin exact values. The collision caveat is identical
// to fingerprint dedupe (engine/visited.h): two distinct states collide
// with probability ~2^-64 per pair.
#pragma once

#include <cstdint>

#include "common/hash.h"

namespace memu::statehash {

// Domain seeds: arbitrary odd constants, one per component kind, so a
// process block and a channel payload with identical content bytes still
// produce unrelated components.
inline constexpr std::uint64_t kProcSeed = 0x9e3779b97f4a7c15ull;
inline constexpr std::uint64_t kChanSeed = 0xbf58476d1ce4e5b9ull;
inline constexpr std::uint64_t kQueueFoldSeed = 0x94d049bb133111ebull;
inline constexpr std::uint64_t kCrashedSeed = 0xd6e8feb86659fd93ull;
inline constexpr std::uint64_t kFrozenSeed = 0xa5cb9243f0aed1b5ull;
inline constexpr std::uint64_t kValueBlockedSeed = 0xc2b2ae3d27d4eb4full;
inline constexpr std::uint64_t kBulkBlockedSeed = 0x165667b19e3779f9ull;
inline constexpr std::uint64_t kPartitionSeed = 0x85ebca6b27d4eb4full;
inline constexpr std::uint64_t kOplogSeed = 0x27d4eb2f165667c5ull;

// Position key: domain seed x index, fully mixed. Used wherever a
// component's location matters (process slot, oplog position), so swapping
// the contents of two positions changes the hash.
inline std::uint64_t key(std::uint64_t domain, std::uint64_t index) {
  return mix64(domain ^ mix64(index + 0x9e3779b97f4a7c15ull));
}

// Component of content `fp` at (domain, index): what gets XORed into the
// running hash. mix64 is bijective, so distinct (key, fp) pairs map to
// distinct components as reliably as the underlying fingerprints differ.
inline std::uint64_t component(std::uint64_t domain, std::uint64_t index,
                               std::uint64_t fp) {
  return mix64(key(domain, index) ^ fp);
}

// Membership component of node `id` in failure set `domain` (crash /
// freeze / value-block / bulk-block). Insert and erase both XOR this in;
// XOR's self-inverse makes erase undo insert.
inline std::uint64_t member(std::uint64_t domain, std::uint32_t id) {
  return mix64(domain ^ (std::uint64_t{id} + 0x632be59bd9b4e019ull));
}

// Channel key for the (src, dst) pair. Keyed by node ids, NOT by the dense
// slot index, so growing the ChannelTable (which re-slots queues) leaves
// every channel component unchanged.
inline std::uint64_t chan_key(std::uint32_t src, std::uint32_t dst) {
  return mix64(kChanSeed ^ ((std::uint64_t{src} << 32) | dst));
}

}  // namespace memu::statehash
