// Process-symmetry canonicalization: eligibility gating (per-process
// opt-in, the CAS k==1 rule, LDR's exclusion), the canonical-relabeled
// encoding's identity contract, the actual merge property — symmetric
// deliveries producing equal canonical keys while the plain state hash
// still separates them — and that the fingerprint key (a relabeled
// state-hash fold) partitions every reachable state exactly as the
// canonical bytes do.
#include "sim/symmetry.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <unordered_map>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/ldr/ldr.h"
#include "engine/frontier.h"
#include "sim/world.h"

namespace memu::symmetry {
namespace {

abd::System abd_system() {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return sys;
}

cas::System cas_system(std::size_t n_servers, std::size_t k) {
  cas::Options opt;
  opt.n_servers = n_servers;
  opt.f = 1;
  opt.k = k;
  opt.n_writers = 1;
  opt.value_size = 12;
  return cas::make_system(opt);
}

TEST(Symmetry, AbdIsEligible) {
  const abd::System sys = abd_system();
  EXPECT_TRUE(eligible(sys.world));
}

TEST(Symmetry, CasEligibilityFollowsTheCodecKGate) {
  // k == 1: every RS shard IS the value, so servers are interchangeable.
  EXPECT_TRUE(eligible(cas_system(3, 1).world));
  // k >= 2: each server holds a DISTINCT coded element — permuting the
  // servers permutes which element lives where, which is observable.
  // The CAS clients keep Process::symmetry() == kNone.
  EXPECT_FALSE(eligible(cas_system(4, 2).world));
}

TEST(Symmetry, LdrIsIneligible) {
  // LDR directory state and message payloads embed server ids (location
  // vectors) and split servers into directory/replica roles; its
  // processes keep the conservative default opt-out.
  ldr::Options opt;
  const ldr::System sys = ldr::make_system(opt);
  EXPECT_FALSE(eligible(sys.world));
}

TEST(Symmetry, CanonicalMapIsIdentityOnClientsAndPermutesServers) {
  const abd::System sys = abd_system();
  const auto map = canonical_map(sys.world, Groups(sys.world));
  ASSERT_EQ(map.size(), sys.world.process_count());
  for (const NodeId c : sys.writers) EXPECT_EQ(map[c.value], c.value);
  for (const NodeId c : sys.readers) EXPECT_EQ(map[c.value], c.value);
  // Bijective over the server ids: sorted image == sorted preimage.
  std::vector<std::uint32_t> image, ids;
  for (const NodeId s : sys.servers) {
    image.push_back(map[s.value]);
    ids.push_back(s.value);
  }
  std::sort(image.begin(), image.end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(image, ids);
}

TEST(Symmetry, RelabeledEncodingUnderIdentityMatchesCanonicalEncoding) {
  // Under the identity relabeling write_state() must write the plain
  // encoding, checked through an evolved state (queues, statuses, and
  // oplog all populated).
  abd::System sys = abd_system();
  sys.world.deliver({sys.writers[0], sys.servers[0]});
  sys.world.deliver({sys.writers[0], sys.servers[1]});
  sys.world.deliver({sys.servers[0], sys.writers[0]});
  std::vector<std::uint32_t> identity(sys.world.process_count());
  std::iota(identity.begin(), identity.end(), 0);
  Bytes relabeled;
  sys.world.encode_canonical_relabeled(identity, relabeled);
  EXPECT_EQ(relabeled, sys.world.canonical_encoding());
}

TEST(Symmetry, SymmetricDeliveriesShareOneCanonicalKey) {
  // From the post-invoke root the writer's broadcast is in flight to all
  // three servers. Delivering to server i vs server j yields states that
  // are exact mirror images: the canonical key must merge them while the
  // plain incremental hash (correctly) separates them.
  const abd::System sys = abd_system();
  std::vector<World> worlds;
  for (int i = 0; i < 3; ++i) {
    World w = sys.world;
    w.deliver({sys.writers[0], sys.servers[i]});
    worlds.push_back(std::move(w));
  }
  const Groups groups(sys.world);
  Bytes canon0, canon;
  canonical_encoding(worlds[0], groups, canon0);
  for (int i = 1; i < 3; ++i) {
    canonical_encoding(worlds[i], groups, canon);
    EXPECT_EQ(canon, canon0) << "server " << i;
    EXPECT_EQ(canonical_fingerprint(worlds[i]),
              canonical_fingerprint(worlds[0]));
    EXPECT_NE(worlds[i].state_hash(), worlds[0].state_hash());
  }
}

TEST(Symmetry, AsymmetricStatesKeepDistinctCanonicalKeys) {
  // Delivering TWO broadcast legs vs ONE reaches genuinely different
  // states (different numbers of pending messages): no relabeling equates
  // them, so their canonical keys must differ.
  const abd::System sys = abd_system();
  World one = sys.world;
  one.deliver({sys.writers[0], sys.servers[0]});
  World two = sys.world;
  two.deliver({sys.writers[0], sys.servers[0]});
  two.deliver({sys.writers[0], sys.servers[1]});
  EXPECT_NE(canonical_fingerprint(one), canonical_fingerprint(two));
}

// Runs a sequential sleep-set + symmetry exploration of `root` and checks,
// on every visited state and on every successor of one (deduped successors
// included, so merged symmetric twins are covered), that
//   * relabeled_state_hash(identity) == state_hash() == recompute_state_hash();
//   * canonical_fingerprint equality <=> canonical_encoding byte equality
//     across the whole set.
void expect_fingerprint_partitions_like_bytes(const World& root,
                                              bool reorder) {
  const Groups groups(root);
  std::vector<std::uint32_t> identity(root.process_count());
  std::iota(identity.begin(), identity.end(), 0u);
  struct Seen {
    const Bytes* canon;
    std::uint64_t plain;  // state_hash() of the first state with this key
  };
  std::map<Bytes, std::uint64_t> key_of;         // canonical bytes -> key
  std::unordered_map<std::uint64_t, Seen> seen;  // key -> first bytes
  std::size_t checked = 0, hash_mismatches = 0, split = 0, collided = 0;
  std::size_t twins = 0;  // equal keys, different plain states
  Bytes canon;
  const auto check = [&](const World& w) {
    ++checked;
    const std::uint64_t plain = w.state_hash();
    if (w.relabeled_state_hash(identity) != plain ||
        w.recompute_state_hash() != plain) {
      ++hash_mismatches;
    }
    canonical_encoding(w, groups, canon);
    const std::uint64_t key = canonical_fingerprint(w, groups);
    const auto by_bytes = key_of.try_emplace(canon, key).first;
    if (by_bytes->second != key) ++split;  // equal bytes, different keys
    const auto [by_key, new_key] =
        seen.try_emplace(key, Seen{&by_bytes->first, plain});
    if (*by_key->second.canon != canon) ++collided;  // equal keys, bytes differ
    if (!new_key && by_key->second.plain != plain) ++twins;
  };
  ExploreOptions opt;
  opt.reorder = reorder;
  opt.reduction.sleep_sets = true;
  opt.reduction.symmetry = true;
  const ExploreResult r = engine::frontier_search(
      root, opt,
      [&](const World& w) -> std::optional<std::string> {
        check(w);
        for (const ChannelId chan : w.deliverable_channels()) {
          std::vector<std::size_t> indices{w.first_deliverable_index(chan)};
          if (reorder) indices = w.deliverable_indices(chan);
          for (const std::size_t index : indices) {
            World next = w;
            next.deliver(chan, index);
            check(next);
          }
        }
        return std::nullopt;
      },
      {});
  ASSERT_TRUE(r.complete);
  ASSERT_TRUE(r.symmetry_applied);
  EXPECT_GT(checked, r.states_visited);
  EXPECT_EQ(hash_mismatches, 0u);
  EXPECT_EQ(split, 0u);
  EXPECT_EQ(collided, 0u);
  // Not vacuous: genuinely different states did share a key.
  EXPECT_GT(twins, 0u);
}

TEST(Symmetry, FingerprintPartitionsAbdReorderStatesLikeCanonicalBytes) {
  expect_fingerprint_partitions_like_bytes(abd_system().world, true);
}

TEST(Symmetry, FingerprintPartitionsCasFifoStatesLikeCanonicalBytes) {
  cas::System sys = cas_system(3, 1);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, unique_value(1, 1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  expect_fingerprint_partitions_like_bytes(sys.world, false);
}

TEST(Symmetry, CanonicalFingerprintIsStableAcrossCalls) {
  const abd::System sys = abd_system();
  EXPECT_EQ(canonical_fingerprint(sys.world),
            canonical_fingerprint(sys.world));
}

}  // namespace
}  // namespace memu::symmetry
