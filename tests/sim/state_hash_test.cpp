// Differential validation of World::state_hash(), the incremental 64-bit
// state fingerprint the explorer dedupes on. Every test drives a World
// through mutations — sends, reordered delivers, set toggles, crashes, COW
// forks, replays — and checks the incrementally-maintained hash against
// World::recompute_state_hash(), the from-scratch oracle that re-encodes
// every component. The oracle deliberately shares no cached state with the
// incremental path (it re-encodes payloads rather than trusting cached
// message fingerprints), so stale caches and missed dirty-marks show up as
// mismatches here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algo/abd/system.h"
#include "common/rng.h"
#include "engine/replay.h"
#include "sim/world.h"

namespace memu {
namespace {

struct Item final : MessagePayload {
  std::uint64_t id;
  explicit Item(std::uint64_t i) : id(i) {}
  std::string_view type_name() const override { return "test.item"; }
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(id); }
};

struct Sink final : CloneableProcess<Sink> {
  std::uint64_t sum = 0;
  void on_message(Context&, NodeId, const MessagePayload& m) override {
    sum = sum * 31 + dynamic_cast<const Item&>(m).id;
  }
  StateBits state_size() const override { return {0, 64}; }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(sum);
  }
  std::string name() const override { return "test.sink"; }
  bool is_server() const override { return true; }
};

TEST(StateHash, QueueOrderIsHashSensitive) {
  // The paper's channels are not FIFO, so [1, 2] and [2, 1] are distinct
  // states — the queue fold must be order-sensitive (a plain XOR of
  // message fingerprints would merge them).
  World a;
  World b;
  for (World* w : {&a, &b}) {
    w->add_process(std::make_unique<Sink>());
    w->add_process(std::make_unique<Sink>());
  }
  a.enqueue({NodeId{0}, NodeId{1}}, make_msg<Item>(1));
  a.enqueue({NodeId{0}, NodeId{1}}, make_msg<Item>(2));
  b.enqueue({NodeId{0}, NodeId{1}}, make_msg<Item>(2));
  b.enqueue({NodeId{0}, NodeId{1}}, make_msg<Item>(1));

  EXPECT_NE(a.state_hash(), b.state_hash());
  EXPECT_EQ(a.state_hash(), a.recompute_state_hash());
  EXPECT_EQ(b.state_hash(), b.recompute_state_hash());

  // Deliver out of order in `a` (index 1 first): intermediate and final
  // states stay consistent with the oracle.
  a.deliver({NodeId{0}, NodeId{1}}, 1);
  EXPECT_EQ(a.state_hash(), a.recompute_state_hash());
  a.deliver({NodeId{0}, NodeId{1}}, 0);
  EXPECT_EQ(a.state_hash(), a.recompute_state_hash());
}

TEST(StateHash, EqualEncodingsHashEqual) {
  // Two independently-built Worlds whose canonical encodings agree must
  // hash equal — the soundness direction of fingerprint dedupe.
  auto build = [] {
    World w;
    w.add_process(std::make_unique<Sink>());
    w.add_process(std::make_unique<Sink>());
    w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Item>(7));
    w.enqueue({NodeId{1}, NodeId{0}}, make_msg<Item>(9));
    w.freeze(NodeId{0});
    return w;
  };
  World a = build();
  World b = build();
  ASSERT_EQ(a.canonical_encoding(), b.canonical_encoding());
  EXPECT_EQ(a.state_hash(), b.state_hash());

  // ...and stays true after identical further mutation of both.
  a.unfreeze(NodeId{0});
  b.unfreeze(NodeId{0});
  a.deliver({NodeId{1}, NodeId{0}}, 0);
  b.deliver({NodeId{1}, NodeId{0}}, 0);
  ASSERT_EQ(a.canonical_encoding(), b.canonical_encoding());
  EXPECT_EQ(a.state_hash(), b.state_hash());
}

// One random mutation of an ABD world: a (possibly reordered) delivery or
// a blocking-set toggle. Returns false when nothing was deliverable and no
// toggle was chosen (the walk should stop).
bool random_step(World& w, Rng& rng, const std::vector<NodeId>& servers,
                 std::vector<ExploreStep>* script) {
  const int kind = static_cast<int>(rng.next_below(10));
  if (kind >= 7) {  // set toggles: insert if absent, erase if present
    const NodeId id = servers[rng.next_below(servers.size())];
    switch (kind) {
      case 7:
        w.is_frozen(id) ? w.unfreeze(id) : w.freeze(id);
        return true;
      case 8:
        w.is_value_blocked(id) ? w.value_unblock(id) : w.value_block(id);
        return true;
      default:
        w.is_bulk_blocked(id) ? w.bulk_unblock(id) : w.bulk_block(id);
        return true;
    }
  }
  const std::vector<ChannelId> chans = w.deliverable_channels();
  if (chans.empty()) return false;
  const ChannelId chan = chans[rng.next_below(chans.size())];
  const std::vector<std::size_t> indices = w.deliverable_indices(chan);
  const std::size_t index = indices[rng.next_below(indices.size())];
  w.deliver(chan, index);
  if (script != nullptr) script->push_back({chan, index});
  return true;
}

abd::System started_system() {
  abd::Options opt;
  opt.n_servers = 4;
  opt.f = 1;
  opt.value_size = 16;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return sys;
}

TEST(StateHash, RandomWalkMatchesRecompute) {
  // Full-protocol traffic (quorum messages, oplog appends via responses)
  // interleaved with blocking toggles; the incremental hash must equal the
  // from-scratch recompute after EVERY mutation.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    abd::System sys = started_system();
    World& w = sys.world;
    Rng rng(seed);
    ASSERT_EQ(w.state_hash(), w.recompute_state_hash()) << "seed " << seed;
    bool crashed = false;
    for (int step = 0; step < 250; ++step) {
      if (!crashed && step == 100) {  // one tolerated server failure
        w.crash(sys.servers[rng.next_below(sys.servers.size())]);
        crashed = true;
      } else if (!random_step(w, rng, sys.servers, nullptr)) {
        break;
      }
      ASSERT_EQ(w.state_hash(), w.recompute_state_hash())
          << "seed " << seed << " step " << step;
    }
  }
}

TEST(StateHash, CowForksHashIndependently) {
  // A COW fork shares process blocks and queues with its parent; each
  // side's hash must track its own mutations only.
  abd::System sys = started_system();
  World& w = sys.world;
  for (int i = 0; i < 5; ++i) w.deliver(w.deliverable_channels().front());

  World fork = w;
  EXPECT_EQ(fork.state_hash(), w.state_hash());
  const std::uint64_t before = w.state_hash();

  Rng rng(42);
  for (int step = 0; step < 40; ++step) {
    if (!random_step(fork, rng, sys.servers, nullptr)) break;
    ASSERT_EQ(fork.state_hash(), fork.recompute_state_hash()) << step;
  }
  // The parent saw none of the fork's mutations.
  EXPECT_EQ(w.state_hash(), before);
  EXPECT_EQ(w.state_hash(), w.recompute_state_hash());

  // Mutating the parent after the fork detached is equally tracked.
  for (int step = 0; step < 40; ++step) {
    if (!random_step(w, rng, sys.servers, nullptr)) break;
    ASSERT_EQ(w.state_hash(), w.recompute_state_hash()) << step;
  }
}

TEST(StateHash, ReplayFromSnapshotConverges) {
  // The frontier reconstitutes nodes by replaying a step suffix onto a COW
  // snapshot — the exact path the explorer hashes on. A snapshot plus
  // replayed suffix must reach the original's canonical encoding AND its
  // state hash.
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    abd::System sys = started_system();
    World& w = sys.world;
    Rng rng(seed);
    std::vector<ExploreStep> script;
    std::vector<World> snapshots;
    for (int step = 0; step < 120; ++step) {
      if (script.size() % 10 == 0 && snapshots.size() < script.size() / 10 + 1)
        snapshots.push_back(w);  // snapshot BEFORE the next recorded step
      // Deliveries only: toggles are not ExploreSteps.
      const std::vector<ChannelId> chans = w.deliverable_channels();
      if (chans.empty()) break;
      const ChannelId chan = chans[rng.next_below(chans.size())];
      const auto indices = w.deliverable_indices(chan);
      const std::size_t index = indices[rng.next_below(indices.size())];
      w.deliver(chan, index);
      script.push_back({chan, index});
    }
    for (std::size_t s = 0; s < snapshots.size(); ++s) {
      World replayed = snapshots[s];
      engine::replay(replayed,
                     std::vector<ExploreStep>(
                         script.begin() + static_cast<std::ptrdiff_t>(s * 10),
                         script.end()));
      ASSERT_EQ(replayed.canonical_encoding(), w.canonical_encoding())
          << "seed " << seed << " snapshot " << s;
      EXPECT_EQ(replayed.state_hash(), w.state_hash())
          << "seed " << seed << " snapshot " << s;
      EXPECT_EQ(replayed.state_hash(), replayed.recompute_state_hash());
    }
  }
}

}  // namespace
}  // namespace memu
