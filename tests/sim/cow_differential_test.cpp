// Differential tests for the slab-backed COW World: a heavily-forked World
// (every process block shared with held snapshots, so each mutation takes
// the detach path, and value payloads are shared through SlabShared) must
// stay byte-identical to a never-forked World driven through the same
// schedule, across ABD / CAS / LDR under FIFO and reordered delivery. A
// targeted test per family pins the delivery filter (Process::ignores):
// delivering a stale reply must equal dropping it — same canonical
// encoding, same state hash, and zero COW detaches.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "algo/ldr/ldr.h"
#include "algo/registry.h"
#include "algo/strip/strip.h"
#include "common/rng.h"
#include "sim/cow_stats.h"
#include "sim/world.h"

namespace memu {
namespace {

// One random delivery chosen from `w`'s deliverable set. With `reorder`,
// any deliverable index on the channel; otherwise the oldest. Returns the
// chosen step, or nullopt when the system is quiescent.
std::optional<std::pair<ChannelId, std::size_t>> pick_step(const World& w,
                                                           Rng& rng,
                                                           bool reorder) {
  const std::vector<ChannelId> chans = w.deliverable_channels();
  if (chans.empty()) return std::nullopt;
  const ChannelId chan = chans[rng.next_below(chans.size())];
  if (!reorder) return std::make_pair(chan, w.first_deliverable_index(chan));
  const std::vector<std::size_t> indices = w.deliverable_indices(chan);
  return std::make_pair(chan, indices[rng.next_below(indices.size())]);
}

// Drives `pinned` and `fresh` (independently built, byte-identical systems)
// through one random schedule. `pinned` has a COW snapshot taken every few
// steps — held live in `pins` — so its process blocks stay shared and every
// mutation must detach; `fresh` mutates exclusive blocks in place. Both
// paths must agree byte-for-byte after every step, and each pin must stay
// frozen at the state it snapshotted.
void run_differential(World& pinned, World& fresh, std::uint64_t seed,
                      bool reorder, int max_steps) {
  ASSERT_EQ(pinned.canonical_encoding(), fresh.canonical_encoding());
  Rng rng(seed);
  std::vector<World> pins;
  std::vector<std::uint64_t> pin_hashes;
  for (int step = 0; step < max_steps; ++step) {
    if (step % 5 == 0) {
      pins.push_back(pinned);  // force sharing on every block
      pin_hashes.push_back(pins.back().state_hash());
    }
    const auto chosen = pick_step(pinned, rng, reorder);
    if (!chosen.has_value()) break;
    pinned.deliver(chosen->first, chosen->second);
    fresh.deliver(chosen->first, chosen->second);
    ASSERT_EQ(pinned.state_hash(), fresh.state_hash())
        << "seed " << seed << " step " << step;
    ASSERT_EQ(pinned.state_hash(), pinned.recompute_state_hash())
        << "seed " << seed << " step " << step;
    ASSERT_EQ(fresh.state_hash(), fresh.recompute_state_hash())
        << "seed " << seed << " step " << step;
    if (step % 8 == 0) {
      ASSERT_EQ(pinned.canonical_encoding(), fresh.canonical_encoding())
          << "seed " << seed << " step " << step;
    }
  }
  ASSERT_EQ(pinned.canonical_encoding(), fresh.canonical_encoding());
  // No pin saw any of the walk's mutations leak through a shared block.
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pins[i].state_hash(), pin_hashes[i]) << "pin " << i;
    EXPECT_EQ(pins[i].state_hash(), pins[i].recompute_state_hash())
        << "pin " << i;
  }
}

abd::System abd_started() {
  abd::Options opt;
  opt.n_servers = 4;
  opt.f = 1;
  opt.n_readers = 1;
  opt.value_size = 16;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return sys;
}

cas::System cas_started() {
  cas::Options opt;
  opt.value_size = 60;
  cas::System sys = cas::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return sys;
}

ldr::System ldr_started() {
  ldr::Options opt;
  opt.value_size = 32;
  ldr::System sys = ldr::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return sys;
}

TEST(CowDifferential, AbdForkedMatchesFreshUnderFifoAndReorder) {
  for (const bool reorder : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      abd::System a = abd_started();
      abd::System b = abd_started();
      run_differential(a.world, b.world, seed, reorder, 200);
    }
  }
}

TEST(CowDifferential, CasForkedMatchesFreshUnderFifoAndReorder) {
  // CAS carries coded shards through SlabShared blocks on the writer,
  // readers, and servers — the heaviest value-sharing configuration.
  for (const bool reorder : {false, true}) {
    for (std::uint64_t seed = 11; seed <= 12; ++seed) {
      cas::System a = cas_started();
      cas::System b = cas_started();
      run_differential(a.world, b.world, seed, reorder, 200);
    }
  }
}

TEST(CowDifferential, LdrForkedMatchesFreshUnderFifoAndReorder) {
  for (const bool reorder : {false, true}) {
    for (std::uint64_t seed = 21; seed <= 22; ++seed) {
      ldr::System a = ldr_started();
      ldr::System b = ldr_started();
      run_differential(a.world, b.world, seed, reorder, 200);
    }
  }
}

// The stale-reply filter (RoundClient::ignores) in every family: once a
// writer's first-phase quorum (2 of 3) is met, the third server's reply
// answers a round that is over. Delivering it must equal dropping it
// (canonical encodings omit the step counter, so the equivalence is
// byte-exact) and must not detach the shared writer block.
TEST(CowDifferential, IgnoredDeliveryEqualsDropAndSkipsDetach) {
  for (const char* name : {"abd", "cas", "ldr", "strip", "gossip"}) {
    SCOPED_TRACE(name);
    algo::Spec spec;
    spec.n_servers = 3;
    spec.f = 1;
    spec.k = 1;
    algo::Deployment sys = algo::family(name).build(spec);
    World& w = sys.world;
    const NodeId writer = sys.writers[0];
    const std::vector<NodeId>& servers = sys.servers;
    w.invoke(writer, {OpType::kWrite, unique_value(1, 1, spec.value_size)});
    for (const NodeId s : servers) w.deliver({writer, s});
    w.deliver({servers[0], writer});
    w.deliver({servers[1], writer});  // quorum met: the round is over
    const ChannelId stale{servers[2], writer};
    ASSERT_EQ(w.channels().depth(stale), 1u);

    World forked = w;  // every process block now shared
    const cowstats::Snapshot before = cowstats::snapshot();
    w.deliver(stale);
    const cowstats::Snapshot after = cowstats::snapshot();
    EXPECT_EQ(after.process_detaches - before.process_detaches, 0u)
        << "a stale reply must not clone the recipient";

    forked.drop_message(stale, 0);
    EXPECT_EQ(w.canonical_encoding(), forked.canonical_encoding());
    EXPECT_EQ(w.state_hash(), forked.state_hash());
    EXPECT_EQ(w.state_hash(), w.recompute_state_hash());

    // Positive control: a delivery to a server acts on it and detaches
    // exactly once while the block is shared.
    std::optional<ChannelId> acting;
    for (const ChannelId c : w.deliverable_channels())
      if (c.dst == servers[0]) acting = c;
    ASSERT_TRUE(acting.has_value());
    const cowstats::Snapshot c0 = cowstats::snapshot();
    w.deliver(*acting);
    const cowstats::Snapshot c1 = cowstats::snapshot();
    EXPECT_EQ(c1.process_detaches - c0.process_detaches, 1u);
  }
}

// The CAS and STRIP readers' extra stale condition (ignores_reply): a read
// reply that answers the open round but names a tag other than the
// reader's target is discarded like any stale reply.
TEST(CowDifferential, WrongTagReadReplyEqualsDropAndSkipsDetach) {
  for (const char* name : {"cas", "strip"}) {
    SCOPED_TRACE(name);
    algo::Spec spec;
    spec.n_servers = 3;
    spec.f = 1;
    spec.k = 1;
    algo::Deployment sys = algo::family(name).build(spec);
    World& w = sys.world;
    const NodeId reader = sys.readers[0];
    const std::vector<NodeId>& servers = sys.servers;
    w.invoke(reader, {OpType::kRead, {}});
    for (const NodeId s : servers) w.deliver({reader, s});
    for (const NodeId s : servers) w.deliver({s, reader});  // query done
    // The read round's request names its rid; forge a reply to that round
    // for a tag the reader does not target.
    const ChannelTable::Queue* req = w.channels().find({reader, servers[0]});
    ASSERT_NE(req, nullptr);
    const MessagePayload& request = *(*req)[0].payload;
    const Tag other{7, 1};
    if (const auto* rf = dynamic_cast<const cas::ReadFinReq*>(&request)) {
      ASSERT_NE(rf->tag, other);
      w.enqueue({servers[0], reader},
                make_msg<cas::ReadFinResp>(rf->rid(), other, false, false,
                                           ValueRef{}));
    } else {
      const auto& get = dynamic_cast<const strip::GetReq&>(request);
      ASSERT_NE(get.tag, other);
      w.enqueue({servers[0], reader},
                make_msg<strip::GetResp>(get.rid(), other,
                                         strip::GetResp::Kind::kNothing,
                                         Bytes{}));
    }
    const ChannelId forged{servers[0], reader};

    World forked = w;  // every process block now shared
    const cowstats::Snapshot before = cowstats::snapshot();
    w.deliver(forged);
    const cowstats::Snapshot after = cowstats::snapshot();
    EXPECT_EQ(after.process_detaches - before.process_detaches, 0u);
    forked.drop_message(forged, 0);
    EXPECT_EQ(w.canonical_encoding(), forked.canonical_encoding());
    EXPECT_EQ(w.state_hash(), forked.state_hash());
  }
}

}  // namespace
}  // namespace memu
