// Non-FIFO channel behavior: the paper's channels deliver in any order.
// Tests the reordering scheduler policy and the explorer's reorder mode.
#include <gtest/gtest.h>

#include "algo/abd/system.h"
#include "algo/cas/system.h"
#include "consistency/checker.h"
#include "engine/frontier.h"
#include "engine/scheduler.h"
#include "workload/driver.h"

namespace memu {
namespace {

TEST(Reorder, DeliverableIndicesRespectBlocks) {
  abd::Options opt;
  abd::System sys = abd::make_system(opt);
  // Two messages on one channel: a store (bulk) behind a query.
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  const ChannelId chan{sys.writers[0], sys.servers[0]};
  ASSERT_EQ(sys.world.deliverable_indices(chan).size(), 1u);  // the query

  sys.world.value_block(sys.writers[0]);
  EXPECT_EQ(sys.world.deliverable_indices(chan).size(), 1u);  // still: query
  sys.world.freeze(sys.writers[0]);
  EXPECT_TRUE(sys.world.deliverable_indices(chan).empty());
}

TEST(Reorder, SchedulerReorderPolicyKeepsAbdAtomic) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    abd::Options opt;
    opt.n_writers = 2;
    opt.n_readers = 2;
    abd::System sys = abd::make_system(opt);
    workload::Options wopt;
    wopt.writes_per_writer = 3;
    wopt.reads_per_reader = 3;
    wopt.value_size = opt.value_size;
    wopt.policy = Scheduler::Policy::kRandomReorder;
    wopt.seed = seed;
    const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
    ASSERT_TRUE(res.completed) << seed;
    const auto verdict =
        check_atomic(res.history, enum_value(0, opt.value_size));
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.violation;
  }
}

TEST(Reorder, SchedulerReorderPolicyKeepsCasAtomic) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    cas::Options opt;
    opt.n_writers = 2;
    cas::System sys = cas::make_system(opt);
    workload::Options wopt;
    wopt.writes_per_writer = 2;
    wopt.reads_per_reader = 2;
    wopt.value_size = opt.value_size;
    wopt.policy = Scheduler::Policy::kRandomReorder;
    wopt.seed = seed;
    const auto res = workload::run(sys.world, sys.writers, sys.readers, wopt);
    ASSERT_TRUE(res.completed) << seed;
    EXPECT_TRUE(check_atomic(res.history, enum_value(0, opt.value_size)).ok)
        << seed;
  }
}

TEST(Reorder, ExplorerReorderModeCoversMoreStates) {
  // Two distinguishable messages on ONE channel: FIFO explores one order,
  // reorder explores both.
  struct Item final : MessagePayload {
    std::uint64_t id;
    explicit Item(std::uint64_t i) : id(i) {}
    std::string_view type_name() const override { return "test.item"; }
    StateBits size_bits() const override { return {0, 64}; }
    void encode_content(BufWriter& w) const override { w.u64(id); }
  };
  struct LastSeen final : CloneableProcess<LastSeen> {
    std::uint64_t last = 0;
    void on_message(Context&, NodeId, const MessagePayload& m) override {
      last = dynamic_cast<const Item&>(m).id;
    }
    StateBits state_size() const override { return {0, 64}; }
    void write_state(BufWriter& w, const NodeRelabeling&) const override {
      w.u64(last);
    }
    std::string name() const override { return "test.last_seen"; }
    bool is_server() const override { return true; }
  };

  World w;
  const NodeId a = w.add_process(std::make_unique<LastSeen>());
  const NodeId b = w.add_process(std::make_unique<LastSeen>());
  w.enqueue({a, b}, make_msg<Item>(1));
  w.enqueue({a, b}, make_msg<Item>(2));

  const auto fifo = engine::frontier_search(w, ExploreOptions{}, {}, {});
  ExploreOptions ro;
  ro.reorder = true;
  const auto reordered = engine::frontier_search(w, ro, {}, {});

  EXPECT_EQ(fifo.terminal_states, 1u);   // only last=2 reachable
  EXPECT_EQ(reordered.terminal_states, 2u);  // last=2 and last=1
  EXPECT_GT(reordered.states_visited, fifo.states_visited);
}

// ---- reorder exploration under value/bulk blocking ------------------------------

// Payload with an explicit value-dependence class: a full value (bulk), an
// o(log|V|) hash (value-dependent, not bulk), or pure metadata.
struct Tagged final : MessagePayload {
  std::uint64_t id;
  bool dep;
  bool bulk;
  Tagged(std::uint64_t i, bool d, bool b) : id(i), dep(d), bulk(b) {}
  std::string_view type_name() const override { return "test.tagged"; }
  StateBits size_bits() const override { return {bulk ? 64.0 : 0.0, 64}; }
  bool value_dependent() const override { return dep; }
  bool value_bulk() const override { return bulk; }
  void encode_content(BufWriter& w) const override { w.u64(id); }
};

struct TaggedSink final : CloneableProcess<TaggedSink> {
  std::uint64_t received = 0;
  void on_message(Context&, NodeId, const MessagePayload& m) override {
    received |= 1ull << dynamic_cast<const Tagged&>(m).id;
  }
  StateBits state_size() const override { return {0, 64}; }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(received);
  }
  std::string name() const override { return "test.tagged_sink"; }
  bool is_server() const override { return true; }
};

// One channel carrying a bulk value (id 0), a metadata message (id 1), and
// a value-dependent hash (id 2), in that FIFO order.
World blocked_world(void (World::*block)(NodeId)) {
  World w;
  const NodeId a = w.add_process(std::make_unique<TaggedSink>());
  const NodeId b = w.add_process(std::make_unique<TaggedSink>());
  w.enqueue({a, b}, make_msg<Tagged>(0, /*dep=*/true, /*bulk=*/true));
  w.enqueue({a, b}, make_msg<Tagged>(1, /*dep=*/false, /*bulk=*/false));
  w.enqueue({a, b}, make_msg<Tagged>(2, /*dep=*/true, /*bulk=*/false));
  (w.*block)(a);
  return w;
}

// Fires when the sink has seen any message in `mask`.
StateCheck saw_any(NodeId b, std::uint64_t mask) {
  return [b, mask](const World& w) -> std::optional<std::string> {
    const auto& sink = dynamic_cast<const TaggedSink&>(w.process(b));
    if (sink.received & mask) return "sink saw a blocked-class message";
    return std::nullopt;
  };
}

TEST(Reorder, ValueBlockedReorderExplorationAndReplay) {
  // value_block: only the metadata message (id 1) may ever be delivered;
  // both value-dependent messages (ids 0, 2) stay parked in every
  // reachable state of the reorder-mode exploration.
  ExploreOptions ro;
  ro.reorder = true;
  const NodeId b{1};

  const auto safe =
      engine::frontier_search(blocked_world(&World::value_block), ro,
                              saw_any(b, 0b101), {});
  EXPECT_TRUE(safe.complete);
  EXPECT_TRUE(safe.ok) << safe.violation;
  EXPECT_EQ(safe.states_visited, 2u);  // metadata undelivered / delivered

  // The metadata message IS reachable — and the explorer's counterexample
  // replays to the violating state via World::deliver(chan, index).
  const auto hit =
      engine::frontier_search(blocked_world(&World::value_block), ro,
                              saw_any(b, 0b010), {});
  ASSERT_FALSE(hit.ok);
  ASSERT_EQ(hit.violation_path.size(), 1u);
  // Reorder mode must skip past the parked bulk head: index 1, not 0.
  EXPECT_EQ(hit.violation_path[0].index, 1u);

  World replayed = blocked_world(&World::value_block);
  for (const auto& step : hit.violation_path)
    replayed.deliver(step.chan, step.index);
  EXPECT_EQ(dynamic_cast<const TaggedSink&>(replayed.process(b)).received,
            0b010u);
}

TEST(Reorder, BulkBlockedReorderExplorationAndReplay) {
  // bulk_block: the o(log|V|) hash flows, the bulk value does not — the
  // Section 6.5 relaxation.
  ExploreOptions ro;
  ro.reorder = true;
  const NodeId b{1};

  const auto safe =
      engine::frontier_search(blocked_world(&World::bulk_block), ro,
                              saw_any(b, 0b001), {});
  EXPECT_TRUE(safe.complete);
  EXPECT_TRUE(safe.ok) << safe.violation;
  // Metadata and hash deliverable in either order: 2^2 subset states.
  EXPECT_EQ(safe.states_visited, 4u);

  const auto hit =
      engine::frontier_search(blocked_world(&World::bulk_block), ro,
                              saw_any(b, 0b100), {});
  ASSERT_FALSE(hit.ok);
  ASSERT_FALSE(hit.violation_path.empty());
  // The bulk value (queue head) never moves, so every replayed delivery
  // skips index 0 — possible only because reorder mode records indices.
  for (const auto& step : hit.violation_path) EXPECT_GE(step.index, 1u);

  World replayed = blocked_world(&World::bulk_block);
  for (const auto& step : hit.violation_path)
    replayed.deliver(step.chan, step.index);
  const auto got =
      dynamic_cast<const TaggedSink&>(replayed.process(b)).received;
  EXPECT_TRUE(got & 0b100u);  // the hash arrived
  EXPECT_FALSE(got & 0b001u);  // the bulk value never did
}

TEST(Reorder, ParallelReorderAgreesWithSequentialOnAbd) {
  // Fixed ABD configuration, reorder mode: 8-thread and sequential runs
  // must agree on every interleaving-independent counter.
  auto run = [](std::size_t threads) {
    abd::Options opt;
    opt.n_servers = 3;
    opt.f = 1;
    opt.single_writer = true;
    opt.value_size = 12;
    abd::System sys = abd::make_system(opt);
    sys.world.invoke(sys.writers[0],
                     {OpType::kWrite, unique_value(1, 1, opt.value_size)});
    ExploreOptions ro;
    ro.reorder = true;
    ro.threads = threads;
    return engine::frontier_search(sys.world, ro, {}, {});
  };
  const auto seq = run(1);
  const auto par = run(8);
  EXPECT_TRUE(seq.complete);
  EXPECT_EQ(seq.states_visited, par.states_visited);
  EXPECT_EQ(seq.terminal_states, par.terminal_states);
  EXPECT_EQ(seq.transitions, par.transitions);
  EXPECT_EQ(seq.deduped, par.deduped);
  EXPECT_EQ(seq.ok, par.ok);
}

TEST(Reorder, ExhaustiveReorderedAbdStillAtomic) {
  // The strongest schedule adversary we can run: ALL interleavings AND all
  // in-channel reorderings of a one-phase write concurrent with a read.
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});

  ExploreOptions ro;
  ro.reorder = true;
  const Value v0 = enum_value(0, opt.value_size);
  const auto res = engine::frontier_search(
      sys.world, ro, {},
      [&](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = check_atomic(History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.ok) << res.violation;
  EXPECT_GE(res.states_visited, 100u);
}

}  // namespace
}  // namespace memu
