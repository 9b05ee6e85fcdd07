#include "engine/frontier.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "algo/abd/system.h"
#include "consistency/checker.h"
#include "engine/scheduler.h"

namespace memu {
namespace {

// ---- toy system: exact state counts -------------------------------------------

struct Mark final : Payload<0, "test.mark"> {
  std::uint64_t id;
  explicit Mark(std::uint64_t i) : id(i) {}
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(id); }
};

class MarkSink final : public CloneableProcess<MarkSink> {
 public:
  void on_message(Context&, NodeId, const MessagePayload& msg) override {
    received_ |= 1ull << dynamic_cast<const Mark&>(msg).id;
  }
  StateBits state_size() const override { return {0, 64}; }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(received_);
  }
  std::string name() const override { return "test.mark_sink"; }
  bool is_server() const override { return true; }

 private:
  std::uint64_t received_ = 0;
};

TEST(Explorer, TwoIndependentMessagesFourStates) {
  World w;
  const NodeId a = w.add_process(std::make_unique<MarkSink>());
  const NodeId b = w.add_process(std::make_unique<MarkSink>());
  const NodeId c = w.add_process(std::make_unique<MarkSink>());
  w.enqueue({a, b}, make_msg<Mark>(0));
  w.enqueue({a, c}, make_msg<Mark>(1));

  const auto res = engine::frontier_search(w, ExploreOptions{}, {}, {});
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.ok);
  // {}, {m0}, {m1}, {m0, m1}: the diamond merges at the bottom.
  EXPECT_EQ(res.states_visited, 4u);
  EXPECT_EQ(res.terminal_states, 1u);
  EXPECT_EQ(res.transitions, 4u);
  EXPECT_EQ(res.deduped, 1u);  // the merged bottom state
}

TEST(Explorer, FifoChannelIsSinglePath) {
  World w;
  const NodeId a = w.add_process(std::make_unique<MarkSink>());
  const NodeId b = w.add_process(std::make_unique<MarkSink>());
  w.enqueue({a, b}, make_msg<Mark>(0));
  w.enqueue({a, b}, make_msg<Mark>(1));
  const auto res = engine::frontier_search(w, ExploreOptions{}, {}, {});
  EXPECT_EQ(res.states_visited, 3u);  // a chain, no branching
  EXPECT_EQ(res.deduped, 0u);
}

TEST(Explorer, InvariantViolationIsReported) {
  World w;
  const NodeId a = w.add_process(std::make_unique<MarkSink>());
  const NodeId b = w.add_process(std::make_unique<MarkSink>());
  w.enqueue({a, b}, make_msg<Mark>(0));
  const auto res = engine::frontier_search(
      w, ExploreOptions{},
      [](const World& world) -> std::optional<std::string> {
        if (world.in_flight() == 0) return "message consumed";
        return std::nullopt;
      },
      {});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("message consumed"), std::string::npos);
}

TEST(Explorer, DepthBoundMarksIncomplete) {
  World w;
  const NodeId a = w.add_process(std::make_unique<MarkSink>());
  const NodeId b = w.add_process(std::make_unique<MarkSink>());
  for (std::uint64_t i = 0; i < 5; ++i) w.enqueue({a, b}, make_msg<Mark>(i));
  ExploreOptions opt;
  opt.max_depth = 2;
  const auto res = engine::frontier_search(w, opt, {}, {});
  EXPECT_FALSE(res.complete);
  EXPECT_EQ(res.terminal_states, 0u);
}

// ---- real algorithms: exhaustively verified atomicity ---------------------------

// Smallest interesting ABD: N = 3, f = 1, a one-phase (SWMR) write
// concurrent with one read. Every interleaving must yield an atomic
// history and terminate.
TEST(Explorer, AbdSwmrWriteConcurrentReadIsAtomicEverywhere) {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);

  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});

  const Value v0 = enum_value(0, opt.value_size);
  const auto res = engine::frontier_search(
      sys.world, ExploreOptions{}, {},
      [&](const World& w) -> std::optional<std::string> {
        // Liveness: quiescence implies both operations responded.
        if (w.oplog().responses_since(0) < 2) return "operation stuck";
        const auto verdict = check_atomic(History::from_oplog(w.oplog()), v0);
        if (!verdict.ok) return verdict.violation;
        return std::nullopt;
      });
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.ok) << res.violation;
  EXPECT_GT(res.states_visited, 100u);
  EXPECT_GT(res.terminal_states, 0u);
  EXPECT_GT(res.deduped, res.states_visited / 4);  // merging is load-bearing
}

// The flagship: the explorer automatically DISCOVERS the reachability of a
// new-old inversion for one-phase (regular-only) reads, and exhaustively
// proves its absence for write-back reads. The structural predicate: a read
// has returned the new value while an entire quorum of servers still holds
// the old one — a later read served by that quorum would invert.
TEST(Explorer, FindsNewOldInversionOfRegularReads) {
  const std::size_t kValueBytes = 12;
  const Value v0 = enum_value(0, kValueBytes);
  const Value v1 = unique_value(1, 1, kValueBytes);

  auto build = [&](bool write_back) {
    abd::Options opt;
    opt.n_servers = 3;
    opt.f = 1;
    opt.single_writer = true;
    opt.read_write_back = write_back;
    opt.value_size = kValueBytes;
    abd::System sys = abd::make_system(opt);
    sys.world.invoke(sys.writers[0], {OpType::kWrite, v1});
    sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
    return sys;
  };

  auto inversion_reachable = [&](const abd::System& sys) {
    return [&sys, v1](const World& w) -> std::optional<std::string> {
      bool read_saw_new = false;
      for (const auto& e : w.oplog().events())
        if (e.kind == OpEvent::Kind::kResponse && e.type == OpType::kRead &&
            e.value == v1)
          read_saw_new = true;
      if (!read_saw_new) return std::nullopt;
      std::size_t stale = 0;
      for (const NodeId s : sys.servers) {
        const auto& server = dynamic_cast<const abd::Server&>(w.process(s));
        if (server.tag() == Tag::initial()) ++stale;
      }
      // Quorum = N - f = 2: two stale servers can serve a later read v0.
      if (stale >= 2)
        return "read returned the new value while a stale quorum remains";
      return std::nullopt;
    };
  };

  // One-phase reads: the inversion state is reachable.
  abd::System regular = build(/*write_back=*/false);
  const auto res = engine::frontier_search(regular.world, ExploreOptions{},
                                           inversion_reachable(regular), {});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("stale quorum"), std::string::npos);

  // Write-back reads: exhaustively verified unreachable — a read returns v1
  // only after v1 is installed at a quorum, leaving at most one stale
  // server.
  abd::System atomic = build(/*write_back=*/true);
  const auto res2 = engine::frontier_search(atomic.world, ExploreOptions{},
                                            inversion_reachable(atomic), {});
  EXPECT_TRUE(res2.complete);
  EXPECT_TRUE(res2.ok) << res2.violation;
}

// ---- counterexample paths --------------------------------------------------
// Every reported path must replay to its violation. The sequential
// explorer's first counterexample is a function of its DFS order alone,
// so its exact delivery sequence is pinned too: a change to how the engine
// stores paths or enumerates channels must report the same steps. A
// parallel run may report a different violation first.

using StepTriples = std::vector<std::array<std::uint32_t, 3>>;  // src dst index

StepTriples triples(const std::vector<ExploreStep>& path) {
  StepTriples out;
  for (const ExploreStep& s : path)
    out.push_back({s.chan.src.value, s.chan.dst.value,
                   static_cast<std::uint32_t>(s.index)});
  return out;
}

World replay_path(World w, const std::vector<ExploreStep>& path) {
  for (const ExploreStep& s : path) w.deliver(s.chan, s.index);
  return w;
}

// ABD N = 3, f = 1, one-phase reads, write v1 || read: the new-old
// inversion of FindsNewOldInversionOfRegularReads.
struct Inversion {
  Value v1 = unique_value(1, 1, 12);
  abd::System sys;

  Inversion() {
    abd::Options opt;
    opt.n_servers = 3;
    opt.f = 1;
    opt.single_writer = true;
    opt.read_write_back = false;
    opt.value_size = 12;
    sys = abd::make_system(opt);
    sys.world.invoke(sys.writers[0], {OpType::kWrite, v1});
    sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  }

  std::optional<std::string> operator()(const World& w) const {
    bool saw_new = false;
    for (const auto& e : w.oplog().events())
      if (e.kind == OpEvent::Kind::kResponse && e.type == OpType::kRead &&
          e.value == v1)
        saw_new = true;
    if (!saw_new) return std::nullopt;
    std::size_t stale = 0;
    for (const NodeId s : sys.servers)
      if (dynamic_cast<const abd::Server&>(w.process(s)).tag() ==
          Tag::initial())
        ++stale;
    if (stale >= 2) return "inversion state";
    return std::nullopt;
  }
};

// ABD N = 3, f = 1 with two servers crashed: write || read can never
// finish, so the first quiescent state fails the terminal check.
abd::System stuck_system() {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  abd::System sys = abd::make_system(opt);
  sys.world.crash(sys.servers[1]);
  sys.world.crash(sys.servers[2]);
  sys.world.invoke(sys.writers[0],
                   {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return sys;
}

std::optional<std::string> stuck_check(const World& w) {
  if (w.oplog().responses_since(0) < 2) return "operation stuck";
  return std::nullopt;
}

TEST(Explorer, ViolationPathReplaysToTheViolation) {
  // The counterexample the explorer returns must be replayable: applying
  // the recorded deliveries to a fresh initial world reproduces the
  // violating state.
  const Inversion inv;
  const auto res = engine::frontier_search(inv.sys.world, ExploreOptions{},
                                           std::cref(inv), {});
  ASSERT_FALSE(res.ok);
  ASSERT_FALSE(res.violation_path.empty());
  const Inversion fresh;
  EXPECT_TRUE(fresh(replay_path(fresh.sys.world, res.violation_path)));
}

TEST(Explorer, SequentialInvariantViolationPathIsPinned) {
  const Inversion inv;
  const auto res = engine::frontier_search(
      inv.sys.world, ExploreOptions{}, std::cref(inv), {});
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.violation, "invariant: inversion state");
  // The write reaches server 0 only; the read then hears from servers 0
  // (new value) and 1 (old), leaving servers 1 and 2 a stale quorum.
  const StepTriples pinned = {{3, 0, 0}, {0, 3, 0}, {4, 0, 0},
                              {0, 4, 0}, {4, 1, 0}, {1, 4, 0}};
  EXPECT_EQ(triples(res.violation_path), pinned);
}

TEST(Explorer, SequentialTerminalViolationPathIsPinned) {
  const abd::System sys = stuck_system();
  const auto res =
      engine::frontier_search(sys.world, ExploreOptions{}, {}, stuck_check);
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.violation, "terminal: operation stuck");
  // Only server 0 is up: the write and the read each get one reply.
  const StepTriples pinned = {{3, 0, 0}, {0, 3, 0}, {4, 0, 0}, {0, 4, 0}};
  EXPECT_EQ(triples(res.violation_path), pinned);
}

TEST(Explorer, DeterministicAcrossRuns) {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;
  auto run_once = [&] {
    abd::System sys = abd::make_system(opt);
    sys.world.invoke(sys.writers[0],
                     {OpType::kWrite, unique_value(1, 1, opt.value_size)});
    return engine::frontier_search(sys.world, ExploreOptions{}, {}, {});
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.terminal_states, b.terminal_states);
  EXPECT_EQ(a.transitions, b.transitions);
}

TEST(Explorer, CrashedServerShrinksTheSpace) {
  abd::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.single_writer = true;
  opt.value_size = 12;

  abd::System healthy = abd::make_system(opt);
  healthy.world.invoke(healthy.writers[0],
                       {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  const auto full =
      engine::frontier_search(healthy.world, ExploreOptions{}, {}, {});

  abd::System degraded = abd::make_system(opt);
  degraded.world.crash(degraded.servers[2]);
  degraded.world.invoke(degraded.writers[0],
                        {OpType::kWrite, unique_value(1, 1, opt.value_size)});
  const auto crashed = engine::frontier_search(
      degraded.world, ExploreOptions{}, {},
      [](const World& w) -> std::optional<std::string> {
        if (w.oplog().responses_since(0) < 1) return "write stuck";
        return std::nullopt;
      });
  EXPECT_TRUE(crashed.ok) << crashed.violation;  // f = 1 tolerated everywhere
  EXPECT_LT(crashed.states_visited, full.states_visited);
}

}  // namespace
}  // namespace memu
