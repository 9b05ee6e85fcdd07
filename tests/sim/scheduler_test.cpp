#include "engine/scheduler.h"

#include <gtest/gtest.h>

#include "sim/message.h"
#include "sim/process.h"

namespace memu {
namespace {

struct Token final : MessagePayload {
  std::uint64_t hops;
  explicit Token(std::uint64_t h) : hops(h) {}
  std::string_view type_name() const override { return "test.token"; }
  StateBits size_bits() const override { return {0, 64}; }
};

// Passes a token to the next node in a ring, `limit` times.
class RingNode final : public CloneableProcess<RingNode> {
 public:
  RingNode(NodeId next, std::uint64_t limit) : next_(next), limit_(limit) {}

  void on_message(Context& ctx, NodeId, const MessagePayload& msg) override {
    const auto& t = dynamic_cast<const Token&>(msg);
    seen_ = t.hops;
    if (t.hops < limit_) ctx.send(next_, make_msg<Token>(t.hops + 1));
  }

  StateBits state_size() const override { return {0, 64}; }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(seen_);
  }
  std::string name() const override { return "test.ring_node"; }
  bool is_server() const override { return true; }

  std::uint64_t seen() const { return seen_; }

 private:
  NodeId next_;
  std::uint64_t limit_;
  std::uint64_t seen_ = 0;
};

World make_ring(std::size_t n, std::uint64_t limit) {
  World w;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId next{static_cast<std::uint32_t>((i + 1) % n)};
    w.add_process(std::make_unique<RingNode>(next, limit));
  }
  return w;
}

TEST(Scheduler, DrainsRingDeterministically) {
  World w = make_ring(3, 9);
  w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(1));
  Scheduler sched(Scheduler::Policy::kRoundRobin);
  EXPECT_TRUE(sched.drain(w, 1000));
  EXPECT_EQ(sched.steps_taken(), 9u);
  EXPECT_FALSE(w.has_deliverable());
}

TEST(Scheduler, RandomPolicyAlsoDrains) {
  World w = make_ring(4, 20);
  w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(1));
  Scheduler sched(Scheduler::Policy::kRandom, /*seed=*/123);
  EXPECT_TRUE(sched.drain(w, 1000));
  EXPECT_EQ(sched.steps_taken(), 20u);
}

TEST(Scheduler, RandomPolicyIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    World w = make_ring(5, 50);
    w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(1));
    // Seed both rings identically; also enqueue a competing token so random
    // choices matter.
    w.enqueue({NodeId{2}, NodeId{3}}, make_msg<Token>(40));
    Scheduler sched(Scheduler::Policy::kRandom, seed);
    sched.drain(w, 1000);
    Bytes trace;
    for (std::uint32_t i = 0; i < 5; ++i) {
      const Bytes s = w.process(NodeId{i}).encode_state();
      trace.insert(trace.end(), s.begin(), s.end());
    }
    return trace;
  };
  EXPECT_EQ(run(7), run(7));
}

TEST(Scheduler, RunUntilStopsEarlyOnPredicate) {
  World w = make_ring(3, 100);
  w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(1));
  Scheduler sched;
  const bool ok = sched.run_until(
      w, [](const World& world) { return world.step_count() >= 5; }, 1000);
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.step_count(), 5u);
}

TEST(Scheduler, RunUntilReturnsFalseWhenPredicateUnreachable) {
  World w = make_ring(3, 2);
  w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(1));
  Scheduler sched;
  const bool ok = sched.run_until(
      w, [](const World&) { return false; }, 1000);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(w.has_deliverable());  // quiesced trying
}

TEST(Scheduler, StepOnQuiescentWorldReturnsFalse) {
  World w = make_ring(2, 1);
  Scheduler sched;
  EXPECT_FALSE(sched.step(w));
}

TEST(Scheduler, FairnessUnderFreeze) {
  // Frozen node's channels are skipped; the rest of the system still runs.
  World w = make_ring(4, 100);
  w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(1));
  w.enqueue({NodeId{2}, NodeId{3}}, make_msg<Token>(1));
  w.freeze(NodeId{1});
  Scheduler sched;
  // Ring through node 1 is blocked; the 2->3 token flows until it reaches a
  // frozen hop (3 -> 0 -> 1 blocked at 0->1).
  EXPECT_TRUE(sched.drain(w, 1000));
  EXPECT_GT(w.in_flight(), 0u);  // blocked messages survive, nothing lost
}

TEST(Scheduler, RoundRobinServesAllChannels) {
  // Two independent pending messages: round-robin must deliver both within
  // two steps (single rotation), regardless of channel order.
  World w = make_ring(4, 1);
  w.enqueue({NodeId{0}, NodeId{1}}, make_msg<Token>(1));
  w.enqueue({NodeId{2}, NodeId{3}}, make_msg<Token>(1));
  Scheduler sched;
  EXPECT_TRUE(sched.step(w));
  EXPECT_TRUE(sched.step(w));
  EXPECT_EQ(dynamic_cast<const RingNode&>(w.process(NodeId{1})).seen(), 1u);
  EXPECT_EQ(dynamic_cast<const RingNode&>(w.process(NodeId{3})).seen(), 1u);
}

}  // namespace
}  // namespace memu
