#include "sim/world.h"

#include <gtest/gtest.h>

#include "sim/message.h"
#include "sim/process.h"

namespace memu {
namespace {

// Toy payload carrying one integer.
struct Ping final : Payload<0, "test.ping"> {
  std::uint64_t n;
  explicit Ping(std::uint64_t v) : n(v) {}
  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(n); }
};

// Toy process: counts received pings; echoes each ping back with n + 1 when
// `echo` is set.
class PingNode final : public CloneableProcess<PingNode> {
 public:
  explicit PingNode(bool echo = false) : echo_(echo) {}

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override {
    const auto& p = dynamic_cast<const Ping&>(msg);
    ++received_;
    last_ = p.n;
    if (echo_) ctx.send(from, make_msg<Ping>(p.n + 1));
  }

  StateBits state_size() const override {
    return {0, static_cast<double>(received_) * 8};
  }

  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(received_);
    w.u64(last_);
  }

  std::string name() const override { return "test.ping_node"; }
  bool is_server() const override { return true; }

  std::uint64_t received() const { return received_; }
  std::uint64_t last() const { return last_; }

 private:
  bool echo_;
  std::uint64_t received_ = 0;
  std::uint64_t last_ = 0;
};

TEST(World, AddProcessAssignsDenseIds) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  EXPECT_EQ(a.value, 0u);
  EXPECT_EQ(b.value, 1u);
  EXPECT_EQ(w.process(a).id(), a);
  EXPECT_EQ(w.process_count(), 2u);
}

TEST(World, DeliverInvokesHandler) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(7));
  EXPECT_TRUE(w.has_deliverable());
  w.deliver({a, b});
  const auto& node = dynamic_cast<const PingNode&>(w.process(b));
  EXPECT_EQ(node.received(), 1u);
  EXPECT_EQ(node.last(), 7u);
  EXPECT_FALSE(w.has_deliverable());
}

TEST(World, FifoWithinChannelByDefaultIndex) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(1));
  w.enqueue({a, b}, make_msg<Ping>(2));
  w.deliver({a, b});
  EXPECT_EQ(dynamic_cast<const PingNode&>(w.process(b)).last(), 1u);
  w.deliver({a, b});
  EXPECT_EQ(dynamic_cast<const PingNode&>(w.process(b)).last(), 2u);
}

TEST(World, OutOfOrderDeliveryByIndex) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(1));
  w.enqueue({a, b}, make_msg<Ping>(2));
  w.deliver({a, b}, 1);  // adversary reorders
  EXPECT_EQ(dynamic_cast<const PingNode&>(w.process(b)).last(), 2u);
}

TEST(World, DeliveryToCrashedNodeDropsMessage) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(5));
  w.crash(b);
  EXPECT_FALSE(w.has_deliverable());  // held while crashed
  EXPECT_EQ(w.in_flight(), 1u);
}

TEST(World, FrozenChannelsAreNotDeliverable) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(5));
  w.freeze(a);
  EXPECT_FALSE(w.has_deliverable());
  EXPECT_THROW(w.deliver({a, b}), ContractError);
  w.unfreeze(a);
  EXPECT_TRUE(w.has_deliverable());
  w.deliver({a, b});
  EXPECT_EQ(dynamic_cast<const PingNode&>(w.process(b)).received(), 1u);
}

TEST(World, EchoProducesReply) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>(/*echo=*/true));
  w.enqueue({a, b}, make_msg<Ping>(10));
  w.deliver({a, b});
  ASSERT_EQ(w.channel_depth({b, a}), 1u);
  w.deliver({b, a});
  EXPECT_EQ(dynamic_cast<const PingNode&>(w.process(a)).last(), 11u);
}

TEST(World, CloneIsDeepForProcesses) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(1));

  World copy = w;  // snapshot before delivery
  w.deliver({a, b});

  EXPECT_EQ(dynamic_cast<const PingNode&>(w.process(b)).received(), 1u);
  EXPECT_EQ(dynamic_cast<const PingNode&>(copy.process(b)).received(), 0u);
  EXPECT_EQ(copy.in_flight(), 1u);

  // The clone can be driven independently.
  copy.deliver({a, b});
  EXPECT_EQ(dynamic_cast<const PingNode&>(copy.process(b)).received(), 1u);
}

TEST(World, CloneCopiesCrashAndFreezeSets) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.crash(a);
  w.freeze(b);
  const World copy = w;
  EXPECT_TRUE(copy.is_crashed(a));
  EXPECT_TRUE(copy.is_frozen(b));
}

TEST(World, StepCountAdvancesOnDeliveryAndInvocation) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  EXPECT_EQ(w.step_count(), 0u);
  w.enqueue({a, b}, make_msg<Ping>(1));
  w.deliver({a, b});
  EXPECT_EQ(w.step_count(), 1u);
}

TEST(World, ServerStorageAggregation) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(1));
  w.enqueue({a, b}, make_msg<Ping>(2));
  w.deliver({a, b});
  w.deliver({a, b});
  // b received 2 messages -> 16 metadata bits; a received none.
  EXPECT_DOUBLE_EQ(w.total_server_storage().metadata_bits, 16);
  EXPECT_DOUBLE_EQ(w.max_server_storage().metadata_bits, 16);
}

TEST(World, CrashedServersExcludedFromStorage) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(1));
  w.deliver({a, b});
  w.crash(b);
  EXPECT_DOUBLE_EQ(w.total_server_storage().metadata_bits, 0);
}

TEST(World, ChannelBitsAccounting) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  w.enqueue({a, b}, make_msg<Ping>(1));
  w.enqueue({b, a}, make_msg<Ping>(2));
  EXPECT_DOUBLE_EQ(w.channel_bits().metadata_bits, 128);
}

TEST(World, DeliverOnEmptyChannelIsContractViolation) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  const NodeId b = w.add_process(std::make_unique<PingNode>());
  EXPECT_THROW(w.deliver({a, b}), ContractError);
}

TEST(World, InvocationAtCrashedClientIsContractViolation) {
  World w;
  const NodeId a = w.add_process(std::make_unique<PingNode>());
  w.crash(a);
  EXPECT_THROW(w.invoke(a, Invocation{}), ContractError);
}

}  // namespace
}  // namespace memu
