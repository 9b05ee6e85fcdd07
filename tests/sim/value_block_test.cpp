#include <gtest/gtest.h>

#include "engine/scheduler.h"
#include "sim/world.h"

namespace memu {
namespace {

// Toy payloads for exercising selective value-blocking.
struct MetaMsg final : MessagePayload {
  std::string_view type_name() const override { return "test.meta"; }
  StateBits size_bits() const override { return {0, 8}; }
};

struct ValueMsg final : MessagePayload {
  std::string_view type_name() const override { return "test.value"; }
  StateBits size_bits() const override { return {64, 0}; }
  bool value_dependent() const override { return true; }
};

class Sink final : public CloneableProcess<Sink> {
 public:
  void on_message(Context&, NodeId, const MessagePayload& msg) override {
    if (msg.value_dependent())
      ++values_;
    else
      ++metas_;
  }
  StateBits state_size() const override { return {}; }
  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    w.u64(values_);
    w.u64(metas_);
  }
  std::string name() const override { return "test.sink"; }
  bool is_server() const override { return true; }

  std::uint64_t values() const { return values_; }
  std::uint64_t metas() const { return metas_; }

 private:
  std::uint64_t values_ = 0;
  std::uint64_t metas_ = 0;
};

struct Rig {
  World world;
  NodeId src{0}, dst{1};
  Rig() {
    world.add_process(std::make_unique<Sink>());
    world.add_process(std::make_unique<Sink>());
  }
  const Sink& sink() const {
    return dynamic_cast<const Sink&>(world.process(dst));
  }
};

TEST(ValueBlock, BlocksOnlyValueDependentMessages) {
  Rig rig;
  rig.world.enqueue({rig.src, rig.dst}, make_msg<ValueMsg>());
  rig.world.enqueue({rig.src, rig.dst}, make_msg<MetaMsg>());
  rig.world.value_block(rig.src);

  Scheduler sched;
  EXPECT_TRUE(sched.drain(rig.world, 100));
  EXPECT_EQ(rig.sink().metas(), 1u);   // metadata flowed
  EXPECT_EQ(rig.sink().values(), 0u);  // value held
  EXPECT_EQ(rig.world.in_flight(), 1u);
}

TEST(ValueBlock, SchedulerSkipsPastBlockedHead) {
  // The value message is at the head of the queue; the scheduler must
  // deliver the metadata message behind it.
  Rig rig;
  rig.world.enqueue({rig.src, rig.dst}, make_msg<ValueMsg>());
  rig.world.enqueue({rig.src, rig.dst}, make_msg<MetaMsg>());
  rig.world.value_block(rig.src);
  Scheduler sched;
  EXPECT_TRUE(sched.step(rig.world));
  EXPECT_EQ(rig.sink().metas(), 1u);
  EXPECT_FALSE(sched.step(rig.world));  // only the blocked value remains
}

TEST(ValueBlock, ManualValueDeliveryIsContractViolation) {
  Rig rig;
  rig.world.enqueue({rig.src, rig.dst}, make_msg<ValueMsg>());
  rig.world.value_block(rig.src);
  EXPECT_THROW(rig.world.deliver({rig.src, rig.dst}), ContractError);
}

TEST(ValueBlock, UnblockReleasesHeldMessages) {
  Rig rig;
  rig.world.enqueue({rig.src, rig.dst}, make_msg<ValueMsg>());
  rig.world.value_block(rig.src);
  EXPECT_FALSE(rig.world.has_deliverable());
  rig.world.value_unblock(rig.src);
  EXPECT_TRUE(rig.world.has_deliverable());
  rig.world.deliver({rig.src, rig.dst});
  EXPECT_EQ(rig.sink().values(), 1u);
}

TEST(ValueBlock, OnlyBlocksTheNamedSource) {
  Rig rig;
  rig.world.enqueue({rig.dst, rig.src}, make_msg<ValueMsg>());  // reverse dir
  rig.world.value_block(rig.src);
  EXPECT_TRUE(rig.world.has_deliverable());  // dst is not blocked
}

TEST(ValueBlock, SurvivesCloning) {
  Rig rig;
  rig.world.enqueue({rig.src, rig.dst}, make_msg<ValueMsg>());
  rig.world.value_block(rig.src);
  const World copy = rig.world;
  EXPECT_TRUE(copy.is_value_blocked(rig.src));
  EXPECT_FALSE(copy.has_deliverable());
}

TEST(ValueBlock, ComposesWithFreeze) {
  Rig rig;
  rig.world.enqueue({rig.src, rig.dst}, make_msg<MetaMsg>());
  rig.world.value_block(rig.src);
  rig.world.freeze(rig.src);
  EXPECT_FALSE(rig.world.has_deliverable());  // freeze blocks even metadata
  rig.world.unfreeze(rig.src);
  EXPECT_TRUE(rig.world.has_deliverable());
}

TEST(ValueBlock, DeliverNextAllowedPicksFirstPermitted) {
  Rig rig;
  rig.world.enqueue({rig.src, rig.dst}, make_msg<ValueMsg>());
  rig.world.enqueue({rig.src, rig.dst}, make_msg<ValueMsg>());
  rig.world.enqueue({rig.src, rig.dst}, make_msg<MetaMsg>());
  rig.world.value_block(rig.src);
  rig.world.deliver_next_allowed({rig.src, rig.dst});
  EXPECT_EQ(rig.sink().metas(), 1u);
  EXPECT_EQ(rig.sink().values(), 0u);
  EXPECT_THROW(rig.world.deliver_next_allowed({rig.src, rig.dst}),
               ContractError);
}

}  // namespace
}  // namespace memu
