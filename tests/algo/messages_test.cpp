// The payload constants every family's messages carry as data: the value
// class (Definition 6.4) that value- and bulk-blocking read, the reply bit
// and rid the stale-reply filter reads, and the kind that as<T>()
// dispatches on.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

#include "algo/abd/messages.h"
#include "algo/cas/messages.h"
#include "algo/gossip/gossip.h"
#include "algo/ldr/ldr.h"
#include "algo/strip/strip.h"
#include "common/check.h"
#include "sim/process.h"

namespace memu {
namespace {

// Whether reply `msg` is value-dependent and bulk, in that order.
void expect_class(const MessagePayload& msg, bool dependent, bool bulk) {
  EXPECT_EQ(msg.value_dependent(), dependent) << msg.type_name();
  EXPECT_EQ(msg.value_bulk(), bulk) << msg.type_name();
  EXPECT_TRUE(msg.is_reply()) << msg.type_name();
}

// The four replies whose value class depends on what they carry: each is
// bulk exactly when it carries value bits.
TEST(Messages, ValueClassFollowsContent) {
  const Tag t{1, 1};
  expect_class(abd::QueryResp(1, t, Value{1, 2, 3}), true, true);
  expect_class(abd::QueryResp(1, t, Value{}), false, false);

  expect_class(cas::ReadFinResp(1, t, true, false, ValueRef(Bytes{1})), true,
               true);
  expect_class(cas::ReadFinResp(1, t, false, false, ValueRef{}), false,
               false);
  expect_class(cas::ReadFinResp(1, t, false, true, ValueRef{}), false, false);

  expect_class(ldr::RepGetResp(1, t, true, Value{1, 2, 3}), true, true);
  expect_class(ldr::RepGetResp(1, t, false, Value{}), false, false);

  using Carries = strip::GetResp::Kind;
  expect_class(strip::GetResp(1, t, Carries::kFull, Bytes{1, 2}), true, true);
  expect_class(strip::GetResp(1, t, Carries::kSymbol, Bytes{1}), true, true);
  expect_class(strip::GetResp(1, t, Carries::kGced, Bytes{}), true, true);
  expect_class(strip::GetResp(1, t, Carries::kNothing, Bytes{}), false,
               false);
}

TEST(Messages, RepliesEchoTheirRoundAndRequestsAreNotReplies) {
  const abd::StoreReq store(7, Tag{1, 1}, Value{1});
  EXPECT_FALSE(store.is_reply());
  EXPECT_EQ(store.rid(), 7u);
  EXPECT_TRUE(store.value_bulk());
  const abd::StoreAck ack(7);
  EXPECT_TRUE(ack.is_reply());
  EXPECT_EQ(ack.rid(), 7u);
  EXPECT_FALSE(ack.value_dependent());
  // Outside any round: no rid.
  const gossip::GossipMsg gossip(Tag{1, 1}, Value{1});
  EXPECT_FALSE(gossip.is_reply());
  EXPECT_EQ(gossip.rid(), 0u);
  EXPECT_TRUE(gossip.value_bulk());
  EXPECT_EQ(gossip.type_name(), "gossip.gossip");
}

TEST(Messages, AsMatchesOnlyItsOwnKind) {
  const abd::QueryResp resp(1, Tag{1, 1}, Value{});
  const MessagePayload& msg = resp;
  EXPECT_EQ(msg.as<abd::QueryResp>(), &resp);
  EXPECT_EQ(msg.as<abd::StoreAck>(), nullptr);
  EXPECT_EQ(msg.as<abd::QueryReq>(), nullptr);

  const cas::ReadFinResp rf(1, Tag{1, 1}, false, false, ValueRef{});
  EXPECT_EQ(rf.as<cas::ReadFinResp>(), &rf);
  EXPECT_EQ(rf.as<cas::QueryResp>(), nullptr);
  EXPECT_EQ(rf.as<cas::FinalizeAck>(), nullptr);

  const strip::GetReq get(1, Tag{1, 1});
  EXPECT_EQ(static_cast<const MessagePayload&>(get).as<strip::GetResp>(),
            nullptr);
  const ldr::RepReleaseReq rel(Tag{1, 1});
  EXPECT_EQ(static_cast<const MessagePayload&>(rel).as<ldr::RepGetReq>(),
            nullptr);
}

// A payload and its shared_ptr control block (16 B) share one 32/64/128 B
// slab slot. The kind, the flags and a 32-bit rid fill the word after the
// vptr, so the rid-only payloads fit a 32 B slot and the CAS read-finalize
// reply a 64 B one.
TEST(Messages, KindAndRidShareTheVptrWord) {
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(abd::StoreAck), 16u);
    EXPECT_EQ(sizeof(cas::QueryReq), 16u);
    EXPECT_EQ(sizeof(ldr::RepReserveResp), 16u);
    EXPECT_EQ(sizeof(gossip::QueryReq), 16u);
    EXPECT_EQ(sizeof(cas::ReadFinResp), 48u);
  }
}

// A client that opens rounds from a chosen rid.
class RoundCounter final : public RoundClient<RoundCounter> {
 public:
  void on_message(Context&, NodeId, const MessagePayload&) override {}
  StateBits state_size() const override { return {}; }
  void write_state(BufWriter&, const NodeRelabeling&) const override {}
  std::string name() const override { return "test.round_counter"; }
  bool idle() const { return true; }

  std::uint32_t open_after(std::uint32_t rid) {
    rid_ = rid;
    return next_round();
  }
};

TEST(Messages, RoundIdsStopAtThe32BitBound) {
  RoundCounter c;
  EXPECT_EQ(c.open_after(0), 1u);
  EXPECT_EQ(c.open_after(UINT32_MAX - 1), UINT32_MAX);
  EXPECT_THROW(c.open_after(UINT32_MAX), ContractError);
}

}  // namespace
}  // namespace memu
