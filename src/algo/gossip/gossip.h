// A replication-based SWSR *regular* register that uses server gossip —
// the algorithm class Theorem 5.1 exists for (Theorem 4.1's proof breaks
// when servers talk to each other; Theorem 5.1 handles it by letting the
// inter-server channels flush before each valency probe).
//
// Protocol:
//   writer (single): one phase — send Store(tag, value) to all servers,
//     await N - f acks. Tags come from the writer's own counter.
//   server: adopt strictly-newer (tag, value); on every adoption, gossip
//     the pair to all other servers (anti-entropy; each tag is gossiped at
//     most once per server, so a write generates O(N^2) messages and then
//     quiesces).
//   reader: one phase — query all, await N - f responses, return the value
//     with the highest tag. No write-back: the register is regular, not
//     atomic — precisely the safety level of Theorems 4.1/5.1/B.1.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "algo/messages.h"
#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"
#include "sim/world.h"

namespace memu::gossip {

// The gossip register's payload kinds (Payload's K).
enum class Msg : std::uint8_t {
  kStoreReq, kStoreAck, kGossip, kQueryReq, kQueryResp
};

using StoreReq = ValueMsg<Msg::kStoreReq, "gossip.store_req">;
using StoreAck = RidMsg<Msg::kStoreAck, "gossip.store_ack", kReply>;

// Server-to-server anti-entropy message: outside any client round.
struct GossipMsg final : Payload<Msg::kGossip, "gossip.gossip"> {
  Tag tag;
  Value value;

  GossipMsg(Tag t, Value v)
      : Payload(ValueClass::kBulk), tag(t), value(std::move(v)) {}

  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, Tag::kBits};
  }
  void encode_content(BufWriter& w) const override {
    tag.encode(w);
    w.bytes(value);
  }
};

using QueryReq = RidMsg<Msg::kQueryReq, "gossip.query_req">;
using QueryResp = ValueMsg<Msg::kQueryResp, "gossip.query_resp", kReply>;

class Server final : public CloneableProcess<Server> {
 public:
  Server(Value initial_value, std::vector<NodeId> peers)
      : tag_(Tag::initial()), value_(std::move(initial_value)),
        peers_(ServerList(std::move(peers))) {}

  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override {
    return {static_cast<double>(value_.size()) * 8.0, Tag::kBits};
  }

  void write_state(BufWriter& w, const NodeRelabeling&) const override {
    tag_.encode(w);
    w.bytes(value_);
  }

  std::string name() const override { return "gossip.server"; }
  bool is_server() const override { return true; }

  const Tag& tag() const { return tag_; }

 private:
  void adopt_and_gossip(Context& ctx, const Tag& tag, const Value& value);

  Tag tag_;
  Value value_;
  ServerList peers_;
};

class Writer final : public RoundClient<Writer> {
 public:
  Writer(std::vector<NodeId> servers, std::size_t quorum,
         std::uint32_t writer_id);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "gossip.writer"; }

  bool idle() const { return !busy_; }

 private:
  ServerList servers_;
  std::size_t quorum_;
  std::uint32_t writer_id_;

  bool busy_ = false;
  std::uint64_t op_id_ = 0;
  std::uint64_t seq_ = 0;
  Value pending_value_;
  NodeSet replied_;
};

class Reader final : public RoundClient<Reader> {
 public:
  Reader(std::vector<NodeId> servers, std::size_t quorum);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "gossip.reader"; }

  bool idle() const { return !busy_; }

 private:
  ServerList servers_;
  std::size_t quorum_;

  bool busy_ = false;
  std::uint64_t op_id_ = 0;
  Tag best_tag_;
  Value best_value_;
  NodeSet replied_;
};

struct Options {
  std::size_t n_servers = 5;
  std::size_t f = 2;  // requires N >= 2f + 1
  std::size_t n_readers = 1;
  std::size_t value_size = 64;
  Value initial_value;
};

struct System {
  World world;
  std::vector<NodeId> servers;
  NodeId writer;
  std::vector<NodeId> readers;
  std::size_t quorum = 0;
};

System make_system(const Options& opt);

}  // namespace memu::gossip
