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

#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"
#include "sim/world.h"

namespace memu::gossip {

struct StoreReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  Value value;

  StoreReq(std::uint64_t r, Tag t, Value v)
      : rid(r), tag(t), value(std::move(v)) {}

  std::string_view type_name() const override { return "gossip.store_req"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return true; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.bytes(value);
  }
};

struct StoreAck final : MessagePayload {
  std::uint64_t rid = 0;

  explicit StoreAck(std::uint64_t r) : rid(r) {}

  std::string_view type_name() const override { return "gossip.store_ack"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

// Server-to-server anti-entropy message.
struct GossipMsg final : MessagePayload {
  Tag tag;
  Value value;

  GossipMsg(Tag t, Value v) : tag(t), value(std::move(v)) {}

  std::string_view type_name() const override { return "gossip.gossip"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, Tag::kBits};
  }
  bool value_dependent() const override { return true; }

  void encode_content(BufWriter& w) const override {
    tag.encode(w);
    w.bytes(value);
  }
};

struct QueryReq final : MessagePayload {
  std::uint64_t rid = 0;

  explicit QueryReq(std::uint64_t r) : rid(r) {}

  std::string_view type_name() const override { return "gossip.query_req"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

struct QueryResp final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  Value value;

  QueryResp(std::uint64_t r, Tag t, Value v)
      : rid(r), tag(t), value(std::move(v)) {}

  std::string_view type_name() const override { return "gossip.query_resp"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return true; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.bytes(value);
  }
};

class Server final : public CloneableProcess<Server> {
 public:
  Server(Value initial_value, std::vector<NodeId> peers)
      : tag_(Tag::initial()), value_(std::move(initial_value)),
        peers_(std::move(peers)) {}

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

  // Peers must be set after all servers exist; see make_system.
  void set_peers(std::vector<NodeId> peers) { peers_ = std::move(peers); }

 private:
  void adopt_and_gossip(Context& ctx, const Tag& tag, const Value& value);

  Tag tag_;
  Value value_;
  std::vector<NodeId> peers_;
};

class Writer final : public CloneableProcess<Writer> {
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
  std::vector<NodeId> servers_;
  std::size_t quorum_;
  std::uint32_t writer_id_;

  bool busy_ = false;
  std::uint64_t rid_ = 0;
  std::uint64_t op_id_ = 0;
  std::uint64_t seq_ = 0;
  Value pending_value_;
  std::set<NodeId> replied_;
};

class Reader final : public CloneableProcess<Reader> {
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
  std::vector<NodeId> servers_;
  std::size_t quorum_;

  bool busy_ = false;
  std::uint64_t rid_ = 0;
  std::uint64_t op_id_ = 0;
  Tag best_tag_;
  Value best_value_;
  std::set<NodeId> replied_;
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
