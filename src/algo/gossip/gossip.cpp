#include "algo/gossip/gossip.h"

#include "common/check.h"

namespace memu::gossip {

// ---- Server -----------------------------------------------------------------

void Server::adopt_and_gossip(Context& ctx, const Tag& tag,
                              const Value& value) {
  if (!(tag > tag_)) return;
  tag_ = tag;
  value_ = value;
  // One gossip fan-out per adoption: each (server, tag) pair gossips at
  // most once, so the gossip storm for a write is bounded by N^2 messages.
  const auto g = make_msg<GossipMsg>(tag, value);
  for (const NodeId peer : peers_) {
    if (peer != ctx.self()) ctx.send(peer, g);
  }
}

void Server::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* s = dynamic_cast<const StoreReq*>(&msg)) {
    adopt_and_gossip(ctx, s->tag, s->value);
    ctx.send(from, make_msg<StoreAck>(s->rid));
    return;
  }
  if (const auto* g = dynamic_cast<const GossipMsg*>(&msg)) {
    adopt_and_gossip(ctx, g->tag, g->value);
    return;
  }
  if (const auto* q = dynamic_cast<const QueryReq*>(&msg)) {
    ctx.send(from, make_msg<QueryResp>(q->rid, tag_, value_));
    return;
  }
  MEMU_UNREACHABLE("gossip.server got unexpected message " +
                   std::string(msg.type_name()));
}

// ---- Writer -----------------------------------------------------------------

Writer::Writer(std::vector<NodeId> servers, std::size_t quorum,
               std::uint32_t writer_id)
    : servers_(std::move(servers)), quorum_(quorum), writer_id_(writer_id) {
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_.size());
}

void Writer::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kWrite, "gossip.writer only writes");
  MEMU_CHECK_MSG(!busy_, "well-formedness: write invoked while busy");
  busy_ = true;
  op_id_ = ctx.next_op_id();
  pending_value_ = inv.value;
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kWrite,
              pending_value_, 0});
  replied_.clear();
  ++rid_;
  const Tag tag{++seq_, writer_id_};
  const auto msg = make_msg<StoreReq>(rid_, tag, pending_value_);
  ctx.send_all(servers_, msg);
}

void Writer::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* ack = dynamic_cast<const StoreAck*>(&msg)) {
    if (!busy_ || ack->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (replied_.size() >= quorum_) {
      busy_ = false;
      pending_value_.clear();
      replied_.clear();
      ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_,
                  OpType::kWrite, Value{}, 0});
    }
    return;
  }
  MEMU_UNREACHABLE("gossip.writer got unexpected message " +
                   std::string(msg.type_name()));
}

StateBits Writer::state_size() const {
  return {static_cast<double>(pending_value_.size()) * 8.0,
          Tag::kBits + 64 * 3};
}

void Writer::write_state(BufWriter& w, const NodeRelabeling&) const {
  w.boolean(busy_);
  w.u64(rid_);
  w.u64(seq_);
  w.bytes(pending_value_);
  w.u64(replied_.size());
  for (NodeId n : replied_) w.u32(n.value);
}

// ---- Reader -----------------------------------------------------------------

Reader::Reader(std::vector<NodeId> servers, std::size_t quorum)
    : servers_(std::move(servers)), quorum_(quorum) {
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_.size());
}

void Reader::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kRead, "gossip.reader only reads");
  MEMU_CHECK_MSG(!busy_, "well-formedness: read invoked while busy");
  busy_ = true;
  op_id_ = ctx.next_op_id();
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kRead,
              Value{}, 0});
  replied_.clear();
  ++rid_;
  best_tag_ = Tag::initial();
  best_value_.clear();
  const auto msg = make_msg<QueryReq>(rid_);
  ctx.send_all(servers_, msg);
}

void Reader::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = dynamic_cast<const QueryResp*>(&msg)) {
    if (!busy_ || qr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (qr->tag > best_tag_ || best_value_.empty()) {
      best_tag_ = qr->tag;
      best_value_ = qr->value;
    }
    if (replied_.size() >= quorum_) {
      busy_ = false;
      ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kRead,
                  best_value_, 0});
    }
    return;
  }
  MEMU_UNREACHABLE("gossip.reader got unexpected message " +
                   std::string(msg.type_name()));
}

StateBits Reader::state_size() const {
  return {static_cast<double>(best_value_.size()) * 8.0, Tag::kBits + 64 * 2};
}

void Reader::write_state(BufWriter& w, const NodeRelabeling&) const {
  w.boolean(busy_);
  w.u64(rid_);
  best_tag_.encode(w);
  w.bytes(best_value_);
  w.u64(replied_.size());
  for (NodeId n : replied_) w.u32(n.value);
}

// ---- System -----------------------------------------------------------------

System make_system(const Options& opt) {
  MEMU_CHECK_MSG(opt.n_servers >= 2 * opt.f + 1,
                 "gossip register needs N >= 2f + 1");
  MEMU_CHECK(opt.value_size >= 12);

  System sys;
  sys.quorum = opt.n_servers - opt.f;

  const Value v0 = opt.initial_value.empty()
                       ? enum_value(0, opt.value_size)
                       : opt.initial_value;
  MEMU_CHECK(v0.size() == opt.value_size);

  for (std::size_t i = 0; i < opt.n_servers; ++i)
    sys.servers.push_back(sys.world.add_process(
        std::make_unique<Server>(v0, std::vector<NodeId>{})));
  // Peers are known only after all servers are registered.
  for (const NodeId s : sys.servers)
    dynamic_cast<Server&>(sys.world.process(s)).set_peers(sys.servers);

  sys.writer = sys.world.add_process(
      std::make_unique<Writer>(sys.servers, sys.quorum, 1));
  for (std::size_t i = 0; i < opt.n_readers; ++i)
    sys.readers.push_back(sys.world.add_process(
        std::make_unique<Reader>(sys.servers, sys.quorum)));
  return sys;
}

}  // namespace memu::gossip
