#include "algo/abd/client.h"

namespace memu::abd {

// ---- Writer -----------------------------------------------------------------

Writer::Writer(std::vector<NodeId> servers, std::size_t quorum,
               std::uint32_t writer_id, bool single_writer)
    : servers_(std::move(servers)),
      quorum_(quorum),
      writer_id_(writer_id),
      single_writer_(single_writer) {
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_.size());
}

void Writer::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kWrite, "abd.writer only writes");
  MEMU_CHECK_MSG(phase_ == Phase::kIdle,
                 "well-formedness: write invoked while busy");
  op_id_ = ctx.next_op_id();
  pending_value_ = ValueRef(inv.value);
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kWrite,
              *pending_value_, 0});

  replied_.clear();
  ++rid_;
  if (single_writer_) {
    // The sole writer owns the sequence: one value-dependent phase total.
    tag_ = Tag{++swmr_seq_, writer_id_};
    phase_ = Phase::kStore;
    const auto msg = make_msg<StoreReq>(rid_, tag_, *pending_value_);
    ctx.send_all(servers_, msg);
  } else {
    phase_ = Phase::kQuery;
    max_seen_ = Tag::initial();
    const auto msg = make_msg<QueryReq>(rid_, /*want_value=*/false);
    ctx.send_all(servers_, msg);
  }
}

void Writer::start_store(Context& ctx) {
  replied_.clear();
  ++rid_;
  phase_ = Phase::kStore;
  tag_ = Tag{max_seen_.seq + 1, writer_id_};
  const auto msg = make_msg<StoreReq>(rid_, tag_, *pending_value_);
  ctx.send_all(servers_, msg);
}

void Writer::complete(Context& ctx) {
  phase_ = Phase::kIdle;
  pending_value_.reset();
  replied_.clear();
  ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kWrite,
              Value{}, 0});
}

void Writer::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = dynamic_cast<const QueryResp*>(&msg)) {
    if (phase_ != Phase::kQuery || qr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (qr->tag > max_seen_) max_seen_ = qr->tag;
    if (replied_.size() >= quorum_) start_store(ctx);
    return;
  }
  if (const auto* ack = dynamic_cast<const StoreAck*>(&msg)) {
    if (phase_ != Phase::kStore || ack->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (replied_.size() >= quorum_) complete(ctx);
    return;
  }
  MEMU_UNREACHABLE("abd.writer got unexpected message " +
                   std::string(msg.type_name()));
}

bool Writer::ignores(NodeId from, const MessagePayload& msg) const {
  // Mirrors on_message's early returns: wrong phase, stale rid, or a
  // duplicate from an already-counted server all fall through untouched.
  if (const auto* qr = dynamic_cast<const QueryResp*>(&msg))
    return phase_ != Phase::kQuery || qr->rid != rid_ ||
           replied_.contains(from);
  if (const auto* ack = dynamic_cast<const StoreAck*>(&msg))
    return phase_ != Phase::kStore || ack->rid != rid_ ||
           replied_.contains(from);
  return false;
}

StateBits Writer::state_size() const {
  return {static_cast<double>(pending_value_->size()) * 8.0,
          2 * Tag::kBits + 64 * 3};
}

void Writer::write_state(BufWriter& w, const NodeRelabeling& rank) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  w.u64(swmr_seq_);
  tag_.encode(w);
  max_seen_.encode(w);
  w.bytes(*pending_value_);
  encode_relabeled_ids(replied_, rank, w);
}

// ---- Reader -----------------------------------------------------------------

Reader::Reader(std::vector<NodeId> servers, std::size_t quorum,
               bool write_back)
    : servers_(std::move(servers)), quorum_(quorum), write_back_(write_back) {
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_.size());
}

void Reader::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kRead, "abd.reader only reads");
  MEMU_CHECK_MSG(phase_ == Phase::kIdle,
                 "well-formedness: read invoked while busy");
  op_id_ = ctx.next_op_id();
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kRead,
              Value{}, 0});

  replied_.clear();
  ++rid_;
  phase_ = Phase::kQuery;
  best_tag_ = Tag::initial();
  best_value_.reset();
  const auto msg = make_msg<QueryReq>(rid_, /*want_value=*/true);
  ctx.send_all(servers_, msg);
}

void Reader::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = dynamic_cast<const QueryResp*>(&msg)) {
    if (phase_ != Phase::kQuery || qr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (qr->tag > best_tag_ || best_value_->empty()) {
      best_tag_ = qr->tag;
      best_value_ = ValueRef(qr->value);
    }
    if (replied_.size() >= quorum_) {
      if (!write_back_) {
        // Regular-only reader: return immediately after the query quorum.
        phase_ = Phase::kIdle;
        ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_,
                    OpType::kRead, *best_value_, 0});
        return;
      }
      // Phase 2: write back the freshest pair so later reads see it.
      replied_.clear();
      ++rid_;
      phase_ = Phase::kWriteBack;
      const auto store = make_msg<StoreReq>(rid_, best_tag_, *best_value_);
      ctx.send_all(servers_, store);
    }
    return;
  }
  if (const auto* ack = dynamic_cast<const StoreAck*>(&msg)) {
    if (phase_ != Phase::kWriteBack || ack->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (replied_.size() >= quorum_) {
      phase_ = Phase::kIdle;
      ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kRead,
                  *best_value_, 0});
    }
    return;
  }
  MEMU_UNREACHABLE("abd.reader got unexpected message " +
                   std::string(msg.type_name()));
}

bool Reader::ignores(NodeId from, const MessagePayload& msg) const {
  if (const auto* qr = dynamic_cast<const QueryResp*>(&msg))
    return phase_ != Phase::kQuery || qr->rid != rid_ ||
           replied_.contains(from);
  if (const auto* ack = dynamic_cast<const StoreAck*>(&msg))
    return phase_ != Phase::kWriteBack || ack->rid != rid_ ||
           replied_.contains(from);
  return false;
}

StateBits Reader::state_size() const {
  return {static_cast<double>(best_value_->size()) * 8.0, Tag::kBits + 64 * 2};
}

void Reader::write_state(BufWriter& w, const NodeRelabeling& rank) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  best_tag_.encode(w);
  w.bytes(*best_value_);
  encode_relabeled_ids(replied_, rank, w);
}

}  // namespace memu::abd
