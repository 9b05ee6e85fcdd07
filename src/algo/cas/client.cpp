#include "algo/cas/client.h"

#include <algorithm>
#include <optional>

#include "common/hash.h"

namespace memu::cas {

// ---- Writer -----------------------------------------------------------------

Writer::Writer(std::vector<NodeId> servers, std::size_t quorum, CodecPtr codec,
               std::uint32_t writer_id, bool hash_phase)
    : servers_(ServerList(std::move(servers))),
      quorum_(quorum),
      codec_(std::move(codec)),
      writer_id_(writer_id),
      hash_phase_(hash_phase) {
  MEMU_CHECK(codec_ != nullptr);
  MEMU_CHECK(codec_->n() == servers_->size());
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_->size());
}

void Writer::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kWrite, "cas.writer only writes");
  MEMU_CHECK_MSG(phase_ == Phase::kIdle,
                 "well-formedness: write invoked while busy");
  op_id_ = ctx.next_op_id();
  pending_value_ = ValueRef(inv.value);
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kWrite,
              *pending_value_, 0});

  replied_.clear();
  next_round();
  phase_ = Phase::kQuery;
  max_seen_ = Tag::initial();
  const auto msg = make_msg<QueryReq>(rid_);
  ctx.send_all(*servers_, msg);
}

void Writer::start_pre_write(Context& ctx) {
  // Pre-write phase: the single BULK value-dependent phase.
  replied_.clear();
  next_round();
  phase_ = Phase::kPreWrite;
  for (std::size_t i = 0; i < servers_->size(); ++i) {
    ctx.send((*servers_)[i],
             make_msg<PreWriteReq>(rid_, tag_, (*pending_shards_)[i]));
  }
}

void Writer::complete(Context& ctx) {
  phase_ = Phase::kIdle;
  pending_value_.reset();
  pending_shards_.reset();
  replied_.clear();
  ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kWrite,
              Value{}, 0});
}

void Writer::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = msg.as<QueryResp>()) {
    if (!replied_.insert(from)) return;
    if (qr->tag > max_seen_) max_seen_ = qr->tag;
    if (replied_.size() >= quorum_) {
      tag_ = Tag{max_seen_.seq + 1, writer_id_};
      std::vector<ValueRef> shards;
      for (Bytes& shard : codec_->encode(*pending_value_))
        shards.emplace_back(std::move(shard));
      pending_shards_ = ShardListRef(std::move(shards));
      if (hash_phase_) {
        // Announce round: per-server shard hashes — value-dependent but
        // o(log|V|)-sized messages (NOT bulk).
        replied_.clear();
        next_round();
        phase_ = Phase::kAnnounce;
        for (std::size_t i = 0; i < servers_->size(); ++i) {
          ctx.send((*servers_)[i],
                   make_msg<HashAnnounce>(rid_, tag_,
                                          fnv1a64(*(*pending_shards_)[i])));
        }
      } else {
        start_pre_write(ctx);
      }
    }
    return;
  }
  if (msg.as<HashAck>() != nullptr) {
    if (!replied_.insert(from)) return;
    if (replied_.size() >= quorum_) start_pre_write(ctx);
    return;
  }
  if (msg.as<PreWriteAck>() != nullptr) {
    if (!replied_.insert(from)) return;
    if (replied_.size() >= quorum_) {
      replied_.clear();
      next_round();
      phase_ = Phase::kFinalize;
      const auto fin = make_msg<FinalizeReq>(rid_, tag_);
      ctx.send_all(*servers_, fin);
    }
    return;
  }
  if (msg.as<FinalizeAck>() != nullptr) {
    if (!replied_.insert(from)) return;
    if (replied_.size() >= quorum_) complete(ctx);
    return;
  }
  unexpected_message(name(), msg);
}

StateBits Writer::state_size() const {
  StateBits bits{static_cast<double>(pending_value_->size()) * 8.0,
                 2 * Tag::kBits + 64 * 3};
  for (const ValueRef& shard : *pending_shards_)
    bits.value_bits += static_cast<double>(shard->size()) * 8.0;
  return bits;
}

void Writer::write_state(BufWriter& w, const NodeRelabeling& rank) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  tag_.encode(w);
  max_seen_.encode(w);
  w.bytes(*pending_value_);
  // pending_shards_ is positional (shard i -> servers_[i]); with the k=1
  // codec that symmetry() requires, every shard is identical, so position
  // order is already relabel-stable.
  w.u64(pending_shards_->size());
  for (const ValueRef& shard : *pending_shards_) w.bytes(*shard);
  encode_relabeled_ids(replied_, rank, w);
}

// ---- Reader -----------------------------------------------------------------

Reader::Reader(std::vector<NodeId> servers, std::size_t quorum, CodecPtr codec,
               std::size_t value_size)
    : servers_(ServerList(std::move(servers))),
      quorum_(quorum),
      codec_(std::move(codec)),
      value_size_(value_size) {
  MEMU_CHECK(codec_ != nullptr);
  MEMU_CHECK(codec_->n() == servers_->size());
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_->size());
}

void Reader::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kRead, "cas.reader only reads");
  MEMU_CHECK_MSG(phase_ == Phase::kIdle,
                 "well-formedness: read invoked while busy");
  op_id_ = ctx.next_op_id();
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kRead,
              Value{}, 0});
  restarts_ = 0;
  start_query(ctx);
}

void Reader::start_query(Context& ctx) {
  replied_.clear();
  shards_.clear();
  gc_hits_ = 0;
  next_round();
  phase_ = Phase::kQuery;
  max_seen_ = Tag::initial();
  const auto msg = make_msg<QueryReq>(rid_);
  ctx.send_all(*servers_, msg);
}

void Reader::maybe_complete(Context& ctx) {
  if (replied_.size() < quorum_) return;
  if (shards_.size() >= codec_->k()) {
    // One per-thread decode input, refilled in place: its byte buffers
    // keep their capacity from read to read.
    thread_local std::vector<std::pair<std::size_t, Bytes>> input;
    input.resize(shards_.size());
    std::size_t filled = 0;
    for (const auto& [node, shard] : shards_) {
      // Server position in servers_ is the shard index.
      const auto pos = std::find(servers_->begin(), servers_->end(), node);
      if (pos == servers_->end()) continue;
      input[filled].first = static_cast<std::size_t>(pos - servers_->begin());
      input[filled].second.assign(shard->begin(), shard->end());
      ++filled;
    }
    input.resize(filled);
    std::optional<Bytes> value = codec_->decode(input, value_size_);
    MEMU_CHECK_MSG(value.has_value(), "cas.reader failed to decode k shards");
    phase_ = Phase::kIdle;
    ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kRead,
                std::move(*value), 0});
    return;
  }
  if (gc_hits_ > 0) {
    // The target tag was garbage-collected under us (concurrency exceeded
    // delta): a fresh query will observe a newer finalized tag.
    ++restarts_;
    MEMU_CHECK_MSG(restarts_ < 1000, "cas.reader livelocked on GC restarts");
    start_query(ctx);
  }
  // Otherwise: wait — registered servers forward elements on arrival.
}

void Reader::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = msg.as<QueryResp>()) {
    if (!replied_.insert(from)) return;
    if (qr->tag > max_seen_) max_seen_ = qr->tag;
    if (replied_.size() >= quorum_) {
      replied_.clear();
      shards_.clear();
      gc_hits_ = 0;
      next_round();
      phase_ = Phase::kReadFin;
      target_ = max_seen_;
      const auto req = make_msg<ReadFinReq>(rid_, target_);
      ctx.send_all(*servers_, req);
    }
    return;
  }
  if (const auto* rf = msg.as<ReadFinResp>()) {
    replied_.insert(from);
    if (rf->has_shard) {
      const auto at = std::lower_bound(
          shards_.begin(), shards_.end(), from,
          [](const auto& entry, NodeId id) { return entry.first < id; });
      if (at != shards_.end() && at->first == from) {
        at->second = rf->shard;
      } else {
        shards_.insert(at, {from, rf->shard});
      }
    }
    if (rf->gced) ++gc_hits_;
    maybe_complete(ctx);
    return;
  }
  unexpected_message(name(), msg);
}

StateBits Reader::state_size() const {
  StateBits bits{0, 2 * Tag::kBits + 64 * 3};
  for (const auto& [node, shard] : shards_)
    bits.value_bits += static_cast<double>(shard->size()) * 8.0;
  return bits;
}

void Reader::write_state(BufWriter& w, const NodeRelabeling& rank) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  target_.encode(w);
  max_seen_.encode(w);
  w.u64(shards_.size());
  // One per-thread buffer, as in encode_relabeled_ids: this runs on every
  // state-hash flush and every symmetry key.
  thread_local std::vector<std::pair<std::uint32_t, const Bytes*>> mapped;
  mapped.clear();
  for (const auto& [node, shard] : shards_)
    mapped.emplace_back(rank(node), &*shard);
  std::sort(mapped.begin(), mapped.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, shard] : mapped) {
    w.u32(id);
    w.bytes(*shard);
  }
  encode_relabeled_ids(replied_, rank, w);
  // GC misses decide whether an open read restarts; dead once it
  // completes, so idle readers encode equally.
  if (phase_ != Phase::kIdle) w.u64(gc_hits_);
}

}  // namespace memu::cas
