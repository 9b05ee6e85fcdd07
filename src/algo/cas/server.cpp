#include "algo/cas/server.h"

#include <vector>

#include "common/hash.h"

namespace memu::cas {

Server::Server(Bytes initial_shard, std::optional<std::size_t> delta)
    : delta_(delta) {
  store_[Tag::initial()] =
      Entry{ValueRef(std::move(initial_shard)), /*finalized=*/true};
}

void Server::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* q = dynamic_cast<const QueryReq*>(&msg)) {
    ctx.send(from, make_msg<QueryResp>(q->rid, highest_finalized()));
    return;
  }
  if (const auto* ha = dynamic_cast<const HashAnnounce*>(&msg)) {
    if (ha->tag >= gc_watermark_) announced_[ha->tag] = ha->shard_hash;
    ctx.send(from, make_msg<HashAck>(ha->rid, ha->tag));
    return;
  }
  if (const auto* pw = dynamic_cast<const PreWriteReq*>(&msg)) {
    // Integrity check against the announced hash, if one exists.
    const auto announced = announced_.find(pw->tag);
    if (announced != announced_.end() &&
        announced->second != fnv1a64(pw->shard)) {
      ++rejected_;
      ctx.send(from, make_msg<PreWriteAck>(pw->rid, pw->tag));
      return;
    }
    if (pw->tag >= gc_watermark_) {
      Entry& e = store_[pw->tag];
      if (!e.shard.has_value()) {
        e.shard = ValueRef(pw->shard);
        // Serve readers that registered before the element arrived.
        if (auto it = waiting_.find(pw->tag); it != waiting_.end()) {
          for (const auto& [reader, rid] : it->second) {
            ctx.send(reader, make_msg<ReadFinResp>(rid, pw->tag, true, false,
                                                   *e.shard));
          }
          waiting_.erase(it);
        }
      }
    }
    ctx.send(from, make_msg<PreWriteAck>(pw->rid, pw->tag));
    return;
  }
  if (const auto* fin = dynamic_cast<const FinalizeReq*>(&msg)) {
    if (fin->tag >= gc_watermark_) {
      store_[fin->tag].finalized = true;  // shard may still be absent
      run_gc(ctx);
    }
    ctx.send(from, make_msg<FinalizeAck>(fin->rid, fin->tag));
    return;
  }
  if (const auto* rf = dynamic_cast<const ReadFinReq*>(&msg)) {
    handle_read_fin(ctx, from, *rf);
    return;
  }
  MEMU_UNREACHABLE("cas.server got unexpected message " +
                   std::string(msg.type_name()));
}

void Server::handle_read_fin(Context& ctx, NodeId from, const ReadFinReq& req) {
  if (req.tag < gc_watermark_) {
    ctx.send(from, make_msg<ReadFinResp>(req.rid, req.tag, false, true,
                                         Bytes{}));
    return;
  }
  Entry& e = store_[req.tag];
  const bool was_finalized = e.finalized;
  e.finalized = true;
  if (e.shard.has_value()) {
    ctx.send(from, make_msg<ReadFinResp>(req.rid, req.tag, true, false,
                                         *e.shard));
  } else {
    // Bare ack now; the element is forwarded when the pre-write arrives.
    waiting_[req.tag].insert({from, req.rid});
    ctx.send(from, make_msg<ReadFinResp>(req.rid, req.tag, false, false,
                                         Bytes{}));
  }
  if (!was_finalized) run_gc(ctx);
}

void Server::run_gc(Context& ctx) {
  if (!delta_.has_value()) return;  // plain CAS
  // Keep coded elements for the delta + 1 highest finalized tags and for
  // every tag above the lowest of those (in-flight pre-writes may still be
  // finalized). Everything strictly below is garbage-collected.
  std::vector<Tag> finalized;
  for (auto it = store_.rbegin(); it != store_.rend(); ++it) {
    if (it->second.finalized) {
      finalized.push_back(it->first);
      if (finalized.size() == *delta_ + 1) break;
    }
  }
  if (finalized.size() < *delta_ + 1) return;
  const Tag threshold = finalized.back();
  if (threshold <= gc_watermark_) return;
  gc_watermark_ = threshold;

  for (auto it = store_.begin(); it != store_.end() && it->first < threshold;) {
    it = store_.erase(it);
  }
  for (auto it = announced_.begin();
       it != announced_.end() && it->first < threshold;) {
    it = announced_.erase(it);
  }
  // Registered readers below the watermark will never get an element here.
  for (auto it = waiting_.begin();
       it != waiting_.end() && it->first < threshold;) {
    for (const auto& [reader, rid] : it->second) {
      ctx.send(reader,
               make_msg<ReadFinResp>(rid, it->first, false, true, Bytes{}));
    }
    it = waiting_.erase(it);
  }
}

StateBits Server::state_size() const {
  StateBits bits;
  for (const auto& [tag, entry] : store_) {
    bits.metadata_bits += Tag::kBits + 2;  // tag + finalized/presence flags
    if (entry.shard.has_value())
      bits.value_bits += static_cast<double>(entry.shard->size()) * 8.0;
  }
  for (const auto& [tag, readers] : waiting_) {
    bits.metadata_bits +=
        Tag::kBits + static_cast<double>(readers.size()) * (32 + 64);
  }
  bits.metadata_bits +=
      static_cast<double>(announced_.size()) * (Tag::kBits + 64);
  bits.metadata_bits += Tag::kBits;  // gc watermark
  return bits;
}

void Server::write_state(BufWriter& w, const NodeRelabeling&) const {
  gc_watermark_.encode(w);
  w.u64(store_.size());
  for (const auto& [tag, entry] : store_) {
    tag.encode(w);
    w.boolean(entry.finalized);
    w.boolean(entry.shard.has_value());
    if (entry.shard.has_value()) w.bytes(*entry.shard);
  }
  w.u64(waiting_.size());
  for (const auto& [tag, readers] : waiting_) {
    tag.encode(w);
    w.u64(readers.size());
    for (const auto& [reader, rid] : readers) {
      w.u32(reader.value);
      w.u64(rid);
    }
  }
  w.u64(announced_.size());
  for (const auto& [tag, hash] : announced_) {
    tag.encode(w);
    w.u64(hash);
  }
}

std::size_t Server::stored_versions() const {
  std::size_t n = 0;
  for (const auto& [tag, entry] : store_)
    if (entry.shard.has_value()) ++n;
  return n;
}

std::size_t Server::finalized_versions() const {
  std::size_t n = 0;
  for (const auto& [tag, entry] : store_)
    if (entry.finalized) ++n;
  return n;
}

Tag Server::highest_finalized() const {
  Tag best = Tag::initial();
  for (const auto& [tag, entry] : store_)
    if (entry.finalized && tag > best) best = tag;
  return best;
}

}  // namespace memu::cas
