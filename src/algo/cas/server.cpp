#include "algo/cas/server.h"

#include <algorithm>

#include "common/hash.h"

namespace memu::cas {

Server::Server(Bytes initial_shard, std::optional<std::size_t> delta)
    : delta_(delta) {
  store_.push_back(
      Entry{Tag::initial(), ValueRef(std::move(initial_shard)),
            /*finalized=*/true});
}

Server::Entry& Server::entry(const Tag& tag) {
  auto it = std::lower_bound(
      store_.begin(), store_.end(), tag,
      [](const Entry& e, const Tag& t) { return e.tag < t; });
  if (it == store_.end() || it->tag != tag)
    it = store_.insert(it, Entry{tag, ValueRef{}, false});
  return *it;
}

void Server::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* q = msg.as<QueryReq>()) {
    ctx.send(from, make_msg<QueryResp>(q->rid(), highest_finalized()));
    return;
  }
  if (const auto* ha = msg.as<HashAnnounce>()) {
    if (ha->tag >= gc_watermark_) announced_[ha->tag] = ha->shard_hash;
    ctx.send(from, make_msg<HashAck>(ha->rid(), ha->tag));
    return;
  }
  if (const auto* pw = msg.as<PreWriteReq>()) {
    // Integrity check against the announced hash, if one exists.
    const auto announced = announced_.find(pw->tag);
    if (announced != announced_.end() &&
        announced->second != fnv1a64(*pw->shard)) {
      ++rejected_;
      ctx.send(from, make_msg<PreWriteAck>(pw->rid(), pw->tag));
      return;
    }
    if (pw->tag >= gc_watermark_) {
      Entry& e = entry(pw->tag);
      if (!e.shard.has_value()) {
        e.shard = pw->shard;
        // Serve readers that registered before the element arrived.
        const auto first = std::find_if(
            waiting_.begin(), waiting_.end(),
            [&](const Waiter& wt) { return wt.tag == pw->tag; });
        auto last = first;
        for (; last != waiting_.end() && last->tag == pw->tag; ++last) {
          ctx.send(last->reader,
                   make_msg<ReadFinResp>(last->rid, pw->tag, true, false,
                                         e.shard));
        }
        waiting_.erase(first, last);
      }
    }
    ctx.send(from, make_msg<PreWriteAck>(pw->rid(), pw->tag));
    return;
  }
  if (const auto* fin = msg.as<FinalizeReq>()) {
    if (fin->tag >= gc_watermark_) {
      entry(fin->tag).finalized = true;  // shard may still be absent
      run_gc(ctx);
    }
    ctx.send(from, make_msg<FinalizeAck>(fin->rid(), fin->tag));
    return;
  }
  if (const auto* rf = msg.as<ReadFinReq>()) {
    handle_read_fin(ctx, from, *rf);
    return;
  }
  unexpected_message(name(), msg);
}

void Server::handle_read_fin(Context& ctx, NodeId from, const ReadFinReq& req) {
  if (req.tag < gc_watermark_) {
    ctx.send(from, make_msg<ReadFinResp>(req.rid(), req.tag, false, true,
                                         ValueRef{}));
    return;
  }
  Entry& e = entry(req.tag);
  const bool was_finalized = e.finalized;
  e.finalized = true;
  if (e.shard.has_value()) {
    ctx.send(from, make_msg<ReadFinResp>(req.rid(), req.tag, true, false,
                                         e.shard));
  } else {
    // Bare ack now; the element is forwarded when the pre-write arrives.
    const Waiter wt{req.tag, from, req.rid()};
    const auto at = std::lower_bound(waiting_.begin(), waiting_.end(), wt);
    if (at == waiting_.end() || *at != wt) waiting_.insert(at, wt);
    ctx.send(from, make_msg<ReadFinResp>(req.rid(), req.tag, false, false,
                                         ValueRef{}));
  }
  if (!was_finalized) run_gc(ctx);
}

void Server::run_gc(Context& ctx) {
  if (!delta_.has_value()) return;  // plain CAS
  // Keep coded elements for the delta + 1 highest finalized tags and for
  // every tag above the lowest of those (in-flight pre-writes may still be
  // finalized). Everything strictly below is garbage-collected.
  std::size_t kept = 0;
  Tag threshold;
  for (auto it = store_.end(); it != store_.begin();) {
    --it;
    if (it->finalized && ++kept == *delta_ + 1) {
      threshold = it->tag;
      break;
    }
  }
  if (kept < *delta_ + 1) return;
  if (threshold <= gc_watermark_) return;
  gc_watermark_ = threshold;

  store_.erase(store_.begin(),
               std::find_if(store_.begin(), store_.end(), [&](const Entry& e) {
                 return !(e.tag < threshold);
               }));
  for (auto it = announced_.begin();
       it != announced_.end() && it->first < threshold;) {
    it = announced_.erase(it);
  }
  // Registered readers below the watermark will never get an element here.
  auto last = waiting_.begin();
  for (; last != waiting_.end() && last->tag < threshold; ++last) {
    ctx.send(last->reader, make_msg<ReadFinResp>(last->rid, last->tag, false,
                                                 true, ValueRef{}));
  }
  waiting_.erase(waiting_.begin(), last);
}

StateBits Server::state_size() const {
  StateBits bits;
  for (const Entry& e : store_) {
    bits.metadata_bits += Tag::kBits + 2;  // tag + finalized/presence flags
    if (e.shard.has_value())
      bits.value_bits += static_cast<double>(e.shard->size()) * 8.0;
  }
  for_each_waiting_tag([&](const Tag&, const Waiter* first, std::size_t n) {
    (void)first;
    bits.metadata_bits += Tag::kBits + static_cast<double>(n) * (32 + 64);
  });
  bits.metadata_bits +=
      static_cast<double>(announced_.size()) * (Tag::kBits + 64);
  bits.metadata_bits += Tag::kBits;  // gc watermark
  return bits;
}

void Server::write_state(BufWriter& w, const NodeRelabeling&) const {
  gc_watermark_.encode(w);
  w.u64(store_.size());
  for (const Entry& e : store_) {
    e.tag.encode(w);
    w.boolean(e.finalized);
    w.boolean(e.shard.has_value());
    if (e.shard.has_value()) w.bytes(*e.shard);
  }
  std::size_t tags = 0;
  for_each_waiting_tag([&](const Tag&, const Waiter*, std::size_t) { ++tags; });
  w.u64(tags);
  for_each_waiting_tag([&](const Tag& tag, const Waiter* first, std::size_t n) {
    tag.encode(w);
    w.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
      w.u32(first[i].reader.value);
      w.u64(first[i].rid);
    }
  });
  w.u64(announced_.size());
  for (const auto& [tag, hash] : announced_) {
    tag.encode(w);
    w.u64(hash);
  }
}

std::size_t Server::stored_versions() const {
  return static_cast<std::size_t>(std::count_if(
      store_.begin(), store_.end(),
      [](const Entry& e) { return e.shard.has_value(); }));
}

std::size_t Server::finalized_versions() const {
  return static_cast<std::size_t>(std::count_if(
      store_.begin(), store_.end(),
      [](const Entry& e) { return e.finalized; }));
}

Tag Server::highest_finalized() const {
  Tag best = Tag::initial();
  for (const Entry& e : store_)
    if (e.finalized && e.tag > best) best = e.tag;
  return best;
}

}  // namespace memu::cas
