#include "algo/strip/strip.h"

#include "common/check.h"

namespace memu::strip {

// ---- Server -----------------------------------------------------------------

Server::Server(CodecPtr codec, std::size_t index, std::size_t value_size,
               Bytes initial_symbol, std::optional<std::size_t> delta)
    : codec_(std::move(codec)),
      index_(index),
      value_size_(value_size),
      delta_(delta) {
  MEMU_CHECK(codec_ != nullptr && index_ < codec_->n());
  Entry initial;
  initial.rep = Entry::Rep::kSymbol;
  initial.data = std::move(initial_symbol);
  initial.committed = true;
  store_[Tag::initial()] = std::move(initial);
}

void Server::commit_tag(Context& ctx, const Tag& tag) {
  if (tag < gc_watermark_) return;
  auto it = store_.find(tag);
  if (it == store_.end()) {
    // Commit can precede the store (reordered channels are not possible on
    // our FIFO deques, but a reader's get-commit can): record an empty
    // committed entry; the store fills it in on arrival.
    Entry e;
    e.rep = Entry::Rep::kSymbol;  // empty until the value arrives
    e.committed = true;
    store_[tag] = std::move(e);
    run_gc(ctx);
    return;
  }
  Entry& e = it->second;
  const bool newly = !e.committed;
  e.committed = true;
  if (e.is_full()) {
    // THE mechanism: strip the optimistic full copy to this server's
    // codeword symbol — B bits become B/(N-f) bits.
    const Value full = std::move(e.data);
    e.rep = Entry::Rep::kSymbol;
    e.data = codec_->encode(full)[index_];
  }
  if (newly) run_gc(ctx);
}

void Server::answer(Context& ctx, NodeId reader, std::uint64_t rid,
                    const Tag& tag) {
  if (tag < gc_watermark_) {
    ctx.send(reader, make_msg<GetResp>(rid, tag, GetResp::Kind::kGced,
                                       Bytes{}));
    return;
  }
  const auto it = store_.find(tag);
  if (it == store_.end() || (!it->second.is_full() && it->second.data.empty())) {
    waiting_[tag].insert({reader, rid});
    ctx.send(reader, make_msg<GetResp>(rid, tag, GetResp::Kind::kNothing,
                                       Bytes{}));
    return;
  }
  const Entry& e = it->second;
  ctx.send(reader, make_msg<GetResp>(
                       rid, tag,
                       e.is_full() ? GetResp::Kind::kFull
                                   : GetResp::Kind::kSymbol,
                       e.data));
}

void Server::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* q = dynamic_cast<const QueryReq*>(&msg)) {
    ctx.send(from, make_msg<QueryResp>(q->rid, highest_committed()));
    return;
  }
  if (const auto* s = dynamic_cast<const StoreReq*>(&msg)) {
    if (s->tag >= gc_watermark_) {
      auto it = store_.find(s->tag);
      if (it == store_.end()) {
        Entry e;
        e.rep = Entry::Rep::kFull;
        e.data = s->value;
        store_[s->tag] = std::move(e);
      } else if (!it->second.is_full() && it->second.data.empty()) {
        // Commit arrived first: strip immediately.
        it->second.data = codec_->encode(s->value)[index_];
      }
      // Serve readers that registered before the value arrived.
      if (auto w = waiting_.find(s->tag); w != waiting_.end()) {
        const auto pending = std::move(w->second);
        waiting_.erase(w);
        for (const auto& [reader, rid] : pending)
          answer(ctx, reader, rid, s->tag);
      }
    }
    ctx.send(from, make_msg<StoreAck>(s->rid, s->tag));
    return;
  }
  if (const auto* c = dynamic_cast<const CommitReq*>(&msg)) {
    commit_tag(ctx, c->tag);
    ctx.send(from, make_msg<CommitAck>(c->rid, c->tag));
    return;
  }
  if (const auto* g = dynamic_cast<const GetReq*>(&msg)) {
    commit_tag(ctx, g->tag);  // reads commit their target (metadata
                              // write-back, for atomicity)
    answer(ctx, from, g->rid, g->tag);
    return;
  }
  MEMU_UNREACHABLE("strip.server got unexpected message " +
                   std::string(msg.type_name()));
}

void Server::run_gc(Context& ctx) {
  if (!delta_.has_value()) return;
  std::vector<Tag> committed;
  for (auto it = store_.rbegin(); it != store_.rend(); ++it) {
    if (it->second.committed) {
      committed.push_back(it->first);
      if (committed.size() == *delta_ + 1) break;
    }
  }
  if (committed.size() < *delta_ + 1) return;
  const Tag threshold = committed.back();
  if (threshold <= gc_watermark_) return;
  gc_watermark_ = threshold;
  for (auto it = store_.begin(); it != store_.end() && it->first < threshold;)
    it = store_.erase(it);
  for (auto it = waiting_.begin();
       it != waiting_.end() && it->first < threshold;) {
    for (const auto& [reader, rid] : it->second)
      ctx.send(reader, make_msg<GetResp>(rid, it->first,
                                         GetResp::Kind::kGced, Bytes{}));
    it = waiting_.erase(it);
  }
}

StateBits Server::state_size() const {
  StateBits bits{0, Tag::kBits};  // gc watermark
  for (const auto& [tag, entry] : store_) {
    bits.metadata_bits += Tag::kBits + 2;
    bits.value_bits += static_cast<double>(entry.data.size()) * 8.0;
  }
  for (const auto& [tag, readers] : waiting_)
    bits.metadata_bits +=
        Tag::kBits + static_cast<double>(readers.size()) * (32 + 64);
  return bits;
}

void Server::write_state(BufWriter& w, const NodeRelabeling&) const {
  gc_watermark_.encode(w);
  w.u64(store_.size());
  for (const auto& [tag, entry] : store_) {
    tag.encode(w);
    w.boolean(entry.committed);
    w.boolean(entry.is_full());
    w.bytes(entry.data);
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
}

std::size_t Server::full_copies() const {
  std::size_t n = 0;
  for (const auto& [tag, e] : store_)
    if (e.is_full()) ++n;
  return n;
}

std::size_t Server::symbols() const {
  std::size_t n = 0;
  for (const auto& [tag, e] : store_)
    if (!e.is_full() && !e.data.empty()) ++n;
  return n;
}

Tag Server::highest_committed() const {
  Tag best = Tag::initial();
  for (const auto& [tag, e] : store_)
    if (e.committed && tag > best) best = tag;
  return best;
}

// ---- Writer -----------------------------------------------------------------

Writer::Writer(std::vector<NodeId> servers, std::size_t quorum,
               std::uint32_t writer_id)
    : servers_(std::move(servers)), quorum_(quorum), writer_id_(writer_id) {
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_.size());
}

void Writer::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kWrite, "strip.writer only writes");
  MEMU_CHECK_MSG(phase_ == Phase::kIdle,
                 "well-formedness: write invoked while busy");
  op_id_ = ctx.next_op_id();
  pending_value_ = inv.value;
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kWrite,
              pending_value_, 0});
  replied_.clear();
  ++rid_;
  phase_ = Phase::kQuery;
  max_seen_ = Tag::initial();
  const auto msg = make_msg<QueryReq>(rid_);
  ctx.send_all(servers_, msg);
}

void Writer::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = dynamic_cast<const QueryResp*>(&msg)) {
    if (phase_ != Phase::kQuery || qr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (qr->tag > max_seen_) max_seen_ = qr->tag;
    if (replied_.size() >= quorum_) {
      replied_.clear();
      ++rid_;
      phase_ = Phase::kStore;
      tag_ = Tag{max_seen_.seq + 1, writer_id_};
      const auto store = make_msg<StoreReq>(rid_, tag_, pending_value_);
      ctx.send_all(servers_, store);
    }
    return;
  }
  if (const auto* sa = dynamic_cast<const StoreAck*>(&msg)) {
    if (phase_ != Phase::kStore || sa->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (replied_.size() >= quorum_) {
      replied_.clear();
      ++rid_;
      phase_ = Phase::kCommit;
      const auto commit = make_msg<CommitReq>(rid_, tag_);
      ctx.send_all(servers_, commit);
    }
    return;
  }
  if (const auto* ca = dynamic_cast<const CommitAck*>(&msg)) {
    if (phase_ != Phase::kCommit || ca->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (replied_.size() >= quorum_) {
      phase_ = Phase::kIdle;
      pending_value_.clear();
      replied_.clear();
      ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_,
                  OpType::kWrite, Value{}, 0});
    }
    return;
  }
  MEMU_UNREACHABLE("strip.writer got unexpected message " +
                   std::string(msg.type_name()));
}

StateBits Writer::state_size() const {
  return {static_cast<double>(pending_value_.size()) * 8.0,
          2 * Tag::kBits + 64 * 3};
}

void Writer::write_state(BufWriter& w, const NodeRelabeling&) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  tag_.encode(w);
  max_seen_.encode(w);
  w.bytes(pending_value_);
  w.u64(replied_.size());
  for (NodeId n : replied_) w.u32(n.value);
}

// ---- Reader -----------------------------------------------------------------

Reader::Reader(std::vector<NodeId> servers, std::size_t quorum, CodecPtr codec,
               std::size_t value_size)
    : servers_(std::move(servers)),
      quorum_(quorum),
      codec_(std::move(codec)),
      value_size_(value_size) {
  MEMU_CHECK(codec_ != nullptr);
  MEMU_CHECK(quorum_ >= 1 && quorum_ <= servers_.size());
}

void Reader::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kRead, "strip.reader only reads");
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
  full_.reset();
  symbols_.clear();
  gc_hits_ = 0;
  ++rid_;
  phase_ = Phase::kQuery;
  max_seen_ = Tag::initial();
  const auto msg = make_msg<QueryReq>(rid_);
  ctx.send_all(servers_, msg);
}

void Reader::maybe_complete(Context& ctx) {
  if (replied_.size() < quorum_) return;
  std::optional<Value> value;
  if (full_.has_value()) {
    value = *full_;
  } else if (symbols_.size() >= codec_->k()) {
    std::vector<std::pair<std::size_t, Bytes>> input;
    for (const auto& [node, symbol] : symbols_) {
      for (std::size_t i = 0; i < servers_.size(); ++i) {
        if (servers_[i] == node) {
          input.emplace_back(i, symbol);
          break;
        }
      }
    }
    value = codec_->decode(input, value_size_);
    MEMU_CHECK_MSG(value.has_value(), "strip.reader failed to decode");
  }
  if (value.has_value()) {
    phase_ = Phase::kIdle;
    ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kRead,
                *value, 0});
    return;
  }
  if (gc_hits_ > 0) {
    ++restarts_;
    MEMU_CHECK_MSG(restarts_ < 1000, "strip.reader livelocked on GC");
    start_query(ctx);
  }
  // Otherwise wait: registered servers forward on arrival.
}

void Reader::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = dynamic_cast<const QueryResp*>(&msg)) {
    if (phase_ != Phase::kQuery || qr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (qr->tag > max_seen_) max_seen_ = qr->tag;
    if (replied_.size() >= quorum_) {
      replied_.clear();
      full_.reset();
      symbols_.clear();
      gc_hits_ = 0;
      ++rid_;
      phase_ = Phase::kGet;
      target_ = max_seen_;
      const auto get = make_msg<GetReq>(rid_, target_);
      ctx.send_all(servers_, get);
    }
    return;
  }
  if (const auto* gr = dynamic_cast<const GetResp*>(&msg)) {
    if (phase_ != Phase::kGet || gr->rid != rid_ || gr->tag != target_)
      return;  // stale
    replied_.insert(from);
    switch (gr->kind) {
      case GetResp::Kind::kFull:
        full_ = gr->data;
        break;
      case GetResp::Kind::kSymbol:
        symbols_[from] = gr->data;
        break;
      case GetResp::Kind::kGced:
        ++gc_hits_;
        break;
      case GetResp::Kind::kNothing:
        break;
    }
    maybe_complete(ctx);
    return;
  }
  MEMU_UNREACHABLE("strip.reader got unexpected message " +
                   std::string(msg.type_name()));
}

StateBits Reader::state_size() const {
  StateBits bits{0, 2 * Tag::kBits + 64 * 3};
  if (full_.has_value())
    bits.value_bits += static_cast<double>(full_->size()) * 8.0;
  for (const auto& [node, symbol] : symbols_)
    bits.value_bits += static_cast<double>(symbol.size()) * 8.0;
  return bits;
}

void Reader::write_state(BufWriter& w, const NodeRelabeling&) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  target_.encode(w);
  w.boolean(full_.has_value());
  if (full_.has_value()) w.bytes(*full_);
  w.u64(symbols_.size());
  for (const auto& [node, symbol] : symbols_) {
    w.u32(node.value);
    w.bytes(symbol);
  }
}

// ---- System ------------------------------------------------------------------

System make_system(const Options& opt) {
  MEMU_CHECK_MSG(opt.n_servers >= 2 * opt.f + 1,
                 "StripStore needs N >= 2f + 1 (quorum intersection for "
                 "committed tags)");
  MEMU_CHECK(opt.value_size >= 12);

  System sys;
  const std::size_t k = opt.n_servers - opt.f;
  sys.codec = make_rs_codec(opt.n_servers, k);
  sys.quorum = opt.n_servers - opt.f;

  const Value v0 = opt.initial_value.empty()
                       ? enum_value(0, opt.value_size)
                       : opt.initial_value;
  MEMU_CHECK(v0.size() == opt.value_size);
  const auto initial_symbols = sys.codec->encode(v0);

  for (std::size_t i = 0; i < opt.n_servers; ++i)
    sys.servers.push_back(sys.world.add_process(std::make_unique<Server>(
        sys.codec, i, opt.value_size, initial_symbols[i], opt.delta)));

  for (std::size_t i = 0; i < opt.n_writers; ++i)
    sys.writers.push_back(sys.world.add_process(std::make_unique<Writer>(
        sys.servers, sys.quorum, static_cast<std::uint32_t>(i + 1))));

  for (std::size_t i = 0; i < opt.n_readers; ++i)
    sys.readers.push_back(sys.world.add_process(std::make_unique<Reader>(
        sys.servers, sys.quorum, sys.codec, opt.value_size)));

  return sys;
}

}  // namespace memu::strip
