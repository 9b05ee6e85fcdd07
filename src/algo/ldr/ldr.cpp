#include "algo/ldr/ldr.h"

#include "common/check.h"

namespace memu::ldr {

// ---- Server -----------------------------------------------------------------

void Server::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* q = dynamic_cast<const DirQueryReq*>(&msg)) {
    ctx.send(from, make_msg<DirQueryResp>(q->rid, dir_tag_, dir_locations_));
    return;
  }
  if (const auto* u = dynamic_cast<const DirUpdateReq*>(&msg)) {
    if (u->tag > dir_tag_) {
      dir_tag_ = u->tag;
      dir_locations_ = u->locations;
    }
    ctx.send(from, make_msg<DirUpdateAck>(u->rid));
    return;
  }
  if (const auto* r = dynamic_cast<const RepReserveReq*>(&msg)) {
    MEMU_CHECK_MSG(is_replica_, "reserve sent to a non-replica");
    ctx.send(from, make_msg<RepReserveResp>(r->rid));
    return;
  }
  if (const auto* p = dynamic_cast<const RepPutReq*>(&msg)) {
    MEMU_CHECK_MSG(is_replica_, "put sent to a non-replica");
    if (p->tag > rep_tag_) {
      rep_tag_ = p->tag;
      rep_value_ = p->value;
      rep_has_value_ = true;
    }
    ctx.send(from, make_msg<RepPutAck>(p->rid));
    return;
  }
  if (const auto* rel = dynamic_cast<const RepReleaseReq*>(&msg)) {
    MEMU_CHECK_MSG(is_replica_, "release sent to a non-replica");
    // Garbage collection: drop a value that a strictly newer committed
    // write supersedes. A replica holding the committing tag (or newer)
    // keeps its value.
    if (rep_tag_ < rel->tag && rep_has_value_) {
      rep_value_.clear();
      rep_has_value_ = false;
    }
    return;
  }
  if (const auto* g = dynamic_cast<const RepGetReq*>(&msg)) {
    MEMU_CHECK_MSG(is_replica_, "get sent to a non-replica");
    // A miss is possible only when this replica's copy was released under a
    // reader holding stale directory data; the reader re-queries.
    const bool hit = rep_has_value_ && rep_tag_ >= g->tag;
    ctx.send(from, make_msg<RepGetResp>(g->rid, rep_tag_, hit,
                                        hit ? rep_value_ : Value{}));
    return;
  }
  MEMU_UNREACHABLE("ldr.server got unexpected message " +
                   std::string(msg.type_name()));
}

// ---- Writer -----------------------------------------------------------------

Writer::Writer(std::vector<NodeId> directories, std::vector<NodeId> replicas,
               std::size_t dir_quorum, std::size_t replica_set_size,
               std::uint32_t writer_id)
    : directories_(std::move(directories)),
      replicas_(std::move(replicas)),
      dir_quorum_(dir_quorum),
      replica_set_size_(replica_set_size),
      writer_id_(writer_id) {
  MEMU_CHECK(dir_quorum_ >= 1 && dir_quorum_ <= directories_.size());
  MEMU_CHECK(replica_set_size_ >= 1 &&
             replica_set_size_ <= replicas_.size());
}

void Writer::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kWrite, "ldr.writer only writes");
  MEMU_CHECK_MSG(phase_ == Phase::kIdle,
                 "well-formedness: write invoked while busy");
  op_id_ = ctx.next_op_id();
  pending_value_ = inv.value;
  ctx.log_op({OpEvent::Kind::kInvoke, ctx.self(), op_id_, OpType::kWrite,
              pending_value_, 0});
  replied_.clear();
  chosen_.clear();
  ++rid_;
  phase_ = Phase::kDirQuery;
  max_seen_ = Tag::initial();
  const auto msg = make_msg<DirQueryReq>(rid_);
  ctx.send_all(directories_, msg);
}

void Writer::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = dynamic_cast<const DirQueryResp*>(&msg)) {
    if (phase_ != Phase::kDirQuery || qr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (qr->tag > max_seen_) max_seen_ = qr->tag;
    if (replied_.size() >= dir_quorum_) {
      replied_.clear();
      ++rid_;
      phase_ = Phase::kReserve;
      tag_ = Tag{max_seen_.seq + 1, writer_id_};
      const auto r = make_msg<RepReserveReq>(rid_);
      ctx.send_all(replicas_, r);
    }
    return;
  }
  if (const auto* rr = dynamic_cast<const RepReserveResp*>(&msg)) {
    if (phase_ != Phase::kReserve || rr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    chosen_.push_back(from);
    if (chosen_.size() >= replica_set_size_) {
      // Put the value on exactly the f + 1 fastest replicas — nobody else
      // ever stores these value bits.
      replied_.clear();
      ++rid_;
      phase_ = Phase::kPut;
      const auto p = make_msg<RepPutReq>(rid_, tag_, pending_value_);
      ctx.send_all(chosen_, p);
    }
    return;
  }
  if (const auto* pa = dynamic_cast<const RepPutAck*>(&msg)) {
    if (phase_ != Phase::kPut || pa->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (replied_.size() >= replica_set_size_) {
      replied_.clear();
      ++rid_;
      phase_ = Phase::kDirUpdate;
      const auto u = make_msg<DirUpdateReq>(rid_, tag_, chosen_);
      ctx.send_all(directories_, u);
    }
    return;
  }
  if (const auto* ua = dynamic_cast<const DirUpdateAck*>(&msg)) {
    if (phase_ != Phase::kDirUpdate || ua->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (replied_.size() >= dir_quorum_) {
      // Commit done: garbage-collect superseded copies everywhere
      // (fire-and-forget; replicas in `chosen_` hold tag_ and keep it).
      const auto rel = make_msg<RepReleaseReq>(tag_);
      ctx.send_all(replicas_, rel);
      phase_ = Phase::kIdle;
      pending_value_.clear();
      replied_.clear();
      chosen_.clear();
      ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_,
                  OpType::kWrite, Value{}, 0});
    }
    return;
  }
  MEMU_UNREACHABLE("ldr.writer got unexpected message " +
                   std::string(msg.type_name()));
}

StateBits Writer::state_size() const {
  return {static_cast<double>(pending_value_.size()) * 8.0,
          2 * Tag::kBits + 64 * 3 +
              32.0 * static_cast<double>(chosen_.size())};
}

void Writer::write_state(BufWriter& w, const NodeRelabeling&) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  tag_.encode(w);
  max_seen_.encode(w);
  w.bytes(pending_value_);
  w.u64(chosen_.size());
  for (NodeId n : chosen_) w.u32(n.value);
  w.u64(replied_.size());
  for (NodeId n : replied_) w.u32(n.value);
}

// ---- Reader -----------------------------------------------------------------

Reader::Reader(std::vector<NodeId> directories, std::size_t dir_quorum)
    : directories_(std::move(directories)), dir_quorum_(dir_quorum) {
  MEMU_CHECK(dir_quorum_ >= 1 && dir_quorum_ <= directories_.size());
}

void Reader::on_invoke(Context& ctx, const Invocation& inv) {
  MEMU_CHECK_MSG(inv.type == OpType::kRead, "ldr.reader only reads");
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
  misses_ = 0;
  ++rid_;
  phase_ = Phase::kDirQuery;
  target_ = Tag::initial();
  locations_.clear();
  const auto msg = make_msg<DirQueryReq>(rid_);
  ctx.send_all(directories_, msg);
}

void Reader::on_message(Context& ctx, NodeId from, const MessagePayload& msg) {
  if (const auto* qr = dynamic_cast<const DirQueryResp*>(&msg)) {
    if (phase_ != Phase::kDirQuery || qr->rid != rid_) return;  // stale
    if (!replied_.insert(from).second) return;
    if (qr->tag > target_ || locations_.empty()) {
      target_ = qr->tag;
      locations_ = qr->locations;
    }
    if (replied_.size() >= dir_quorum_) {
      replied_.clear();
      ++rid_;
      phase_ = Phase::kGet;
      const auto g = make_msg<RepGetReq>(rid_, target_);
      ctx.send_all(locations_, g);
    }
    return;
  }
  if (const auto* gr = dynamic_cast<const RepGetResp*>(&msg)) {
    if (phase_ != Phase::kGet || gr->rid != rid_) return;  // stale
    if (!gr->hit) {
      // Copy released under us (stale directory view): when every target
      // has missed, re-run the directory query for a fresher location set.
      if (++misses_ >= locations_.size()) {
        ++restarts_;
        MEMU_CHECK_MSG(restarts_ < 1000, "ldr.reader livelocked on retries");
        start_query(ctx);
      }
      return;
    }
    phase_ = Phase::kIdle;
    ctx.log_op({OpEvent::Kind::kResponse, ctx.self(), op_id_, OpType::kRead,
                gr->value, 0});
    return;
  }
  MEMU_UNREACHABLE("ldr.reader got unexpected message " +
                   std::string(msg.type_name()));
}

StateBits Reader::state_size() const {
  return {0, Tag::kBits + 64 * 2 +
                 32.0 * static_cast<double>(locations_.size())};
}

void Reader::write_state(BufWriter& w, const NodeRelabeling&) const {
  w.u8(static_cast<std::uint8_t>(phase_));
  w.u64(rid_);
  target_.encode(w);
  w.u64(locations_.size());
  for (NodeId n : locations_) w.u32(n.value);
}

// ---- System ------------------------------------------------------------------

System make_system(const Options& opt) {
  const std::size_t n_replicas = 2 * opt.f + 1;
  MEMU_CHECK_MSG(opt.n_servers >= n_replicas,
                 "LDR needs at least 2f + 1 replica servers");
  MEMU_CHECK(opt.value_size >= 12);

  System sys;
  sys.dir_quorum = opt.n_servers - opt.f;

  const Value v0 = opt.initial_value.empty()
                       ? enum_value(0, opt.value_size)
                       : opt.initial_value;
  MEMU_CHECK(v0.size() == opt.value_size);

  // The initial value lives on the first f + 1 replicas only.
  std::vector<NodeId> initial_locations;
  for (std::size_t i = 0; i <= opt.f; ++i)
    initial_locations.push_back(NodeId{static_cast<std::uint32_t>(i)});

  for (std::size_t i = 0; i < opt.n_servers; ++i) {
    const bool is_replica = i < n_replicas;
    const bool holds_v0 = i <= opt.f;
    sys.servers.push_back(sys.world.add_process(std::make_unique<Server>(
        is_replica, holds_v0 ? v0 : Value{}, initial_locations)));
    if (is_replica) sys.replicas.push_back(sys.servers.back());
  }
  // Non-initial replicas start empty but at tag 0; fix their state so that
  // a get(tag0) on them correctly misses: they are at tag0 with no value.
  // (Directory locations exclude them, so reads never target them for v0.)

  for (std::size_t i = 0; i < opt.n_writers; ++i)
    sys.writers.push_back(sys.world.add_process(std::make_unique<Writer>(
        sys.servers, sys.replicas, sys.dir_quorum, opt.f + 1,
        static_cast<std::uint32_t>(i + 1))));

  for (std::size_t i = 0; i < opt.n_readers; ++i)
    sys.readers.push_back(sys.world.add_process(
        std::make_unique<Reader>(sys.servers, sys.dir_quorum)));

  return sys;
}

}  // namespace memu::ldr
