// CAS write and read clients.
//
// Writer: query (max finalized tag) -> pre-write (coded element per server)
// -> finalize. Reader: query -> read-finalize; completes after a quorum of
// acks AND k coded elements, then decodes. A read that learns its target tag
// was garbage-collected under it (CASGC with concurrency above delta)
// restarts from the query phase.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "algo/cas/messages.h"
#include "codec/codec.h"
#include "registers/tag.h"
#include "registers/value.h"
#include "sim/process.h"

namespace memu::cas {

class Writer final : public CloneableProcess<Writer> {
 public:
  // `servers[i]` stores coded element i. `quorum` = ceil((N + k) / 2).
  // `hash_phase` inserts an announce round (per-server shard hashes) between
  // query and pre-write — the two-value-dependent-phase shape of the
  // Byzantine-tolerant algorithms [2, 15] covered by the paper's
  // Section 6.5 conjecture (the hash phase carries only o(log|V|) bits).
  Writer(std::vector<NodeId> servers, std::size_t quorum, CodecPtr codec,
         std::uint32_t writer_id, bool hash_phase = false);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "cas.writer"; }

  // The pending value and shard list live behind shared slab blocks
  // (SlabShared): a COW clone shares them, so a detach materializes
  // metadata only.
  std::uint64_t detach_bytes() const override {
    return static_cast<std::uint64_t>((state_size().metadata_bits + 7.0) /
                                      8.0);
  }
  bool ignores(NodeId from, const MessagePayload& msg) const override;

  // With a k=1 codec every coded element IS the value, so which server
  // gets which shard is behaviorally irrelevant and the only server ids in
  // the state are the replied_ set (mapped below). k >= 2 assigns a
  // DISTINCT element per server position: servers stop being
  // interchangeable and symmetry must stay off.
  Symmetry symmetry() const override {
    return codec_->k() == 1 ? Symmetry::kMapsIds : Symmetry::kNone;
  }

  bool idle() const { return phase_ == Phase::kIdle; }
  // Phase the write is currently in, for adversarial drivers that park
  // writers between phases.
  enum class Phase : std::uint8_t {
    kIdle, kQuery, kAnnounce, kPreWrite, kFinalize
  };
  Phase phase() const { return phase_; }
  Tag write_tag() const { return tag_; }

 private:
  void complete(Context& ctx);

  void start_pre_write(Context& ctx);

  std::vector<NodeId> servers_;
  std::size_t quorum_;
  CodecPtr codec_;
  std::uint32_t writer_id_;
  bool hash_phase_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t rid_ = 0;
  std::uint64_t op_id_ = 0;
  // Both payloads are set-once per operation (the value at invoke, the
  // shard list by one codec encode at end of query) and cleared at
  // completion — shared across COW clones, never mutated in place.
  ValueRef pending_value_;
  ShardListRef pending_shards_;
  Tag tag_;
  Tag max_seen_;
  std::set<NodeId> replied_;
};

class Reader final : public CloneableProcess<Reader> {
 public:
  Reader(std::vector<NodeId> servers, std::size_t quorum, CodecPtr codec,
         std::size_t value_size);

  void on_invoke(Context& ctx, const Invocation& inv) override;
  void on_message(Context& ctx, NodeId from,
                  const MessagePayload& msg) override;

  StateBits state_size() const override;
  void write_state(BufWriter& w, const NodeRelabeling& rank) const override;
  std::string name() const override { return "cas.reader"; }

  // Collected shards live behind shared slab blocks (each written once on
  // arrival): a COW clone shares them, so a detach materializes metadata
  // only.
  std::uint64_t detach_bytes() const override {
    return static_cast<std::uint64_t>((state_size().metadata_bits + 7.0) /
                                      8.0);
  }
  bool ignores(NodeId from, const MessagePayload& msg) const override;

  // Same k=1 rationale as the writer; shards_ keys (server ids) and the
  // replied_ set are mapped in write_state.
  Symmetry symmetry() const override {
    return codec_->k() == 1 ? Symmetry::kMapsIds : Symmetry::kNone;
  }

  bool idle() const { return phase_ == Phase::kIdle; }
  std::size_t restarts() const { return restarts_; }

 private:
  enum class Phase : std::uint8_t { kIdle, kQuery, kReadFin };

  void start_query(Context& ctx);
  void maybe_complete(Context& ctx);

  std::vector<NodeId> servers_;
  std::size_t quorum_;
  CodecPtr codec_;
  std::size_t value_size_;

  Phase phase_ = Phase::kIdle;
  std::uint64_t rid_ = 0;
  std::uint64_t op_id_ = 0;
  Tag target_;
  Tag max_seen_;
  std::set<NodeId> replied_;
  // Each shard is written once when its ReadFinResp arrives and read once
  // at decode — a clone shares the payload blocks.
  std::map<NodeId, ValueRef> shards_;
  std::size_t gc_hits_ = 0;
  std::size_t restarts_ = 0;
};

}  // namespace memu::cas
