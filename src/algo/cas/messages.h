// Message types of CAS — Coded Atomic Storage (Cadambe-Lynch-Medard-Musial,
// references [5, 6] of the paper) — and its garbage-collected variant CASGC.
//
// Write phases: query (value-independent) -> pre-write (value-dependent,
// carries one coded element per server) -> finalize (value-independent).
// Exactly one value-dependent phase, so CAS is in the class of algorithms
// covered by Theorem 6.5, as Section 6 of the paper notes.
//
// Read phases: query -> read-finalize (servers register the reader and
// forward the coded element when it is, or becomes, available).
#pragma once

#include <cstdint>

#include "algo/messages.h"

namespace memu::cas {

// CAS's payload kinds (Payload's K).
enum class Msg : std::uint8_t {
  kQueryReq, kQueryResp, kHashAnnounce, kHashAck, kPreWriteReq,
  kPreWriteAck, kFinalizeReq, kFinalizeAck, kReadFinReq, kReadFinResp
};

// Client -> server: highest finalized tag?  Server -> client: that tag.
using QueryReq = RidMsg<Msg::kQueryReq, "cas.query_req">;
using QueryResp = TagMsg<Msg::kQueryResp, "cas.query_resp", kReply>;

// Writer -> server i (optional extra phase, modeling the client-verification
// round of the Byzantine-tolerant algorithms [2, 15] that the paper's
// Section 6.5 conjecture covers): the hash of the coded element that will
// arrive in the pre-write. Value-DEPENDENT (a function of the value) but
// NOT bulk — it carries o(log|V|) bits.
struct HashAnnounce final : Payload<Msg::kHashAnnounce, "cas.hash_announce"> {
  Tag tag;
  std::uint64_t shard_hash = 0;

  HashAnnounce(std::uint32_t r, Tag t, std::uint64_t h)
      : Payload(r, ValueClass::kDigest), tag(t), shard_hash(h) {}

  StateBits size_bits() const override { return {0, 64 + Tag::kBits + 64}; }
  void encode_content(BufWriter& w) const override {
    w.u64(rid());
    tag.encode(w);
    w.u64(shard_hash);
  }
};

using HashAck = TagMsg<Msg::kHashAck, "cas.hash_ack", kReply>;

// Writer -> server i: coded element for the new tag. Value-dependent: this
// is the single phase in which information about the value leaves the
// writer. The element is a shared immutable block: the writer's coded
// shard, the message and the server's stored copy are one allocation.
struct PreWriteReq final : Payload<Msg::kPreWriteReq, "cas.pre_write_req"> {
  Tag tag;
  ValueRef shard;

  PreWriteReq(std::uint32_t r, Tag t, ValueRef s)
      : Payload(r, ValueClass::kBulk), tag(t), shard(std::move(s)) {}
  PreWriteReq(std::uint32_t r, Tag t, Bytes s)
      : PreWriteReq(r, t, ValueRef(std::move(s))) {}

  StateBits size_bits() const override {
    return {static_cast<double>(shard->size()) * 8.0, 64 + Tag::kBits};
  }
  void encode_content(BufWriter& w) const override {
    w.u64(rid());
    tag.encode(w);
    w.bytes(*shard);
  }
};

using PreWriteAck = TagMsg<Msg::kPreWriteAck, "cas.pre_write_ack", kReply>;

// Writer -> server: mark `tag` finalized. Value-independent.
using FinalizeReq = TagMsg<Msg::kFinalizeReq, "cas.finalize_req">;
using FinalizeAck = TagMsg<Msg::kFinalizeAck, "cas.finalize_ack", kReply>;

// Reader -> server: finalize `tag` and send me its coded element (now or
// when it arrives). Value-independent.
using ReadFinReq = TagMsg<Msg::kReadFinReq, "cas.read_fin_req">;

// Server -> reader. `has_shard` distinguishes "here is the element" from a
// bare ack (element not yet present, or garbage-collected), and the reply
// is value-dependent exactly when it carries the element. The element
// shares the server's stored block (an empty handle reads as no bytes).
struct ReadFinResp final
    : Payload<Msg::kReadFinResp, "cas.read_fin_resp", kReply> {
  Tag tag;
  bool has_shard = false;
  bool gced = false;  // element was garbage-collected (CASGC only)
  ValueRef shard;

  ReadFinResp(std::uint32_t r, Tag t, bool has, bool gc, ValueRef s)
      : Payload(r, has ? ValueClass::kBulk : ValueClass::kNone),
        tag(t),
        has_shard(has),
        gced(gc),
        shard(std::move(s)) {}

  StateBits size_bits() const override {
    return {static_cast<double>(shard->size()) * 8.0, 64 + Tag::kBits + 2};
  }
  void encode_content(BufWriter& w) const override {
    w.u64(rid());
    tag.encode(w);
    w.boolean(has_shard);
    w.boolean(gced);
    w.bytes(*shard);
  }
};

}  // namespace memu::cas
