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
#include <string>

#include "registers/tag.h"
#include "registers/value.h"
#include "sim/message.h"

namespace memu::cas {

// Client -> server: highest finalized tag?  Value-independent.
struct QueryReq final : MessagePayload {
  std::uint64_t rid = 0;

  explicit QueryReq(std::uint64_t r) : rid(r) {}

  std::string_view type_name() const override { return "cas.query_req"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

// Server -> client: highest finalized tag.
struct QueryResp final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;

  QueryResp(std::uint64_t r, Tag t) : rid(r), tag(t) {}

  std::string_view type_name() const override { return "cas.query_resp"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

// Writer -> server i (optional extra phase, modeling the client-verification
// round of the Byzantine-tolerant algorithms [2, 15] that the paper's
// Section 6.5 conjecture covers): the hash of the coded element that will
// arrive in the pre-write. Value-DEPENDENT (a function of the value) but
// NOT bulk — it carries o(log|V|) bits.
struct HashAnnounce final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  std::uint64_t shard_hash = 0;

  HashAnnounce(std::uint64_t r, Tag t, std::uint64_t h)
      : rid(r), tag(t), shard_hash(h) {}

  std::string_view type_name() const override { return "cas.hash_announce"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits + 64}; }
  bool value_dependent() const override { return true; }
  bool value_bulk() const override { return false; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.u64(shard_hash);
  }
};

struct HashAck final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;

  HashAck(std::uint64_t r, Tag t) : rid(r), tag(t) {}

  std::string_view type_name() const override { return "cas.hash_ack"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

// Writer -> server i: coded element for the new tag. Value-dependent: this
// is the single phase in which information about the value leaves the
// writer.
struct PreWriteReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  Bytes shard;

  PreWriteReq(std::uint64_t r, Tag t, Bytes s)
      : rid(r), tag(t), shard(std::move(s)) {}

  std::string_view type_name() const override { return "cas.pre_write_req"; }
  StateBits size_bits() const override {
    return {static_cast<double>(shard.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return true; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.bytes(shard);
  }
};

struct PreWriteAck final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;

  PreWriteAck(std::uint64_t r, Tag t) : rid(r), tag(t) {}

  std::string_view type_name() const override { return "cas.pre_write_ack"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

// Writer -> server: mark `tag` finalized. Value-independent.
struct FinalizeReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;

  FinalizeReq(std::uint64_t r, Tag t) : rid(r), tag(t) {}

  std::string_view type_name() const override { return "cas.finalize_req"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

struct FinalizeAck final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;

  FinalizeAck(std::uint64_t r, Tag t) : rid(r), tag(t) {}

  std::string_view type_name() const override { return "cas.finalize_ack"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

// Reader -> server: finalize `tag` and send me its coded element (now or
// when it arrives). Value-independent.
struct ReadFinReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;

  ReadFinReq(std::uint64_t r, Tag t) : rid(r), tag(t) {}

  std::string_view type_name() const override { return "cas.read_fin_req"; }
  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
  }
};

// Server -> reader. `has_shard` distinguishes "here is the element" from a
// bare ack (element not yet present, or garbage-collected).
struct ReadFinResp final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  bool has_shard = false;
  bool gced = false;  // element was garbage-collected (CASGC only)
  Bytes shard;

  ReadFinResp(std::uint64_t r, Tag t, bool has, bool gc, Bytes s)
      : rid(r), tag(t), has_shard(has), gced(gc), shard(std::move(s)) {}

  std::string_view type_name() const override { return "cas.read_fin_resp"; }
  StateBits size_bits() const override {
    return {static_cast<double>(shard.size()) * 8.0, 64 + Tag::kBits + 2};
  }
  bool value_dependent() const override { return has_shard; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.boolean(has_shard);
    w.boolean(gced);
    w.bytes(shard);
  }
};

}  // namespace memu::cas
