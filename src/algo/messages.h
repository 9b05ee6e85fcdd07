// The message shapes the families share. Most protocol messages are a
// client round's rid, plus a tag, plus a value; a family names its
// instances, e.g.
//   using QueryReq = RidMsg<Msg::kQueryReq, "cas.query_req">;
//   using StoreAck = RidMsg<Msg::kStoreAck, "abd.store_ack", kReply>;
// and writes out the few messages with other fields. Every encoding writes
// the rid as a u64.
#pragma once

#include <cstdint>
#include <utility>

#include "registers/tag.h"
#include "registers/value.h"
#include "sim/message.h"

namespace memu {

// A round's rid alone: a query, a reservation, an ack. Value-independent.
template <auto K, TypeName Name, bool IsReply = false>
struct RidMsg final : Payload<K, Name, IsReply> {
  explicit RidMsg(std::uint32_t r) : Payload<K, Name, IsReply>(r) {}

  StateBits size_bits() const override { return {0, 64}; }
  void encode_content(BufWriter& w) const override { w.u64(this->rid()); }
};

// A rid and a tag: a tag report, a finalize or commit, or its ack.
// Value-independent.
template <auto K, TypeName Name, bool IsReply = false>
struct TagMsg final : Payload<K, Name, IsReply> {
  Tag tag;

  TagMsg(std::uint32_t r, Tag t) : Payload<K, Name, IsReply>(r), tag(t) {}

  StateBits size_bits() const override { return {0, 64 + Tag::kBits}; }
  void encode_content(BufWriter& w) const override {
    w.u64(this->rid());
    tag.encode(w);
  }
};

// A rid, a tag and the full value: a replication store, or a reply that
// always carries the value. Bulk value-dependent.
template <auto K, TypeName Name, bool IsReply = false>
struct ValueMsg final : Payload<K, Name, IsReply> {
  Tag tag;
  Value value;

  ValueMsg(std::uint32_t r, Tag t, Value v)
      : Payload<K, Name, IsReply>(r, ValueClass::kBulk),
        tag(t),
        value(std::move(v)) {}

  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  void encode_content(BufWriter& w) const override {
    w.u64(this->rid());
    tag.encode(w);
    w.bytes(value);
  }
};

}  // namespace memu
