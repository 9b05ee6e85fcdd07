// Message types of the ABD protocol (Attiya-Bar-Noy-Dolev, reference [3] of
// the paper): replication with majority-style quorums of size N - f.
//
// Phase structure (relevant to the paper's Assumptions 1-3 in Section 6):
//   writer:  query (value-independent) -> store (value-dependent)   [MWMR]
//            store only                                             [SWMR]
//   reader:  query -> write-back
// Exactly one writer phase sends value-dependent messages, so ABD is in the
// class covered by Theorem 6.5.
#pragma once

#include <cstdint>

#include "algo/messages.h"

namespace memu::abd {

// ABD's payload kinds (Payload's K).
enum class Msg : std::uint8_t { kQueryReq, kQueryResp, kStoreReq, kStoreAck };

// Client -> server: request the server's current tag (and value if
// `want_value`). Value-independent.
struct QueryReq final : Payload<Msg::kQueryReq, "abd.query_req"> {
  bool want_value = false;

  QueryReq(std::uint32_t r, bool wv) : Payload(r), want_value(wv) {}

  StateBits size_bits() const override { return {0, 64 + 8}; }
  void encode_content(BufWriter& w) const override {
    w.u64(rid());
    w.boolean(want_value);
  }
};

// Server -> client: current (tag, value). Carries the value only when the
// query asked for it, and is value-dependent exactly then.
struct QueryResp final : Payload<Msg::kQueryResp, "abd.query_resp", kReply> {
  Tag tag;
  Value value;  // empty when the query was tag-only

  QueryResp(std::uint32_t r, Tag t, Value v)
      : Payload(r, v.empty() ? ValueClass::kNone : ValueClass::kBulk),
        tag(t),
        value(std::move(v)) {}

  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  void encode_content(BufWriter& w) const override {
    w.u64(rid());
    tag.encode(w);
    w.bytes(value);
  }
};

// Client -> server: store (tag, value); the server adopts it if the tag is
// newer.
using StoreReq = ValueMsg<Msg::kStoreReq, "abd.store_req">;
// Server -> client: acknowledges a store.
using StoreAck = RidMsg<Msg::kStoreAck, "abd.store_ack", kReply>;

}  // namespace memu::abd
