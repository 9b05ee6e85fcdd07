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
#include <string>

#include "registers/tag.h"
#include "registers/value.h"
#include "sim/message.h"

namespace memu::abd {

// Client -> server: request the server's current tag (and value if
// `want_value`). Value-independent.
struct QueryReq final : MessagePayload {
  std::uint64_t rid = 0;
  bool want_value = false;

  QueryReq(std::uint64_t r, bool wv) : rid(r), want_value(wv) {}

  std::string_view type_name() const override { return "abd.query_req"; }
  StateBits size_bits() const override { return {0, 64 + 8}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    w.boolean(want_value);
  }
};

// Server -> client: current (tag, value). Carries the value only when the
// query asked for it.
struct QueryResp final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  Value value;  // empty when the query was tag-only

  QueryResp(std::uint64_t r, Tag t, Value v)
      : rid(r), tag(t), value(std::move(v)) {}

  std::string_view type_name() const override { return "abd.query_resp"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return !value.empty(); }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.bytes(value);
  }
};

// Client -> server: store (tag, value); the server adopts it if the tag is
// newer. Value-dependent.
struct StoreReq final : MessagePayload {
  std::uint64_t rid = 0;
  Tag tag;
  Value value;

  StoreReq(std::uint64_t r, Tag t, Value v)
      : rid(r), tag(t), value(std::move(v)) {}

  std::string_view type_name() const override { return "abd.store_req"; }
  StateBits size_bits() const override {
    return {static_cast<double>(value.size()) * 8.0, 64 + Tag::kBits};
  }
  bool value_dependent() const override { return true; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
    tag.encode(w);
    w.bytes(value);
  }
};

// Server -> client: acknowledges a store.
struct StoreAck final : MessagePayload {
  std::uint64_t rid = 0;

  explicit StoreAck(std::uint64_t r) : rid(r) {}

  std::string_view type_name() const override { return "abd.store_ack"; }
  StateBits size_bits() const override { return {0, 64}; }

  void encode_content(BufWriter& w) const override {
    w.u64(rid);
  }
};

}  // namespace memu::abd
