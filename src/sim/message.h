// Messages exchanged over the emulated point-to-point channels.
//
// Payloads are immutable once sent: Worlds share them via shared_ptr<const>,
// which makes deep-copying a World (required by the adversary harness) cheap
// and safe. Every payload reports its size in bits, split into value bits and
// metadata bits, so channel contents can participate in storage accounting
// and so the adversary can classify messages as value-dependent or not.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/bits.h"
#include "common/buffer.h"
#include "common/hash.h"
#include "common/ids.h"

namespace memu {

// Base class of all protocol messages.
class MessagePayload {
 public:
  virtual ~MessagePayload() = default;

  // Human-readable message type, e.g. "abd.write_store". A view of a
  // string literal: fingerprinting a message names its type without
  // allocating.
  virtual std::string_view type_name() const = 0;

  // Size of this message, split into value and metadata bits.
  virtual StateBits size_bits() const = 0;

  // True when the message content depends on the value being written
  // (Definition 6.4 in the paper: value-dependent send actions). Query
  // messages, acks, and tag-only messages are value-independent.
  virtual bool value_dependent() const { return false; }

  // True when the message carries Theta(log|V|) bits of value information
  // (coded elements, full values). A value-dependent message of o(log|V|)
  // size — e.g. a hash sent for client verification, as in the Byzantine
  // algorithms the paper's Section 6.5 conjecture covers — is
  // value-dependent but NOT bulk.
  virtual bool value_bulk() const { return value_dependent(); }

  // Canonical content encoding: semantically equal messages must encode
  // equally, distinct ones differently. Used by the exhaustive interleaving
  // explorer to deduplicate World states. The default covers contentless
  // markers; any payload with fields must override.
  virtual void encode_content(BufWriter& w) const { (void)w; }

  // Full canonical encoding (type + content), appended to `w`.
  void encode_into(BufWriter& w) const {
    w.str(type_name());
    encode_content(w);
  }

  // The same encoding as a fresh buffer.
  Bytes encode() const {
    BufWriter w;
    encode_into(w);
    return std::move(w).take();
  }

  // fingerprint64(encode()), encoded through one reused per-thread buffer
  // instead of a fresh Bytes — ChannelTable::push runs this once per send.
  std::uint64_t fingerprint() const {
    thread_local Bytes scratch;
    BufWriter w(std::move(scratch));
    encode_into(w);
    const std::uint64_t fp = fingerprint64(w.data());
    scratch = std::move(w).take();
    return fp;
  }
};

using MessagePtr = std::shared_ptr<const MessagePayload>;

// An in-flight message. The channel it sits on is implied by the slot
// holding it (ChannelTable indexes queues by (src, dst)), so a Message is
// just the payload handle plus its cached fingerprint — 24 bytes, the unit
// the channel message blocks are sized in.
struct Message {
  MessagePtr payload;
  // Fingerprint of payload->encode(), computed once at enqueue
  // (ChannelTable::push) and carried with the message ever after — the
  // World's incremental state hash folds queues over these instead of
  // re-encoding payloads. 0 means "not yet computed" (a zero fingerprint
  // from fingerprint64 is one-in-2^64; push recomputes it harmlessly).
  std::uint64_t payload_fp = 0;
};

// Convenience factory: make_msg<AbdQuery>(args...) -> MessagePtr.
template <class T, class... Args>
MessagePtr make_msg(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace memu
