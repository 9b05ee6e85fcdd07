// Messages exchanged over the emulated point-to-point channels.
//
// Payloads are immutable once sent: Worlds share them via shared_ptr<const>,
// which makes deep-copying a World (required by the adversary harness) cheap
// and safe. make_msg places each payload, with its control block, in one
// slot of the sending thread's slab pool (common/arena.h), so a send costs
// no heap allocation. Every payload reports its size in bits, split into
// value bits and metadata bits, so channel contents can participate in
// storage accounting and so the adversary can classify messages as
// value-dependent or not.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/arena.h"
#include "common/bits.h"
#include "common/buffer.h"
#include "common/hash.h"
#include "common/ids.h"

namespace memu {

struct Reply;

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

  // The reply view of a server -> client reply (see Reply); null for every
  // other message.
  virtual const Reply* as_reply() const { return nullptr; }

  // Full canonical encoding (type + content), appended to `w`.
  void encode_into(BufWriter& w) const {
    w.str(type_name());
    encode_content(w);
  }

  // fingerprint64 of the encode_into() bytes, encoded through one reused
  // per-thread buffer — ChannelTable::push runs this once per send.
  std::uint64_t fingerprint() const {
    thread_local Bytes scratch;
    BufWriter w(std::move(scratch));
    encode_into(w);
    const std::uint64_t fp = fingerprint64(w.data());
    scratch = std::move(w).take();
    return fp;
  }
};

// Base of every server -> client reply. A client runs its protocol in
// rounds, one per quorum phase, and tags each round's requests with a fresh
// request id; the server echoes that id in its reply, so `rid` names the
// round the reply answers. RoundClient (sim/process.h) reads it to drop
// replies to rounds that are over. A reply's encode_content writes `rid`
// itself, like any other field.
struct Reply : MessagePayload {
  explicit Reply(std::uint64_t r) : rid(r) {}
  const Reply* as_reply() const final { return this; }

  std::uint64_t rid = 0;
};

using MessagePtr = std::shared_ptr<const MessagePayload>;

// An in-flight message. The channel it sits on is implied by the slot
// holding it (ChannelTable indexes queues by (src, dst)), so a Message is
// just the payload handle plus its cached fingerprint — 24 bytes, the unit
// the channel message blocks are sized in.
struct Message {
  MessagePtr payload;
  // payload->fingerprint(), computed once at enqueue
  // (ChannelTable::push) and carried with the message ever after — the
  // World's incremental state hash folds queues over these instead of
  // re-encoding payloads. 0 means "not yet computed" (a zero fingerprint
  // from fingerprint64 is one-in-2^64; push recomputes it harmlessly).
  std::uint64_t payload_fp = 0;
};

// Convenience factory: make_msg<AbdQuery>(args...) -> MessagePtr. The
// payload and its control block share one slab slot; the slot counts
// toward the World slab pages `--mem` caps (worldmem).
template <class T, class... Args>
MessagePtr make_msg(Args&&... args) {
  return std::allocate_shared<T>(SlabAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace memu
