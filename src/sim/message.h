// Messages exchanged over the emulated point-to-point channels.
//
// Payloads are immutable once sent: Worlds share them via shared_ptr<const>,
// which makes deep-copying a World (required by the adversary harness) cheap
// and safe. make_msg places each payload, with its control block, in one
// slot of the sending thread's slab pool (common/arena.h), so a send costs
// no heap allocation. Every payload reports its size in bits, split into
// value bits and metadata bits, so channel contents can participate in
// storage accounting.
//
// A payload's per-type constants are data in the base, set by its
// constructor: a one-byte kind naming the type within its family, and a
// flags byte with the value class (Definition 6.4) and the reply bit. A
// concrete type derives from Payload<kind, "name">, which states both once;
// handlers dispatch with msg.as<T>(), a kind compare and a static_cast.
// Kinds are unique within a family, not across families: one World runs
// one family, so a kind names one payload type in every World, and the
// canonical encoding writes the kind byte instead of the type name.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/arena.h"
#include "common/bits.h"
#include "common/buffer.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/ids.h"

namespace memu {

// What a message carries of the value being written: Definition 6.4 in the
// paper classes send actions as value-dependent or not, and the bulk class
// refines that by size. Each enumerator is a set of MessagePayload's
// kDependentBit and kBulkBit.
enum class ValueClass : std::uint8_t {
  // Value-independent: queries, acks, tag-only messages.
  kNone = 0,
  // Value-dependent but o(log|V|) bits, e.g. a hash sent for client
  // verification, as in the Byzantine algorithms the paper's Section 6.5
  // conjecture covers.
  kDigest = 1,
  // Theta(log|V|) bits of value information: coded elements, full values.
  kBulk = 3,
};

// Base class of all protocol messages.
class MessagePayload {
 public:
  virtual ~MessagePayload() = default;

  // Human-readable message type, e.g. "abd.store_req", for diagnostics
  // only (traces, aborts, test probes). Views static storage.
  virtual std::string_view type_name() const = 0;

  // Size of this message, split into value and metadata bits.
  virtual StateBits size_bits() const = 0;

  // Canonical content encoding: semantically equal messages must encode
  // equally, distinct ones differently — the explorer deduplicates World
  // states by these bytes, so every field goes in.
  virtual void encode_content(BufWriter& w) const = 0;

  // The flag bits behind value_dependent() and value_bulk().
  static constexpr std::uint8_t kDependentBit = 1;
  static constexpr std::uint8_t kBulkBit = 2;

  ValueClass value_class() const {
    return static_cast<ValueClass>(flags_ & (kDependentBit | kBulkBit));
  }
  bool value_dependent() const { return (flags_ & kDependentBit) != 0; }
  bool value_bulk() const { return (flags_ & kBulkBit) != 0; }
  // True for a server -> client reply (see RoundClient in sim/process.h).
  bool is_reply() const { return (flags_ & kReplyBit) != 0; }
  // The client round the message belongs to: a request carries its
  // round's id and a reply echoes it. 0 outside rounds.
  std::uint32_t rid() const { return rid_; }

  // This payload as a T, or null when it is another kind. T is a payload
  // type of the family whose World delivered the message.
  template <class T>
  const T* as() const {
    return kind_ == T::kKind ? static_cast<const T*>(this) : nullptr;
  }

  // Full canonical encoding (kind + content), appended to `w`.
  void encode_into(BufWriter& w) const {
    w.u8(kind_);
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

 protected:
  static constexpr std::uint8_t kReplyBit = 4;

  MessagePayload(std::uint8_t kind, std::uint8_t flags, std::uint32_t rid)
      : kind_(kind), flags_(flags), rid_(rid) {}

 private:
  // With the vptr, one 16-byte word: the rid sits in what would otherwise
  // be padding, so a rid-only payload and its control block fill a 32-byte
  // slab slot.
  std::uint8_t kind_;
  std::uint8_t flags_;
  std::uint32_t rid_;
};
static_assert(static_cast<std::uint8_t>(ValueClass::kDigest) ==
                  MessagePayload::kDependentBit &&
              static_cast<std::uint8_t>(ValueClass::kBulk) ==
                  (MessagePayload::kDependentBit | MessagePayload::kBulkBit));

// A string literal as a template argument: a payload type's name.
template <std::size_t N>
struct TypeName {
  constexpr TypeName(const char (&s)[N]) { std::copy_n(s, N, text); }
  char text[N];
};

// Payload's IsReply argument for a server -> client reply.
inline constexpr bool kReply = true;

// The base of a concrete payload type: its family kind K (an enumerator of
// the family's kind enum), its type_name() and whether it is a reply
// (kReply), stated once. Constructors take the rid (omitted outside
// rounds) and the value class (default kNone).
template <auto K, TypeName Name, bool IsReply = false>
struct Payload : MessagePayload {
  static constexpr std::uint8_t kKind = static_cast<std::uint8_t>(K);

  std::string_view type_name() const final {
    return {Name.text, sizeof(Name.text) - 1};
  }

 protected:
  explicit Payload(std::uint32_t rid, ValueClass value = ValueClass::kNone)
      : MessagePayload(kKind, flags(value), rid) {}
  explicit Payload(ValueClass value = ValueClass::kNone)
      : Payload(0, value) {}

 private:
  static constexpr std::uint8_t flags(ValueClass value) {
    return static_cast<std::uint8_t>(value) | (IsReply ? kReplyBit : 0);
  }
};

// The one abort for a message a handler has no case for: `who` is the
// receiving process's name.
[[noreturn]] inline void unexpected_message(std::string_view who,
                                            const MessagePayload& msg) {
  MEMU_UNREACHABLE(std::string(who) + " got unexpected message " +
                   std::string(msg.type_name()));
}

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
