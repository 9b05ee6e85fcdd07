// Process: the I/O-automaton-style node abstraction.
//
// A process reacts to message deliveries (on_message) and to external
// operation invocations (on_invoke, clients only). All effects go through
// the Context, which the World supplies per step. Processes must be
// deep-copyable via clone_into() — the adversary harness forks entire
// Worlds to probe hypothetical extensions of an execution, exactly like the
// paper's proofs extend an execution from a point. Forked Worlds share
// process blocks copy-on-write, so the copy runs not at fork time but on
// the first mutation of a shared process (World::mutable_process); it must
// therefore still copy ALL mutable state, and processes must not hold
// internal aliases that make a cloned copy observe the original.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/bits.h"
#include "common/buffer.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/nodeset.h"
#include "sim/message.h"
#include "sim/oplog.h"

namespace memu {

class World;

// Per-step effect interface handed to a process by the World.
class Context {
 public:
  Context(World& world, NodeId self) : world_(world), self_(self) {}

  NodeId self() const { return self_; }

  // Enqueue a message on the channel self -> dst.
  void send(NodeId dst, MessagePtr payload);

  // Broadcast to a set of nodes.
  template <class Range>
  void send_all(const Range& dsts, const MessagePtr& payload) {
    for (NodeId d : dsts) send(d, payload);
  }

  // Current world step count.
  std::uint64_t step() const;

  // Record an operation event (clients only).
  void log_op(OpEvent e);

  // Fresh operation id.
  std::uint64_t next_op_id();

  World& world() { return world_; }

 private:
  World& world_;
  NodeId self_;
};

// External invocation delivered to a client process.
struct Invocation {
  OpType type = OpType::kRead;
  Bytes value;  // write value; empty for reads
};

// Node-id relabeling used by symmetry canonicalization (sim/symmetry.h).
// Maps a node id to its canonical id. The map — when present — permutes
// SERVER ids within each role group and is the identity on every other id,
// so a process whose state embeds only client ids can relabel through it
// as a no-op. A default-constructed NodeRelabeling is the identity (what
// encode_state() passes to Process::write_state()).
class NodeRelabeling {
 public:
  NodeRelabeling() = default;
  explicit NodeRelabeling(const std::vector<std::uint32_t>* map)
      : map_(map) {}

  std::uint32_t operator()(NodeId id) const {
    if (map_ == nullptr || id.value >= map_->size()) return id.value;
    return (*map_)[id.value];
  }

 private:
  const std::vector<std::uint32_t>* map_ = nullptr;  // id -> canonical id
};

// A client's list of servers: set once at construction and never changed,
// so it sits in one shared immutable slab block and a COW detach of the
// client bumps a refcount instead of copying the vector.
using ServerList = SlabShared<std::vector<NodeId>>;

// Encodes a collection of node ids as u64 count + mapped ids in ascending
// MAPPED order — the relabel-stable framing for id-keyed sets (two sets
// equal up to the relabeling encode byte-equally). Under the identity
// relabeling of an already-sorted range this matches the common
// "u64 size + u32 ids in iteration order" hand-rolled encoding. Sorts in
// one per-thread buffer: this runs for every client on every state-hash
// flush and every symmetry key.
template <class Range>
inline void encode_relabeled_ids(const Range& ids, const NodeRelabeling& rank,
                                 BufWriter& w) {
  thread_local std::vector<std::uint32_t> mapped;
  mapped.clear();
  for (const NodeId id : ids) mapped.push_back(rank(id));
  std::sort(mapped.begin(), mapped.end());
  w.u64(mapped.size());
  for (const std::uint32_t v : mapped) w.u32(v);
}

class Process {
 public:
  virtual ~Process() = default;

  // Reaction to a delivered message.
  virtual void on_message(Context& ctx, NodeId from,
                          const MessagePayload& msg) = 0;

  // Reaction to an external invocation. Servers ignore this by default.
  virtual void on_invoke(Context& ctx, const Invocation& inv);

  // Deep copy (common/arena.h): the World keeps processes in refcounted
  // slab slots, so a COW detach placement-copies the concrete object into
  // a pool slot of exactly clone_footprint() bytes. Both are implemented
  // once by CloneableProcess; the copy constructor they invoke must copy
  // ALL mutable state.
  virtual std::size_t clone_footprint() const = 0;
  virtual Process* clone_into(void* mem) const = 0;

  // Current storage footprint of this process's state, split into value and
  // metadata bits. Only meaningful for servers (the paper's storage cost is
  // over servers), but defined for all processes.
  virtual StateBits state_size() const = 0;

  // Logical bytes a COW detach of this process materializes — what
  // cowstats::note_process_detach is metered with. The default bills the
  // full logical state, matching a clone that copies everything. Processes
  // that keep value payloads behind shared slab blocks (SlabShared) override
  // this to bill metadata only: their clone bumps a refcount per payload
  // instead of copying the bytes.
  virtual std::uint64_t detach_bytes() const {
    return static_cast<std::uint64_t>((state_size().total() + 7.0) / 8.0);
  }

  // The delivery filter: true when `msg` from `from` is to be discarded
  // unseen. World::deliver consumes such a message without calling
  // on_message, and so without the COW detach of the recipient and the
  // dirty-mark that would re-fingerprint it at the next state_hash(). The
  // result equals dropping the message. Nothing else calls on_message, so
  // a handler only ever sees messages its filter rejects and must not
  // re-check a condition the filter checks. Every client's filter is
  // RoundClient's stale-reply rule below; servers filter nothing.
  virtual bool ignores(NodeId /*from*/, const MessagePayload& /*msg*/) const {
    return false;
  }

  // Canonical encoding of the state, written into `w`; equal states encode
  // equally. Used by the adversary harness to compare server-state vectors
  // across executions, and fingerprinted into World::state_hash() — so it
  // must cover ALL state that distinguishes this process from a copy
  // (anything clone_into() copies), or the explorer would merge genuinely
  // distinct world states.
  //
  // A Symmetry::kMapsIds process (see symmetry() below) writes every
  // embedded SERVER id mapped through `rank` and sorts id-keyed
  // collections by mapped id (encode_relabeled_ids), so two states equal
  // up to a server relabeling encode byte-equally. Every other process
  // ignores `rank`. Under the identity relabeling (a default
  // NodeRelabeling) this is the plain encoding.
  virtual void write_state(BufWriter& w, const NodeRelabeling& rank) const = 0;

  // write_state() under the identity, as a fresh buffer.
  Bytes encode_state() const {
    BufWriter w;
    write_state(w, NodeRelabeling{});
    return std::move(w).take();
  }

  virtual std::string name() const = 0;

  // True for server processes (counted in storage cost).
  virtual bool is_server() const { return false; }

  // --- symmetry canonicalization (sim/symmetry.h) --------------------------
  // The explorer's symmetry reduction merges World states that differ only
  // by a permutation of interchangeable servers. For the merge to be sound,
  // EVERY process must encode its state with embedded server ids mapped
  // through the candidate relabeling — otherwise a client holding "acks
  // from {server 1}" would compare equal to one holding "acks from
  // {server 2}" after the channels were permuted, merging two states with
  // different futures.
  //
  // A process states what its audit found by overriding symmetry():
  //   kNone    — not audited (the default). One such process disables the
  //              reduction for the whole World; exploration stays sound,
  //              just unreduced.
  //   kIdFree  — the state embeds no SERVER ids (client ids are fine: the
  //              relabeling is the identity on them). encode_state() is
  //              then its own relabeled encoding, so the symmetry key
  //              reuses the fingerprint World::state_hash() already settled
  //              for it and never re-encodes it.
  //   kMapsIds — the state embeds server ids, and write_state() maps every
  //              one of them. Re-encoded under each candidate relabeling.
  // Either opt-in also certifies that the process treats interchangeable
  // servers interchangeably: a CAS client with a k >= 2 codec assigns a
  // DIFFERENT coded element per server, so it must stay kNone; with k == 1
  // every shard is the full value and server order is behaviorally
  // irrelevant.
  enum class Symmetry : std::uint8_t { kNone, kIdFree, kMapsIds };
  virtual Symmetry symmetry() const { return Symmetry::kNone; }

  NodeId id() const { return id_; }
  void set_id(NodeId id) { id_ = id; }

 private:
  NodeId id_;
};

// CRTP helper implementing clone_into() by copy construction.
template <class Derived>
class CloneableProcess : public Process {
 public:
  std::size_t clone_footprint() const override { return sizeof(Derived); }

  Process* clone_into(void* mem) const override {
    static_assert(alignof(Derived) <= alignof(std::max_align_t),
                  "slab slots are max_align_t-aligned");
    return new (mem) Derived(static_cast<const Derived&>(*this));
  }
};

// The base of every client. A client talks to servers in rounds, one per
// quorum phase: each round draws a fresh rid_ (next_round()), every request
// of the round carries it, and every reply echoes it. Each request kind has
// one reply type and a round sends one kind, so a reply to the open round
// is of the type that round awaits.
//
// The stale-reply rule, written once: a reply is stale when the client has
// no open round (Derived::idle()) or the reply answers another round
// (rid() != rid_). ignores() applies it, plus the one extra condition a
// family may add by defining a public `bool ignores_reply(const
// MessagePayload&) const` (the CAS and STRIP readers drop a read reply for
// a tag other than their target). A message that is not a reply
// (MessagePayload::is_reply) is always delivered.
template <class Derived>
class RoundClient : public CloneableProcess<Derived> {
 public:
  bool ignores(NodeId /*from*/, const MessagePayload& msg) const final {
    if (!msg.is_reply()) return false;
    const Derived& self = static_cast<const Derived&>(*this);
    return self.idle() || msg.rid() != rid_ || self.ignores_reply(msg);
  }

  // A family's extra condition on a reply to the open round: none here.
  bool ignores_reply(const MessagePayload& /*reply*/) const { return false; }

 protected:
  // Opens the next round and returns its rid. Payloads carry rids in 32
  // bits, so a client stops here rather than reuse one.
  std::uint32_t next_round() {
    MEMU_CHECK_MSG(rid_ < UINT32_MAX, "request ids exhausted");
    return ++rid_;
  }

  std::uint32_t rid_ = 0;  // the open round's id; the last round's when idle
};

}  // namespace memu
