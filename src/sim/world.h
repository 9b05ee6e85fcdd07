// World: the complete state of the emulated distributed system at a point of
// an execution — processes, in-flight channel contents, crash/freeze status,
// the operation log, and a step counter.
//
// A World is logically deep-copyable. This mirrors the proof technique of
// the paper: "extend execution alpha from point P" becomes "clone the World
// at P and keep stepping the clone". Physically a copy is copy-on-write:
// per-process state, channel queues, and the oplog sit behind shared blocks
// that deep-copy only when one side mutates, so World(const World&) is
// O(#processes) pointer bumps — the explorer and the valency probes fork
// Worlds once per transition and would otherwise pay a full clone each time.
// Scheduling is external (see scheduler.h): the World only exposes what is
// deliverable and applies chosen steps, so an adversary has full control of
// asynchrony.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/nodeset.h"
#include "common/small_vec.h"
#include "common/rng.h"
#include "sim/channel_table.h"
#include "sim/message.h"
#include "sim/oplog.h"
#include "sim/process.h"
#include "sim/state_hash.h"
#include "sim/trace.h"

namespace memu {

class World {
 public:
  World() = default;

  // Logically a deep copy; physically shares process, channel, and oplog
  // blocks with `other` until either side mutates them (message payloads
  // are immutable and always shared). Crash/freeze sets, trace, and
  // counters are copied eagerly — they are flat and cheap. Assignment
  // copies member by member, so the target's vectors keep their capacity:
  // a World assigned over and over (the explorer's per-worker scratch
  // World) stops allocating once it has held the largest state.
  World(const World& other);
  World& operator=(const World& other);
  World(World&&) = default;
  World& operator=(World&&) = default;

  // Empties this World: every shared block it references is released, and
  // its vectors keep their capacity for the next assignment. The explorer
  // clears a retired parent record this way, so the record neither pins
  // blocks that live Worlds share (which would force needless COW
  // detaches) nor gives up its storage.
  void clear();

  // --- topology -----------------------------------------------------------

  // Adds a process and returns its id. Ids are assigned densely from 0.
  // The World stores a slab-allocated COPY of `p` (clone_into) and the
  // argument dies here — callers that need a handle to the live process
  // must re-fetch it via process(id) after adding.
  NodeId add_process(std::unique_ptr<Process> p);

  std::size_t process_count() const { return processes_.size(); }

  // Mutable access detaches the process from any sharing World copies
  // (COW); use the const overload for read-only inspection.
  Process& process(NodeId id);
  const Process& process(NodeId id) const;

  // Ids of all server processes, in id order.
  std::vector<NodeId> server_ids() const;

  // --- failures and adversarial control ------------------------------------

  // Crash-stop a node: it takes no further steps; messages addressed to it
  // are silently dropped when delivered; its in-flight outgoing messages
  // remain deliverable (they were already on the channel).
  void crash(NodeId id);
  bool is_crashed(NodeId id) const { return crashed_.contains(id); }

  // Un-crash a node. Its process state is whatever it was at crash time;
  // messages dropped while crashed stay lost (equivalent to channel loss to
  // a slow-but-correct node, which the quorum protocols tolerate for
  // safety). The fuzzer's crash/recover fault mix counts the f budget over
  // CONCURRENTLY crashed servers, so recovery frees budget.
  void recover(NodeId id) { toggle(crashed_.erase(id), statehash::kCrashedSeed, id); }

  // Freeze a node: messages to and from it are delayed indefinitely (the
  // paper's "all messages from and to the writer are delayed indefinitely").
  // Unlike a crash, nothing is dropped; unfreeze resumes delivery.
  void freeze(NodeId id) { toggle(frozen_.insert(id), statehash::kFrozenSeed, id); }
  void unfreeze(NodeId id) { toggle(frozen_.erase(id), statehash::kFrozenSeed, id); }
  bool is_frozen(NodeId id) const { return frozen_.contains(id); }

  // Value-block a node: its channels deliver only value-INDEPENDENT
  // messages (queries, acks, finalizes); value-dependent ones are delayed
  // indefinitely. This is the paper's Definition of (j, C0)-valency in
  // Section 6: writers outside C0 "do not send any value-dependent
  // messages, [and] the channels from [them] do not deliver any
  // value-dependent messages" — while their metadata traffic still flows.
  void value_block(NodeId id) {
    toggle(value_blocked_.insert(id), statehash::kValueBlockedSeed, id);
  }
  void value_unblock(NodeId id) {
    toggle(value_blocked_.erase(id), statehash::kValueBlockedSeed, id);
  }
  bool is_value_blocked(NodeId id) const {
    return value_blocked_.contains(id);
  }

  // Bulk-block a node: its channels deliver everything except
  // Theta(log|V|)-sized value messages (MessagePayload::value_bulk). The
  // relaxation of value-blocking used by the Section 6.5 conjecture
  // harness: hashes and other o(log|V|) value-dependent metadata still
  // flow; coded elements and full values do not.
  void bulk_block(NodeId id) {
    toggle(bulk_blocked_.insert(id), statehash::kBulkBlockedSeed, id);
  }
  void bulk_unblock(NodeId id) {
    toggle(bulk_blocked_.erase(id), statehash::kBulkBlockedSeed, id);
  }
  bool is_bulk_blocked(NodeId id) const { return bulk_blocked_.contains(id); }

  // --- network partition ----------------------------------------------------
  // A partition splits the nodes into the `partition_group` and its
  // complement: while the group is non-empty, channels CROSSING the
  // boundary deliver nothing (in either direction); channels within a side
  // are unaffected. This is the classic two-sided network partition the
  // fuzzer injects — unlike freeze, a partitioned node keeps exchanging
  // messages with its own side.

  void partition_add(NodeId id) {
    toggle(partition_.insert(id), statehash::kPartitionSeed, id);
  }
  void heal_partition() {
    for (const NodeId id : partition_)
      sets_hash_ ^= statehash::member(statehash::kPartitionSeed, id.value);
    partition_.clear();
  }
  bool in_partition(NodeId id) const { return partition_.contains(id); }

  // --- channels ------------------------------------------------------------

  void enqueue(ChannelId chan, MessagePtr payload);

  // Channels with at least one message whose delivery is currently allowed
  // (dst not crashed; neither endpoint frozen). Deterministic order.
  std::vector<ChannelId> deliverable_channels() const;

  // Calls fn(chan, first_index) for each channel deliverable_channels()
  // lists, in the same order, where first_index is what
  // first_deliverable_index(chan) returns — without building the vector
  // or looking the queue up twice. `fn` must not mutate this World.
  template <class Fn>
  void for_each_deliverable(Fn&& fn) const {
    channels_.for_each_nonempty(
        [&](ChannelId chan, const ChannelTable::Queue& queue) {
          const std::size_t index = first_allowed_index(chan, queue);
          if (index != kNoIndex) fn(chan, index);
        });
  }

  // Whether any message is deliverable.
  bool has_deliverable() const;

  // Number of messages pending on a channel.
  std::size_t channel_depth(ChannelId chan) const;

  // Total number of in-flight messages (including blocked ones).
  std::size_t in_flight() const;

  // Read-only view of the channel table: queued messages with the
  // fingerprints cached at enqueue (tests check those against fresh
  // encodings).
  const ChannelTable& channels() const { return channels_; }

  // Non-empty channels and their depths, in canonical (src, dst) order —
  // including channels whose delivery is currently blocked. The fuzz
  // injector picks drop/duplicate/delay targets from this (a blocked
  // message can still be lost or duplicated by the network).
  std::vector<std::pair<ChannelId, std::size_t>> channel_contents() const;

  // Delivers the message at `index` on `chan` (0 = oldest). The destination
  // process reacts unless it is crashed (then the message is dropped) or its
  // delivery filter discards the message (Process::ignores). Freezing is a
  // scheduler-side restriction: delivering to a frozen node is a contract
  // violation, since deliverable_channels() excludes it.
  void deliver(ChannelId chan, std::size_t index = 0);

  // Delivers every message queued on `chan`, oldest first, including any
  // the deliveries themselves enqueue on it.
  void drain_channel(ChannelId chan) {
    while (channels_.depth(chan) > 0) deliver(chan);
  }

  // Delivers the oldest message on `chan` whose delivery the current
  // freeze/value-block state permits (for a value-blocked source, the
  // oldest value-independent message). Contract violation if none.
  void deliver_next_allowed(ChannelId chan);

  // First index on `chan` whose delivery the current crash/freeze/block
  // state permits, or kNoIndex (for_each_deliverable reports the same
  // index without a second lookup).
  std::size_t first_deliverable_index(ChannelId chan) const;

  // Every index on `chan` whose delivery the current freeze/block state
  // permits. The paper's channels are NOT FIFO: reordering adversaries and
  // the explorer's reorder mode enumerate these.
  std::vector<std::size_t> deliverable_indices(ChannelId chan) const;

  // --- fault-injection entry points -----------------------------------------
  // Used by the fuzz Injector (src/fuzz/injector.h). None of these count as
  // a delivery step; all keep the incremental state hash consistent.

  // Removes the message at `index` on `chan` without delivering it
  // (message loss).
  void drop_message(ChannelId chan, std::size_t index);

  // Re-enqueues a copy of the message at `index` on `chan` at the back of
  // the same channel (network duplication; the payload is immutable and
  // shared between the two in-flight copies).
  void duplicate_message(ChannelId chan, std::size_t index);

  // Moves the message at `index` on `chan` to the back of its queue. The
  // model's channels are not FIFO, so this changes no protocol guarantee —
  // only what FIFO-order schedulers see next (a delay/reorder fault).
  void delay_message(ChannelId chan, std::size_t index);

  // Appends an OpEvent::Kind::kFault marker to the oplog, tagging the point
  // of an injected fault between the surrounding operation events. The
  // consistency checkers and History::from_oplog skip fault events; fuzz
  // trace rendering uses them to locate faults within the history.
  void log_fault(const std::string& description);

  // --- invocations ----------------------------------------------------------

  // Delivers an external invocation to a client process.
  void invoke(NodeId client, Invocation inv);

  // --- bookkeeping ----------------------------------------------------------

  std::uint64_t step_count() const { return step_count_; }
  OpLog& oplog() { return oplog_; }
  const OpLog& oplog() const { return oplog_; }

  // Delivery tracing (off by default; cheap enough to leave on in tests).
  void enable_trace() { tracing_ = true; }
  const Trace& trace() const { return trace_; }

  std::uint64_t next_op_id() { return next_op_id_++; }

  // Sum of state_size() over all server processes: the paper's
  // TotalStorage at this point of the execution.
  StateBits total_server_storage() const;

  // Max of state_size().total() over servers: MaxStorage at this point.
  StateBits max_server_storage() const;

  // Max of state_size().value_bits over servers. The value-bit argmax
  // server may differ from the total-bit argmax (a metadata-heavy server
  // can dominate total()), so the meter tracks this measure separately.
  double max_server_value_bits() const;

  // Bits currently in flight on channels (for channel-occupancy ablations).
  StateBits channel_bits() const;

  // Canonical encoding of the complete logical state: process states,
  // channel contents (payloads via MessagePayload::encode_into), failure /
  // freeze / value-block sets, and the oplog WITHOUT absolute step stamps
  // (event order alone carries the precedence information). Two Worlds with
  // equal encodings behave identically under identical future schedules —
  // the deduplication key of the exact-mode explorer. Each call is a full
  // O(|state|) serialization (counted in cowstats::canonical_encodings);
  // fingerprint-mode exploration dedupes on state_hash() instead and never
  // calls this.
  Bytes canonical_encoding() const;

  // Same encoding, written into `out` (cleared; capacity kept). The
  // exact-dedupe hot path recycles one thread-local buffer through this
  // instead of allocating a fresh Bytes per visited state.
  void encode_canonical(Bytes& out) const;

  // encode_canonical() with every node id mapped through `map` (a full
  // permutation of 0..process_count()-1): processes appear in mapped-id
  // order and serialize via Process::write_state() under the map; channels
  // re-sort by mapped (src, dst); failure sets list sorted mapped ids;
  // oplog client ids map through. Byte-identical to encode_canonical()
  // under the identity permutation — the dedupe key of the explorer's
  // symmetry reduction (sim/symmetry.h). Counted as a canonical encoding
  // in cowstats.
  void encode_canonical_relabeled(const std::vector<std::uint32_t>& map,
                                  Bytes& out) const;

  // Order-sensitive folds of every channel queue as a process_count()^2
  // matrix indexed src * n + dst (a fixed constant for an empty channel),
  // written into `out`. Building block for symmetry signatures.
  void channel_queue_folds(std::vector<std::uint64_t>& out) const {
    channels_.queue_folds(out);
  }

  // Incremental 64-bit fingerprint of the complete logical state — the
  // same state canonical_encoding() serializes, but maintained Zobrist-
  // style in O(delta) per mutation: every component (process block,
  // channel queue, failure-set membership, oplog event) XORs a keyed hash
  // out of and into the running value when it changes (sim/state_hash.h).
  // Guarantees: equal canonical encodings => equal state_hash(), across
  // runs and machines (keys are deterministic); distinct states collide
  // with probability ~2^-64 per pair — the identical caveat to fingerprint
  // dedupe. Process components are flushed lazily: a mutated process is
  // marked dirty and re-encoded (O(|that process|)) at the next call, so
  // the cost per explored transition is the touched process plus the
  // touched queues, never the whole World. Not thread-safe against
  // concurrent calls on the SAME World (it memoizes through mutable
  // fields); distinct Worlds, including COW copies of a shared base, are
  // independent.
  std::uint64_t state_hash() const;

  // O(|state|) from-scratch recomputation of state_hash() — the
  // differential-test oracle (and a debugging aid); NOT the hot path.
  std::uint64_t recompute_state_hash() const;

  // state_hash() of this World with every node id mapped through `map` (a
  // server permutation that is the identity on clients, as
  // symmetry::canonical_map returns) — the fingerprint-mode key of the
  // explorer's symmetry reduction. Folded from the components state_hash()
  // already maintains, with no World serialization: each process's
  // fingerprint is keyed at slot map[i] (a Process::Symmetry::kMapsIds
  // process re-encodes under the map; every other process reuses its
  // settled fingerprint), each queue's fold at its mapped endpoints, each
  // failure-set membership at its mapped id; the oplog names clients only
  // and contributes unchanged. Equals state_hash() under the identity map,
  // and equal encode_canonical_relabeled() bytes imply equal values.
  std::uint64_t relabeled_state_hash(
      const std::vector<std::uint32_t>& map) const;

  // The settled fingerprint of process `id`'s encode_state() — the value
  // state_hash() folds in for it (flushing first if the process is dirty).
  std::uint64_t process_fingerprint(NodeId id) const {
    flush_proc_hashes();
    return proc_fp_[id.value];
  }

 private:
  friend class Context;

  // The delivery predicate, written once. held_bits(chan) is the set of
  // value-class bits that hold a message on `chan` back —
  // MessagePayload::kDependentBit while the sender is value-blocked,
  // kBulkBit while it is bulk-blocked — or kClosed while the channel
  // delivers nothing (either end frozen, or the partition cuts it).
  // admits() applies it to one message. A crashed destination is not a hold: deliver() drops the
  // message; the schedulers' view (first_allowed_index,
  // deliverable_indices) skips such channels.
  static constexpr std::uint8_t kClosed = 0xff;
  std::uint8_t held_bits(ChannelId chan) const;
  static bool admits(std::uint8_t held, const MessagePayload& msg) {
    return held != kClosed &&
           (static_cast<std::uint8_t>(msg.value_class()) & held) == 0;
  }

  // First deliverable index in `queue` under the current crash, freeze and
  // value-block state, or kNoIndex (shared constant in channel_table.h).
  std::size_t first_allowed_index(ChannelId chan,
                                  const ChannelTable::Queue& queue) const;

  // Whether an active partition separates the endpoints of `chan`.
  bool partition_blocks(ChannelId chan) const {
    return !partition_.empty() &&
           partition_.contains(chan.src) != partition_.contains(chan.dst);
  }

  // XORs the membership component of (seed, id) into the failure-set hash
  // iff the set actually changed (NodeSet::insert/erase report that).
  void toggle(bool changed, std::uint64_t seed, NodeId id) {
    if (changed) sets_hash_ ^= statehash::member(seed, id.value);
  }

  // Marks process `id` as needing a component recompute at the next
  // state_hash() call. Every mutating process access funnels through
  // mutable_process, which calls this.
  void mark_proc_dirty(NodeId id) const {
    proc_dirty_[id.value] = 1;
    any_proc_dirty_ = true;
  }

  // Re-encodes dirty processes and settles their components into
  // procs_hash_.
  void flush_proc_hashes() const;

  // XOR of the failure-set membership components with ids mapped through
  // `rank` (sets_hash_ recomputed from scratch under the identity).
  std::uint64_t sets_component(const NodeRelabeling& rank) const;

  // Serializes the complete canonical state into `w`.
  void encode_canonical_into(BufWriter& w) const;

  // The process at `id`, cloned off the shared block iff another World
  // still references it. All mutating paths (deliver, invoke, non-const
  // process()) go through here.
  Process& mutable_process(NodeId id);

  // The per-process vectors hold this many entries inline, so copying a
  // World of up to kInlineNodes processes allocates nothing for them.
  static constexpr std::size_t kInlineNodes = 8;

  // Processes are shared between World copies until one side mutates
  // (copy-on-write via mutable_process). Each block lives in a refcounted
  // slab slot (common/arena.h) sized to the concrete process, so a fork is
  // a header refcount bump and a detach is one pool allocation — no
  // shared_ptr control blocks, no per-clone malloc.
  SmallVec<SlabRef<Process>, kInlineNodes> processes_;
  ChannelTable channels_;   // dense (src, dst)-indexed message queues
  NodeSet crashed_;         // flat bitsets: hot-path membership + cheap copy
  NodeSet frozen_;
  NodeSet value_blocked_;
  NodeSet bulk_blocked_;
  NodeSet partition_;  // non-empty => cross-boundary channels are blocked
  OpLog oplog_;
  bool tracing_ = false;
  Trace trace_;
  std::uint64_t step_count_ = 0;
  std::uint64_t next_op_id_ = 1;

  // --- incremental state hash (see state_hash()) ---------------------------
  // Failure-set membership components, updated eagerly (O(1) per toggle).
  std::uint64_t sets_hash_ = 0;
  // XOR of the settled per-process components; proc_fp_[i] is the raw
  // fingerprint64(encode_state()) whose component (statehash::component at
  // slot i) is currently folded in for process i — raw, so the symmetry key
  // can re-key it at a relabeled slot — and proc_dirty_[i] flags a mutated
  // process whose fingerprint is stale. Mutable: state_hash() is logically
  // const but memoizes the flush. A byte vector (not vector<bool>) so
  // flushing scans flat storage.
  mutable std::uint64_t procs_hash_ = 0;
  mutable SmallVec<std::uint64_t, kInlineNodes> proc_fp_;
  mutable SmallVec<std::uint8_t, kInlineNodes> proc_dirty_;
  mutable bool any_proc_dirty_ = false;
};

}  // namespace memu
