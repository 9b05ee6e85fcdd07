// ChannelTable: dense per-(src, dst) storage for in-flight messages, with
// copy-on-write message blocks.
//
// The World used to keep channels in a std::map<ChannelId, std::deque>,
// which meant a tree walk per deliverability query and a node-allocating
// rebuild on every deep copy. The table flattens that: slot src * n + dst
// holds a contiguous message block, and a sorted index of non-empty slots
// preserves the deterministic (src, dst) iteration order the round-robin
// scheduler and the canonical encoding rely on.
//
// A slot is a MsgQueue: a [begin, end) VIEW over a persistent CHAIN of
// refcounted slab blocks of Messages (common/arena.h), newest block first —
// the same shape as the oplog's chunk chain. Sharing a queue between copied
// tables is one refcount bump, and — unlike the previous shared_ptr<vector>
// design, which deep-copied the whole vector on the first push or pop after
// a fork — NO mutation in a FIFO execution copies message bytes:
//   - popping the front (every FIFO delivery) advances begin_ in the view;
//   - popping the back drops end_ (releasing head blocks the view no
//     longer reaches);
//   - appending claims the head block's next uninitialized slot via a CAS
//     on its `constructed` counter, writing in place — sibling views end
//     before the new slot and never see it;
//   - when the CAS loses (a sibling fork already claimed the slot) or the
//     head block is full, a fresh block is CHAINED in front of the frozen
//     one — zero bytes moved, exactly like a sharing-forced oplog chunk.
// A copy is materialized only when a middle message is removed
// (reorder/drop faults re-home the survivors into one fresh block). That
// is what takes cow_bytes_per_state from ~610 to under 200 on the explore
// bench.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/hash.h"
#include "sim/cow_stats.h"
#include "sim/message.h"
#include "sim/state_hash.h"

namespace memu {

// Shared "no such index" sentinel for in-channel message positions (was
// three separate constexpr npos definitions inside world.cpp).
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

// One channel's pending messages: a view over a persistent chain of shared
// slab blocks (newest first, linked through `prev` like the oplog's
// chunks). Each block covers logical indices [base, base + capacity);
// slots [0, constructed) hold live Messages and are immutable once
// written; `constructed` only grows. Every view satisfies
// begin_ <= end_, reads nothing past its own end_, and mutates a block
// only by claiming the slot at its own end_ (the CAS makes concurrent
// sibling claims safe: the loser chains a fresh block instead).
class MsgQueue {
 public:
  using value_type = Message;

  // Logical-index iterator: element access walks the block chain from the
  // newest block, so iteration costs O(depth * chain length). Chains stay
  // as short as the fork pattern that produced them (usually 1-2 blocks),
  // and queues in these models are shallow, so this loses to a raw pointer
  // only by a predictable-branch block-bounds check per element.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Message;
    using difference_type = std::ptrdiff_t;
    using pointer = const Message*;
    using reference = const Message&;

    const_iterator() = default;
    const_iterator(const MsgQueue* q, std::size_t i) : q_(q), i_(i) {}

    reference operator*() const { return (*q_)[i_]; }
    pointer operator->() const { return &(*q_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const MsgQueue* q_ = nullptr;
    std::size_t i_ = 0;
  };

  MsgQueue() = default;

  std::size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }

  const Message& operator[](std::size_t i) const {
    const std::size_t idx = begin_ + i;
    const Block* c = head_.get();
    while (c->base > idx) c = c->prev.get();
    return c->slots()[idx - c->base];
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  void push_back(Message msg) {
    if (head_ && end_ - head_->base < head_->capacity) {
      const std::uint32_t slot =
          static_cast<std::uint32_t>(end_ - head_->base);
      std::uint32_t expected = slot;
      if (head_->constructed.compare_exchange_strong(
              expected, slot + 1, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        new (head_->slots() + slot) Message(std::move(msg));
        ++end_;
        return;
      }
      // A sibling fork already claimed the slot: the block is frozen for
      // this view, and a fresh block is chained in front of it — zero
      // message bytes move (metered as a 0-byte detach, like a
      // sharing-forced oplog chain).
      cowstats::note_queue_detach(0);
    }
    chain_block();
    new (head_->slots()) Message(std::move(msg));
    head_->constructed.store(1, std::memory_order_release);
    ++end_;
  }

  // Removes and returns the message at `index`. Front and back removals
  // adjust the view; only a middle removal re-homes the survivors.
  Message pop(std::size_t index) {
    MEMU_CHECK(index < size());
    Message out = (*this)[index];
    if (index == 0) {
      ++begin_;
    } else if (begin_ + index + 1 == end_) {
      --end_;
      // Release head blocks the shrunk view no longer reaches.
      while (head_ && end_ <= head_->base) {
        SlabRef<Block> p = head_->prev;
        head_ = std::move(p);
      }
    } else {
      detach(index);
    }
    if (begin_ == end_) clear();
    return out;
  }

  void clear() {
    head_.reset();
    begin_ = end_ = 0;
  }

 private:
  struct Block {
    Block(std::uint32_t cap, std::size_t base_index)
        : capacity(cap), base(base_index) {}
    ~Block() {
      Message* s = slots();
      const std::uint32_t n = constructed.load(std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < n; ++i) s[i].~Message();
    }
    Message* slots() { return reinterpret_cast<Message*>(this + 1); }
    const Message* slots() const {
      return reinterpret_cast<const Message*>(this + 1);
    }

    SlabRef<Block> prev;      // older messages; immutable once chained
    const std::uint32_t capacity;
    std::atomic<std::uint32_t> constructed{0};
    const std::size_t base;   // logical index of slots()[0]
  };
  static_assert(sizeof(Block) % alignof(Message) == 0,
                "messages start straight after the block header");

  static constexpr std::uint32_t kInitialCapacity = 4;
  // Chained blocks double up to this cap, bounding both slab waste from a
  // deep queue and the chain length operator[] walks.
  static constexpr std::uint32_t kMaxCapacity = 64;

  static SlabRef<Block> make_block(std::uint32_t capacity,
                                   std::size_t base_index) {
    void* mem =
        local_pool().alloc(sizeof(Block) + capacity * sizeof(Message));
    return SlabRef<Block>::adopt(new (mem) Block(capacity, base_index));
  }

  // Freezes the current head (if any) and chains a fresh empty block in
  // front of it, covering logical indices from end_ on.
  void chain_block() {
    const std::uint32_t cap =
        head_ ? std::min(head_->capacity * 2, kMaxCapacity)
              : kInitialCapacity;
    SlabRef<Block> b = make_block(cap, end_);
    b->prev = std::move(head_);
    head_ = std::move(b);
  }

  // Middle removal: copies the survivors into one fresh exclusive block —
  // the only path that materializes message bytes, and the one cowstats
  // meters with a non-zero byte count.
  void detach(std::size_t skip) {
    const std::uint32_t n = static_cast<std::uint32_t>(size());
    const std::uint32_t survivors = n - 1;
    std::uint32_t cap = kInitialCapacity;
    while (cap < survivors) cap *= 2;
    SlabRef<Block> fresh = make_block(cap, 0);
    Message* dst = fresh->slots();
    std::uint32_t m = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (i == skip) continue;
      new (dst + m++) Message((*this)[i]);
    }
    fresh->constructed.store(m, std::memory_order_release);
    cowstats::note_queue_detach(std::uint64_t{survivors} * sizeof(Message));
    head_ = std::move(fresh);
    begin_ = 0;
    end_ = m;
  }

  // Newest block of the chain this view can reach; invariant
  // head_->base <= end_ whenever the view is non-empty.
  SlabRef<Block> head_;
  std::size_t begin_ = 0;  // logical index of the first live message
  std::size_t end_ = 0;    // logical index one past the last live message
};

class ChannelTable {
 public:
  using Queue = MsgQueue;

  // Grows the table to hold n * n directed channels. Existing messages are
  // re-slotted; relative (src, dst) order is preserved.
  void resize_nodes(std::size_t n) {
    if (n <= nodes_) return;
    std::vector<MsgQueue> grown(n * n);
    std::vector<std::uint32_t> active;
    active.reserve(active_.size());
    for (const std::uint32_t slot : active_) {
      const std::uint32_t src = slot / static_cast<std::uint32_t>(nodes_);
      const std::uint32_t dst = slot % static_cast<std::uint32_t>(nodes_);
      const std::uint32_t re = src * static_cast<std::uint32_t>(n) + dst;
      grown[re] = std::move(slots_[slot]);
      active.push_back(re);  // src-major order is preserved by re-slotting
    }
    slots_ = std::move(grown);
    active_ = std::move(active);
    nodes_ = n;
  }

  std::size_t node_count() const { return nodes_; }

  void push(ChannelId chan, Message msg) {
    // The payload fingerprint is computed exactly once per send — queue
    // hash folds and the World's incremental state hash reuse it for the
    // message's whole in-flight lifetime (including across COW copies).
    if (msg.payload_fp == 0) msg.payload_fp = msg.payload->fingerprint();
    const std::size_t slot = slot_of(chan);
    MsgQueue& q = slots_[slot];
    if (q.empty()) {
      activate(static_cast<std::uint32_t>(slot));
    } else {
      content_hash_ ^= slot_component(chan, q);
    }
    q.push_back(std::move(msg));
    content_hash_ ^= slot_component(chan, q);
  }

  // Removes and returns the message at `index` on `chan`.
  Message pop(ChannelId chan, std::size_t index) {
    const std::size_t slot = slot_of(chan);
    MsgQueue& q = slots_[slot];
    MEMU_CHECK(index < q.size());
    content_hash_ ^= slot_component(chan, q);
    Message msg = q.pop(index);
    if (q.empty()) {
      deactivate(static_cast<std::uint32_t>(slot));
    } else {
      content_hash_ ^= slot_component(chan, q);
    }
    return msg;
  }

  // Incremental 64-bit hash of the full channel contents: XOR over
  // non-empty channels of a keyed fold of their message fingerprints, in
  // queue order. Maintained in O(queue depth) per push/pop; a component of
  // World::state_hash(). Keys depend on (src, dst), not the slot index, so
  // resize_nodes() leaves the hash unchanged.
  std::uint64_t content_hash() const { return content_hash_; }

  // O(total payload bytes) from-scratch recomputation — the differential-
  // test oracle for the incremental hash. Deliberately re-encodes every
  // payload instead of trusting the cached per-message fingerprints, so a
  // stale or miscomputed cache shows up as a mismatch.
  std::uint64_t recompute_content_hash() const {
    std::uint64_t h = 0;
    for_each_nonempty([&h](ChannelId chan, const Queue& q) {
      std::uint64_t fold = statehash::kQueueFoldSeed;
      for (const Message& m : q)
        fold = mix64(fold ^ fingerprint64(m.payload->encode()));
      h ^= mix64(statehash::chan_key(chan.src.value, chan.dst.value) ^ fold);
    });
    return h;
  }

  // Non-empty queue for `chan`, or nullptr.
  const Queue* find(ChannelId chan) const {
    if (chan.src.value >= nodes_ || chan.dst.value >= nodes_) return nullptr;
    const MsgQueue& q = slots_[chan.src.value * nodes_ + chan.dst.value];
    return q.empty() ? nullptr : &q;
  }

  std::size_t depth(ChannelId chan) const {
    const Queue* q = find(chan);
    return q == nullptr ? 0 : q->size();
  }

  std::size_t nonempty_count() const { return active_.size(); }

  std::size_t total_messages() const {
    std::size_t n = 0;
    for (const std::uint32_t slot : active_) n += slots_[slot].size();
    return n;
  }

  // Visits non-empty channels in ascending (src, dst) order.
  template <class Fn>
  void for_each_nonempty(Fn&& fn) const {
    for (const std::uint32_t slot : active_) fn(chan_of(slot), slots_[slot]);
  }

  // Order-sensitive folds of every queue, as a node_count()^2 matrix
  // indexed src * n + dst (a fixed constant for an empty channel), written
  // into `out`. Symmetry canonicalization (sim/symmetry.cpp) builds its
  // per-server signatures from these without re-encoding payloads.
  void queue_folds(std::vector<std::uint64_t>& out) const {
    out.assign(slots_.size(), statehash::kQueueFoldSeed);
    for (const std::uint32_t slot : active_) {
      out[slot] = fold_queue(slots_[slot]);
    }
  }

  // content_hash() of this table with every node id mapped through `map`
  // (id -> id): each non-empty queue's fold re-keyed at its mapped
  // endpoints. Equal to content_hash() under the identity.
  template <class Map>
  std::uint64_t relabeled_content_hash(const Map& map) const {
    std::uint64_t h = 0;
    for (const std::uint32_t slot : active_) {
      const ChannelId chan = chan_of(slot);
      h ^= mix64(statehash::chan_key(map(chan.src), map(chan.dst)) ^
                 fold_queue(slots_[slot]));
    }
    return h;
  }

  ChannelId chan_of(std::uint32_t slot) const {
    return ChannelId{NodeId{slot / static_cast<std::uint32_t>(nodes_)},
                     NodeId{slot % static_cast<std::uint32_t>(nodes_)}};
  }

 private:
  // Order-sensitive fold of a queue's message fingerprints: each step
  // mixes, so [a, b] and [b, a] fold differently and the fold length is
  // implicit. O(depth) — refolded on every push/pop of the queue, using
  // the fingerprints cached at enqueue (no payload re-encode).
  static std::uint64_t fold_queue(const Queue& q) {
    std::uint64_t h = statehash::kQueueFoldSeed;
    for (const Message& m : q) h = mix64(h ^ m.payload_fp);
    return h;
  }

  static std::uint64_t slot_component(ChannelId chan, const Queue& q) {
    return mix64(statehash::chan_key(chan.src.value, chan.dst.value) ^
                 fold_queue(q));
  }

  std::size_t slot_of(ChannelId chan) const {
    MEMU_CHECK(chan.src.value < nodes_ && chan.dst.value < nodes_);
    return chan.src.value * nodes_ + chan.dst.value;
  }

  void activate(std::uint32_t slot) {
    const auto it = std::lower_bound(active_.begin(), active_.end(), slot);
    active_.insert(it, slot);
  }

  void deactivate(std::uint32_t slot) {
    const auto it = std::lower_bound(active_.begin(), active_.end(), slot);
    MEMU_CHECK(it != active_.end() && *it == slot);
    active_.erase(it);
  }

  std::size_t nodes_ = 0;
  std::vector<MsgQueue> slots_;        // nodes_^2 views, slot = src * n + dst
  std::vector<std::uint32_t> active_;  // sorted slots with pending messages
  std::uint64_t content_hash_ = 0;     // incremental; see content_hash()
};

}  // namespace memu
