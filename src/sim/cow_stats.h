// Copy-on-write instrumentation for World snapshots.
//
// World copies are O(#processes) pointer bumps: per-process state, channel
// queues, and the oplog live behind shared immutable blocks that detach
// (deep-copy) only when a mutation hits a block another World still
// references. These process-wide counters record how often snapshots are
// taken and how many bytes the detaches actually materialize, so the
// explorer and proof-harness benches can report bytes-copied-per-state —
// the cost the COW refactor exists to shrink.
//
// Layout: the counters are per-thread. Every thread bumps its own
// cache-line-aligned block (single writer, so increments never contend or
// ping-pong a shared line between frontier workers — the telemetry no
// longer perturbs the parallel runs it measures), and snapshot() aggregates
// across a registry of every block ever created. Blocks are leaked on
// purpose: a finished worker's counts must keep contributing to the
// process-wide totals, and a block is 128 bytes. The fields stay relaxed
// atomics because snapshot()/reset() run concurrently with other threads'
// bumps; with one writer per block that costs nothing on x86 and keeps
// TSan clean. Counters are cumulative per process; benches reset() around
// the region they measure (while quiescent — reset() racing live workers
// yields torn-but-benign telemetry, never UB).
#pragma once

#include <atomic>
#include <cstdint>

namespace memu::cowstats {

// Snapshot of the counters (plain values, safe to copy around).
struct Snapshot {
  std::uint64_t world_copies = 0;     // World copy-constructions/assignments
  std::uint64_t process_detaches = 0; // Process::clone_into() on first write
  std::uint64_t queue_detaches = 0;   // message-block re-homes on first write
  // Sharing-forced oplog chunk chains. These copy ZERO bytes: the oplog is
  // a persistent chunk chain, so a shared head chunk is frozen in place and
  // a fresh chunk is linked in front of it (see sim/oplog.h).
  std::uint64_t oplog_detaches = 0;
  std::uint64_t bytes_copied = 0;     // bytes materialized by the detaches
  // Per-source split of bytes_copied (process clones vs message re-homes;
  // oplog chains are always 0-byte), so the benches can attribute the
  // copy traffic instead of reporting one opaque total.
  std::uint64_t process_bytes_copied = 0;
  std::uint64_t queue_bytes_copied = 0;
  // Full canonical_encoding() serializations. The incremental state hash
  // exists so the fingerprint-mode explorer performs ZERO of these per
  // node; tests and benches pin that via this counter.
  std::uint64_t canonical_encodings = 0;
  // Fuzz-walk scratch reuse: a campaign worker builds one prototype
  // FuzzSystem per spec from scratch (a `build`) and serves every further
  // walk on that spec from a COW copy of the prototype (a `reuse` — pointer
  // bumps instead of re-running process construction). The reuse:build
  // ratio is the allocation churn the prototype cache removes.
  std::uint64_t fuzz_system_builds = 0;
  std::uint64_t fuzz_system_reuses = 0;

  std::uint64_t detaches() const {
    return process_detaches + queue_detaches + oplog_detaches;
  }

  friend Snapshot operator-(Snapshot a, const Snapshot& b) {
    a.world_copies -= b.world_copies;
    a.process_detaches -= b.process_detaches;
    a.queue_detaches -= b.queue_detaches;
    a.oplog_detaches -= b.oplog_detaches;
    a.bytes_copied -= b.bytes_copied;
    a.process_bytes_copied -= b.process_bytes_copied;
    a.queue_bytes_copied -= b.queue_bytes_copied;
    a.canonical_encodings -= b.canonical_encodings;
    a.fuzz_system_builds -= b.fuzz_system_builds;
    a.fuzz_system_reuses -= b.fuzz_system_reuses;
    return a;
  }
};

namespace detail {

// One thread's counters: two cache lines (10 x 8-byte counters + the
// registry link), aligned so no two threads' hot fields share a line.
struct alignas(64) Block {
  std::atomic<std::uint64_t> world_copies{0};
  std::atomic<std::uint64_t> process_detaches{0};
  std::atomic<std::uint64_t> queue_detaches{0};
  std::atomic<std::uint64_t> oplog_detaches{0};
  std::atomic<std::uint64_t> bytes_copied{0};
  std::atomic<std::uint64_t> process_bytes_copied{0};
  std::atomic<std::uint64_t> queue_bytes_copied{0};
  std::atomic<std::uint64_t> canonical_encodings{0};
  std::atomic<std::uint64_t> fuzz_system_builds{0};
  std::atomic<std::uint64_t> fuzz_system_reuses{0};
  Block* next = nullptr;  // registry chain; set once at birth
};

inline std::atomic<Block*> registry_head{nullptr};

// This thread's block, created and chained into the registry on first use.
// Deliberately leaked (see the header comment).
inline Block& local() {
  thread_local Block* block = [] {
    auto* b = new Block();
    b->next = registry_head.load(std::memory_order_relaxed);
    while (!registry_head.compare_exchange_weak(b->next, b,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
    }
    return b;
  }();
  return *block;
}

// Aggregation visits every block ever registered; the acquire pairs with
// the registration release so a block's identity is fully visible.
template <class Fn>
inline void for_each_block(Fn&& fn) {
  for (Block* b = registry_head.load(std::memory_order_acquire); b != nullptr;
       b = b->next) {
    fn(*b);
  }
}

}  // namespace detail

inline void note_world_copy() {
  detail::local().world_copies.fetch_add(1, std::memory_order_relaxed);
}

inline void note_process_detach(std::uint64_t bytes) {
  detail::Block& b = detail::local();
  b.process_detaches.fetch_add(1, std::memory_order_relaxed);
  b.bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  b.process_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}

inline void note_queue_detach(std::uint64_t bytes) {
  detail::Block& b = detail::local();
  b.queue_detaches.fetch_add(1, std::memory_order_relaxed);
  b.bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
  b.queue_bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}

inline void note_oplog_detach(std::uint64_t bytes) {
  detail::Block& b = detail::local();
  b.oplog_detaches.fetch_add(1, std::memory_order_relaxed);
  b.bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}

inline void note_canonical_encoding() {
  detail::local().canonical_encodings.fetch_add(1, std::memory_order_relaxed);
}

inline void note_fuzz_system_build() {
  detail::local().fuzz_system_builds.fetch_add(1, std::memory_order_relaxed);
}

inline void note_fuzz_system_reuse() {
  detail::local().fuzz_system_reuses.fetch_add(1, std::memory_order_relaxed);
}

inline Snapshot snapshot() {
  Snapshot s;
  detail::for_each_block([&s](detail::Block& b) {
    s.world_copies += b.world_copies.load(std::memory_order_relaxed);
    s.process_detaches += b.process_detaches.load(std::memory_order_relaxed);
    s.queue_detaches += b.queue_detaches.load(std::memory_order_relaxed);
    s.oplog_detaches += b.oplog_detaches.load(std::memory_order_relaxed);
    s.bytes_copied += b.bytes_copied.load(std::memory_order_relaxed);
    s.process_bytes_copied +=
        b.process_bytes_copied.load(std::memory_order_relaxed);
    s.queue_bytes_copied +=
        b.queue_bytes_copied.load(std::memory_order_relaxed);
    s.canonical_encodings +=
        b.canonical_encodings.load(std::memory_order_relaxed);
    s.fuzz_system_builds +=
        b.fuzz_system_builds.load(std::memory_order_relaxed);
    s.fuzz_system_reuses +=
        b.fuzz_system_reuses.load(std::memory_order_relaxed);
  });
  return s;
}

inline void reset() {
  detail::for_each_block([](detail::Block& b) {
    b.world_copies.store(0, std::memory_order_relaxed);
    b.process_detaches.store(0, std::memory_order_relaxed);
    b.queue_detaches.store(0, std::memory_order_relaxed);
    b.oplog_detaches.store(0, std::memory_order_relaxed);
    b.bytes_copied.store(0, std::memory_order_relaxed);
    b.process_bytes_copied.store(0, std::memory_order_relaxed);
    b.queue_bytes_copied.store(0, std::memory_order_relaxed);
    b.canonical_encodings.store(0, std::memory_order_relaxed);
    b.fuzz_system_builds.store(0, std::memory_order_relaxed);
    b.fuzz_system_reuses.store(0, std::memory_order_relaxed);
  });
}

}  // namespace memu::cowstats
