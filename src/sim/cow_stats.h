// Copy-on-write instrumentation for World snapshots.
//
// World copies are O(#processes) pointer bumps: per-process state, channel
// queues, and the oplog live behind shared immutable blocks that detach
// (deep-copy) only when a mutation hits a block another World still
// references. These process-wide counters record how often snapshots are
// taken and how many bytes the detaches actually materialize, so the
// explorer bench and the proof-harness case tests can report the bytes
// copied per state or per fork — the cost the COW refactor exists to
// shrink.
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

// The counters, declared once; every per-counter definition below expands
// this list.
//   world_copies          World copy-constructions/assignments
//   process_detaches      Process::clone_into() on first write
//   queue_detaches        message-block re-homes on first write
//   oplog_detaches        sharing-forced oplog chunk chains. These copy ZERO
//                         bytes: the oplog is a persistent chunk chain, so a
//                         shared head chunk is frozen in place and a fresh
//                         chunk is linked in front of it (see sim/oplog.h).
//   bytes_copied          bytes materialized by the detaches, split by
//   process_bytes_copied  source (process clones vs message re-homes; oplog
//   queue_bytes_copied    chains are always 0-byte) so the benches can
//                         attribute the copy traffic.
//   canonical_encodings   full canonical_encoding() serializations. The
//                         incremental state hash exists so the
//                         fingerprint-mode explorer performs ZERO of these
//                         per node; tests and benches pin that here.
//   fuzz_system_builds    fuzz-walk scratch reuse: a campaign worker builds
//   fuzz_system_reuses    one prototype FuzzSystem per spec from scratch (a
//                         build) and serves every further walk on that spec
//                         from a COW copy of it (a reuse: pointer bumps
//                         instead of re-running process construction). The
//                         reuse:build ratio is the allocation churn the
//                         prototype cache removes.
#define MEMU_COWSTATS_COUNTERS(X) \
  X(world_copies)                 \
  X(process_detaches)             \
  X(queue_detaches)               \
  X(oplog_detaches)               \
  X(bytes_copied)                 \
  X(process_bytes_copied)         \
  X(queue_bytes_copied)           \
  X(canonical_encodings)          \
  X(fuzz_system_builds)           \
  X(fuzz_system_reuses)

// Snapshot of the counters (plain values, safe to copy around).
struct Snapshot {
#define MEMU_COWSTATS_FIELD(name) std::uint64_t name = 0;
  MEMU_COWSTATS_COUNTERS(MEMU_COWSTATS_FIELD)
#undef MEMU_COWSTATS_FIELD

  std::uint64_t detaches() const {
    return process_detaches + queue_detaches + oplog_detaches;
  }

  friend Snapshot operator-(Snapshot a, const Snapshot& b) {
#define MEMU_COWSTATS_SUB(name) a.name -= b.name;
    MEMU_COWSTATS_COUNTERS(MEMU_COWSTATS_SUB)
#undef MEMU_COWSTATS_SUB
    return a;
  }
};

namespace detail {

// One thread's counters: two cache lines (10 x 8-byte counters + the
// registry link), aligned so no two threads' hot fields share a line.
struct alignas(64) Block {
#define MEMU_COWSTATS_FIELD(name) std::atomic<std::uint64_t> name{0};
  MEMU_COWSTATS_COUNTERS(MEMU_COWSTATS_FIELD)
#undef MEMU_COWSTATS_FIELD
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
#define MEMU_COWSTATS_ADD(name) \
  s.name += b.name.load(std::memory_order_relaxed);
    MEMU_COWSTATS_COUNTERS(MEMU_COWSTATS_ADD)
#undef MEMU_COWSTATS_ADD
  });
  return s;
}

inline void reset() {
  detail::for_each_block([](detail::Block& b) {
#define MEMU_COWSTATS_ZERO(name) b.name.store(0, std::memory_order_relaxed);
    MEMU_COWSTATS_COUNTERS(MEMU_COWSTATS_ZERO)
#undef MEMU_COWSTATS_ZERO
  });
}

}  // namespace memu::cowstats
