// VisitedSet: deduplication over canonical World encodings.
//
// Storage is open addressing over raw 64-bit fingerprints — a flat
// power-of-two slot array probed linearly, no nodes, no buckets, no
// per-entry heap allocation. The set is sharded so concurrent frontier
// workers dedupe under per-shard mutexes instead of one global lock.
// Opt-in exact mode additionally keeps every full encoding in a per-shard
// byte slab (slots carry an offset/length into it) for collision-paranoid
// runs: a fingerprint collision would silently merge two distinct states;
// at 64 bits the expected collision count for S states is ~S^2 / 2^65, and
// in exact mode colliding fingerprints are disambiguated by byte compare.
//
// Memory contract (the mccortex shape): with Options::budget_bytes set,
// the slot tables and slabs are carved out of ONE pre-allocated
// common/arena.h Arena, capacity fitted to the budget up front — the set
// never allocates past the budget, and filling it beyond the load limit
// CHECK-fails with a sizing diagnostic in --mem terms instead of growing.
// Unbudgeted (budget_bytes == 0), tables start small and double on demand:
// the legacy grow-forever behavior. Either way memory_bytes() is EXACT —
// slots x slot width plus slab bytes — not the old per-key estimate that
// ignored unordered_set node/bucket overhead.
//
// Membership-then-insert is a single operation: try_insert() probes the
// table once and reports whether the key was fresh, so the frontier's hot
// path has no contains()+insert() double lookup and no lost-race branch.
// contains() remains for tests and read-only queries.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/buffer.h"
#include "common/hash.h"

namespace memu::engine {

// Visited-set shards for `threads` concurrent inserters: 1 when
// sequential; otherwise the next power of two of 8x the thread count
// (so ~1/8 expected contention per probe even if hashing is momentarily
// unbalanced), capped at 1024 to bound per-set fixed cost. The frontier
// sizes its visited set with this.
inline std::size_t auto_shard_count(std::size_t threads) {
  if (threads <= 1) return 1;
  return std::min<std::size_t>(std::bit_ceil(8 * threads), 1024);
}

class VisitedSet {
 public:
  struct Options {
    bool exact = false;      // keep full encodings alongside fingerprints
    std::size_t shards = 1;  // >1 for concurrent inserters
    // Hard memory cap in bytes; 0 = unbudgeted (grow on demand). Budgeted
    // sets fit their capacity to the budget at construction and CHECK-fail
    // with a sizing hint when the state space needs more.
    std::size_t budget_bytes = 0;
  };

  explicit VisitedSet(const Options& opt);

  // Inserts `key`; returns true iff it was not already present (one table
  // probe). Safe to call concurrently: for any set of racing inserters of
  // the same key, exactly one observes "fresh". A fingerprint collision in
  // non-exact mode reports a false "already present"; see header comment.
  bool try_insert(const Bytes& key);

  // Fingerprint-direct insert: the caller already holds the 64-bit state
  // fingerprint (World::state_hash()), so nothing is encoded or hashed
  // here. Fingerprint mode only (contract violation in exact mode — a raw
  // fingerprint cannot be compared against full encodings).
  bool try_insert(std::uint64_t fp);

  // Read-only membership (same probe; kept for tests and for paths that
  // must not insert, e.g. classifying cap-rejected states).
  bool contains(const Bytes& key) const;
  bool contains(std::uint64_t fp) const;  // fingerprint mode only

  std::size_t size() const;

  // EXACT bytes backing the set: slot-table capacity x slot width, plus
  // (exact mode) the encoding slab. This is real allocated memory, the
  // number a --mem budget is debited by — not a per-key estimate.
  std::size_t memory_bytes() const;

  // Internal layout; public only so the implementation's file-local
  // helpers (and layout-pinning tests) can name it.
  // One open-addressed shard. fps[i] holds the entry's fingerprint
  // (kEmpty marks a free slot). A genuine all-zero fingerprint is tracked
  // by the zero_present flag in fingerprint mode; exact mode remaps it to
  // 1 before probing, which is sound there because byte comparison — not
  // the fingerprint — decides equality. Exact mode adds a parallel refs[]
  // array locating each entry's encoding inside the shard's slab.
  struct Shard {
    static constexpr std::uint64_t kEmpty = 0;

    struct SlabRef {
      std::uint64_t offset = 0;
      std::uint32_t length = 0;
    };

    mutable std::mutex mu;
    std::uint64_t* fps = nullptr;
    SlabRef* refs = nullptr;  // exact mode only
    std::size_t capacity = 0;  // power of two
    std::size_t entries = 0;
    bool zero_present = false;  // fingerprint mode: a state hashed to 0

    std::uint8_t* slab = nullptr;  // exact mode: encoding bytes
    std::size_t slab_capacity = 0;
    std::size_t slab_used = 0;

    // Heap backing for the unbudgeted growth path; budgeted shards point
    // into the arena instead and leave these empty.
    std::vector<std::uint64_t> heap_fps;
    std::vector<SlabRef> heap_refs;
    std::vector<std::uint8_t> heap_slab;
  };

 private:
  Shard& shard_for(std::uint64_t fp) const {
    return *shards_[fp % shards_.size()];
  }

  bool insert_locked(Shard& s, std::uint64_t fp, const Bytes* key);
  bool contains_locked(const Shard& s, std::uint64_t fp,
                       const Bytes* key) const;
  void grow(Shard& s);
  void init_shard(Shard& s, std::size_t capacity, std::size_t slab_capacity);

  bool exact_;
  std::size_t budget_bytes_ = 0;
  std::optional<Arena> arena_;  // engaged iff budgeted
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace memu::engine
