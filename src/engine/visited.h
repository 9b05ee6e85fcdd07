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
// Memory: every shard's slot table (and, in exact mode, its slab) starts
// small and doubles on demand. Options::mem, the run's --mem budget, only
// caps that growth: the set's ceiling is half of --mem, split evenly over
// the shards, and a shard grows only while its old and new allocations
// together fit its share. An insert that needs growth past the ceiling
// CHECK-fails with a hint naming a --mem that gets past it. A budgeted set
// that stays under its ceiling holds exactly what the unbudgeted set of
// the same space holds. memory_bytes() is slots x slot width plus the slab
// bytes held — real table memory, not the old per-key estimate that
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
    // The run's --mem budget. Unbounded (the default) grows on demand;
    // bounded, half of it is the set's growth ceiling (see header comment).
    MemBudget mem{};
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

  // Bytes backing the set: slot-table capacity x slot width, plus (exact
  // mode) the encoding bytes the slabs hold. Never above the --mem share.
  std::size_t memory_bytes() const;

  // Internal layout; public only so the implementation's file-local
  // helpers (and layout-pinning tests) can name it.
  // One open-addressed shard. fps[i] holds the entry's fingerprint
  // (kEmpty marks a free slot); fps.size() is the capacity, a power of
  // two. A genuine all-zero fingerprint is tracked by the zero_present flag
  // in fingerprint mode; exact mode remaps it to 1 before probing, which is
  // sound there because byte comparison — not the fingerprint — decides
  // equality. Exact mode adds a parallel refs[] array locating each
  // entry's encoding inside the shard's slab.
  struct Shard {
    static constexpr std::uint64_t kEmpty = 0;

    struct SlabRef {
      std::uint64_t offset = 0;
      std::uint32_t length = 0;
    };

    mutable std::mutex mu;
    std::vector<std::uint64_t> fps;
    std::vector<SlabRef> refs;       // exact mode only
    std::vector<std::uint8_t> slab;  // exact mode only: encoding bytes
    std::size_t entries = 0;
    bool zero_present = false;  // fingerprint mode: a state hashed to 0
  };

 private:
  Shard& shard_for(std::uint64_t fp) const {
    return *shards_[fp % shards_.size()];
  }

  bool insert_locked(Shard& s, std::uint64_t fp, const Bytes* key);
  bool contains_locked(const Shard& s, std::uint64_t fp,
                       const Bytes* key) const;
  void grow_table(Shard& s);
  void append_key(Shard& s, const Bytes& key);
  std::size_t table_bytes(std::size_t capacity) const;
  // CHECK-fails unless `bytes` more fit the shard's share (always true
  // unbudgeted); `need` is the share that would fit the growth, for the
  // hint.
  void check_fits(const Shard& s, std::size_t bytes, const char* what,
                  std::size_t need) const;

  bool exact_;
  MemBudget mem_;
  std::size_t share_ = 0;  // per-shard byte ceiling; 0 = unbudgeted
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace memu::engine
