// VisitedSet: deduplication over canonical World encodings.
//
// Storage is open addressing over raw 64-bit fingerprints — a flat
// power-of-two slot array probed linearly, no nodes, no buckets, no
// per-entry heap allocation. Opt-in exact mode additionally keeps every
// full encoding in a byte slab (slots carry an offset/length into it) for
// collision-paranoid runs: a fingerprint collision would silently merge
// two distinct states; at 64 bits the expected collision count for S
// states is ~S^2 / 2^65, and in exact mode colliding fingerprints are
// disambiguated by byte compare. The set is single-threaded, like the
// search that owns it.
//
// Memory: the slot table (and, in exact mode, the slab) starts small and
// doubles on demand. Options::mem, the run's --mem budget, only caps that
// growth: the set's ceiling is half of --mem, and the table or slab grows
// only while its old and new allocations together fit that share. An
// insert that needs growth past the ceiling CHECK-fails with a hint naming
// a --mem that gets past it. A budgeted set that stays under its ceiling
// holds exactly what the unbudgeted set of the same space holds.
// memory_bytes() is slots x slot width plus the slab bytes held — real
// table memory, not the old per-key estimate that ignored unordered_set
// node/bucket overhead.
//
// Membership-then-insert is a single operation: try_insert() probes the
// table once and reports whether the key was fresh, so the frontier's hot
// path has no contains()+insert() double lookup. contains() remains for
// tests and read-only queries.
#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/buffer.h"
#include "common/hash.h"

namespace memu::engine {

class VisitedSet {
 public:
  struct Options {
    bool exact = false;  // keep full encodings alongside fingerprints
    // The run's --mem budget. Unbounded (the default) grows on demand;
    // bounded, half of it is the set's growth ceiling (see header comment).
    MemBudget mem{};
  };

  explicit VisitedSet(const Options& opt);

  // Inserts `key`; returns true iff it was not already present (one table
  // probe). A fingerprint collision in non-exact mode reports a false
  // "already present"; see header comment.
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
  // mode) the encoding bytes the slab holds. Never above the --mem share.
  std::size_t memory_bytes() const;

 private:
  struct SlabRef {
    std::uint64_t offset = 0;
    std::uint32_t length = 0;
  };

  bool insert(std::uint64_t fp, const Bytes* key);
  bool find(std::uint64_t fp, const Bytes* key) const;
  void grow_table();
  void append_key(const Bytes& key);
  std::size_t table_bytes(std::size_t capacity) const;
  // CHECK-fails unless `bytes` more fit the share (always true
  // unbudgeted); `need` is the share that would fit the growth, for the
  // hint.
  void check_fits(std::size_t bytes, const char* what, std::size_t need) const;

  bool exact_;
  MemBudget mem_;
  std::size_t share_ = 0;  // byte ceiling, half of --mem; 0 = unbudgeted
  // fps_[i] holds the entry's fingerprint (kEmpty marks a free slot);
  // fps_.size() is the capacity, a power of two. A genuine all-zero
  // fingerprint is tracked by zero_present_ in fingerprint mode; exact mode
  // remaps it to 1 before probing, which is sound there because byte
  // comparison — not the fingerprint — decides equality. Exact mode adds a
  // parallel refs_ array locating each entry's encoding inside slab_.
  std::vector<std::uint64_t> fps_;
  std::vector<SlabRef> refs_;       // exact mode only
  std::vector<std::uint8_t> slab_;  // exact mode only: encoding bytes
  std::size_t entries_ = 0;
  bool zero_present_ = false;  // fingerprint mode: a state hashed to 0
};

}  // namespace memu::engine
