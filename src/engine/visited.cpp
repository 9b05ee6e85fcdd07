#include "engine/visited.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/check.h"

namespace memu::engine {

namespace {

// Slot widths for memory accounting and the growth ceiling.
constexpr std::size_t kFpSlot = sizeof(std::uint64_t);
constexpr std::size_t kRefSlot = sizeof(VisitedSet::Shard::SlabRef);

// Every shard's slot table starts here and doubles on demand.
constexpr std::size_t kInitialCapacity = 256;

// Open addressing stays O(1) while occupancy <= 3/4; past it the shard
// doubles.
constexpr std::size_t load_limit(std::size_t capacity) {
  return capacity - capacity / 4;
}

// Probe start. Fingerprints are already mixed (fingerprint64 /
// World::state_hash), but the shard index consumed their low bits via
// `fp % shards`; remixing decorrelates the probe sequence from the shard
// split.
inline std::size_t probe_start(std::uint64_t fp, std::size_t capacity) {
  return static_cast<std::size_t>(mix64(fp)) & (capacity - 1);
}

// Exact mode reserves the kEmpty slot value; byte comparison decides
// equality there, so folding a genuine 0 fingerprint into 1 is sound.
inline std::uint64_t exact_slot_fp(std::uint64_t fp) {
  return fp == VisitedSet::Shard::kEmpty ? 1 : fp;
}

// The --mem that gives `shards` shards a `share`-byte ceiling each (the
// set takes half of --mem).
std::string mem_hint(std::size_t share, std::size_t shards) {
  return MemBudget::rounded_up(2 * share * shards).to_string();
}

}  // namespace

VisitedSet::VisitedSet(const Options& opt)
    : exact_(opt.exact), mem_(opt.mem) {
  const std::size_t n = opt.shards == 0 ? 1 : opt.shards;
  share_ = mem_.total / 2 / n;
  MEMU_CHECK_MSG(!mem_.bounded() || table_bytes(kInitialCapacity) <= share_,
                 "visited set cannot fit its first "
                     << kInitialCapacity << "-slot table in the " << share_
                     << " B shard share of --mem " << mem_.to_string()
                     << " (" << n << " shard(s)); rerun with --mem >= "
                     << mem_hint(table_bytes(kInitialCapacity), n));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->fps.assign(kInitialCapacity, Shard::kEmpty);
    if (exact_) s->refs.assign(kInitialCapacity, Shard::SlabRef{});
    shards_.push_back(std::move(s));
  }
}

std::size_t VisitedSet::table_bytes(std::size_t capacity) const {
  return capacity * (exact_ ? kFpSlot + kRefSlot : kFpSlot);
}

void VisitedSet::check_fits(const Shard& s, std::size_t bytes,
                            const char* what, std::size_t need) const {
  const std::size_t held = table_bytes(s.fps.size()) + s.slab.capacity();
  MEMU_CHECK_MSG(
      share_ == 0 || held + bytes <= share_,
      "visited set at its --mem ceiling: "
          << s.entries << " states fill " << s.fps.size() << " slots; a "
          << bytes << " B " << what << " next to the " << held
          << " B held passes the " << share_ << " B shard share of --mem "
          << mem_.to_string() << " (" << shards_.size()
          << " shard(s)); rerun with --mem >= "
          << mem_hint(need, shards_.size())
          << (exact_ ? " or switch to fingerprint dedupe" : ""));
}

void VisitedSet::grow_table(Shard& s) {
  // The old table lives until the rehash is done, so both must fit. A
  // rerun whose share is 3x the table plus the slab grows past this point.
  const std::size_t cap = s.fps.size();
  const std::size_t new_cap = cap * 2;
  check_fits(s, table_bytes(new_cap), "doubled slot table",
             3 * (table_bytes(cap) + s.slab.size()));
  std::vector<std::uint64_t> fps(new_cap, Shard::kEmpty);
  std::vector<Shard::SlabRef> refs(exact_ ? new_cap : 0);
  for (std::size_t i = 0; i < cap; ++i) {
    if (s.fps[i] == Shard::kEmpty) continue;
    std::size_t idx = probe_start(s.fps[i], new_cap);
    while (fps[idx] != Shard::kEmpty) idx = (idx + 1) & (new_cap - 1);
    fps[idx] = s.fps[i];
    if (exact_) refs[idx] = s.refs[i];
  }
  s.fps = std::move(fps);
  s.refs = std::move(refs);
}

void VisitedSet::append_key(Shard& s, const Bytes& key) {
  const std::size_t need = s.slab.size() + key.size();
  if (need > s.slab.capacity()) {
    // Grows as std::vector::insert would (to twice the size, or the need
    // if larger), but explicitly, so a budgeted slab stops at what its
    // share can hold while the old copy is still alive.
    std::size_t room = SIZE_MAX;
    if (share_ != 0)
      room = share_ - table_bytes(s.fps.size()) - s.slab.capacity();
    const std::size_t cap =
        std::max(need, std::min(2 * s.slab.size(), room));
    check_fits(s, cap, "encoding slab",
               3 * (table_bytes(s.fps.size()) + need));
    s.slab.reserve(cap);
  }
  s.slab.insert(s.slab.end(), key.begin(), key.end());
}

bool VisitedSet::insert_locked(Shard& s, std::uint64_t fp, const Bytes* key) {
  if (!exact_ && fp == Shard::kEmpty) {
    // The sentinel value cannot occupy a slot; a dedicated flag keeps a
    // genuine all-zero fingerprint from colliding with "free".
    if (s.zero_present) return false;
    s.zero_present = true;
    return true;
  }
  const std::uint64_t slot_fp = exact_ ? exact_slot_fp(fp) : fp;
  for (;;) {
    const std::size_t mask = s.fps.size() - 1;
    std::size_t idx = probe_start(slot_fp, s.fps.size());
    for (;;) {
      const std::uint64_t have = s.fps[idx];
      if (have == Shard::kEmpty) break;
      if (have == slot_fp) {
        if (!exact_) return false;
        const Shard::SlabRef& ref = s.refs[idx];
        if (ref.length == key->size() &&
            std::memcmp(s.slab.data() + ref.offset, key->data(),
                        ref.length) == 0)
          return false;
        // Exact-mode fingerprint collision: different bytes, same slot
        // value — keep probing; the colliding key lives further down the
        // chain or in a free slot.
      }
      idx = (idx + 1) & mask;
    }
    if (s.entries + 1 <= load_limit(s.fps.size())) {
      if (exact_) {
        append_key(s, *key);
        s.refs[idx] = {s.slab.size() - key->size(),
                       static_cast<std::uint32_t>(key->size())};
      }
      s.fps[idx] = slot_fp;
      ++s.entries;
      return true;
    }
    grow_table(s);  // CHECK-fails at the --mem ceiling
  }
}

bool VisitedSet::contains_locked(const Shard& s, std::uint64_t fp,
                                 const Bytes* key) const {
  if (!exact_ && fp == Shard::kEmpty) return s.zero_present;
  const std::uint64_t slot_fp = exact_ ? exact_slot_fp(fp) : fp;
  const std::size_t mask = s.fps.size() - 1;
  std::size_t idx = probe_start(slot_fp, s.fps.size());
  for (;;) {
    const std::uint64_t have = s.fps[idx];
    if (have == Shard::kEmpty) return false;
    if (have == slot_fp) {
      if (!exact_) return true;
      const Shard::SlabRef& ref = s.refs[idx];
      if (ref.length == key->size() &&
          std::memcmp(s.slab.data() + ref.offset, key->data(), ref.length) ==
              0)
        return true;
    }
    idx = (idx + 1) & mask;
  }
}

bool VisitedSet::try_insert(const Bytes& key) {
  const std::uint64_t fp = fingerprint64(key);
  Shard& s = shard_for(fp);
  std::lock_guard<std::mutex> lock(s.mu);
  return insert_locked(s, fp, exact_ ? &key : nullptr);
}

bool VisitedSet::try_insert(std::uint64_t fp) {
  MEMU_CHECK_MSG(!exact_, "fingerprint insert into an exact-mode VisitedSet");
  Shard& s = shard_for(fp);
  std::lock_guard<std::mutex> lock(s.mu);
  return insert_locked(s, fp, nullptr);
}

bool VisitedSet::contains(const Bytes& key) const {
  const std::uint64_t fp = fingerprint64(key);
  const Shard& s = shard_for(fp);
  std::lock_guard<std::mutex> lock(s.mu);
  return contains_locked(s, fp, exact_ ? &key : nullptr);
}

bool VisitedSet::contains(std::uint64_t fp) const {
  MEMU_CHECK_MSG(!exact_, "fingerprint lookup in an exact-mode VisitedSet");
  const Shard& s = shard_for(fp);
  std::lock_guard<std::mutex> lock(s.mu);
  return contains_locked(s, fp, nullptr);
}

std::size_t VisitedSet::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += s->entries + (s->zero_present ? 1 : 0);
  }
  return n;
}

std::size_t VisitedSet::memory_bytes() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    n += table_bytes(s->fps.size()) + s->slab.size();
  }
  return n;
}

}  // namespace memu::engine
