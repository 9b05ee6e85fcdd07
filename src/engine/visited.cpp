#include "engine/visited.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/check.h"

namespace memu::engine {

namespace {

// The free-slot marker.
constexpr std::uint64_t kEmpty = 0;

// The slot table starts here and doubles on demand.
constexpr std::size_t kInitialCapacity = 256;

// Open addressing stays O(1) while occupancy <= 3/4; past it the table
// doubles.
constexpr std::size_t load_limit(std::size_t capacity) {
  return capacity - capacity / 4;
}

// Probe start. Fingerprints are already mixed (fingerprint64 /
// World::state_hash); remixing keeps the probe sequence independent of
// how the caller derived them.
inline std::size_t probe_start(std::uint64_t fp, std::size_t capacity) {
  return static_cast<std::size_t>(mix64(fp)) & (capacity - 1);
}

// Exact mode reserves the kEmpty slot value; byte comparison decides
// equality there, so folding a genuine 0 fingerprint into 1 is sound.
inline std::uint64_t exact_slot_fp(std::uint64_t fp) {
  return fp == kEmpty ? 1 : fp;
}

// The --mem that gives the set a `share`-byte ceiling (it takes half).
std::string mem_hint(std::size_t share) {
  return MemBudget::rounded_up(2 * share).to_string();
}

}  // namespace

VisitedSet::VisitedSet(const Options& opt)
    : exact_(opt.exact), mem_(opt.mem), share_(opt.mem.total / 2) {
  MEMU_CHECK_MSG(!mem_.bounded() || table_bytes(kInitialCapacity) <= share_,
                 "visited set cannot fit its first "
                     << kInitialCapacity << "-slot table in the " << share_
                     << " B share of --mem " << mem_.to_string()
                     << "; rerun with --mem >= "
                     << mem_hint(table_bytes(kInitialCapacity)));
  fps_.assign(kInitialCapacity, kEmpty);
  if (exact_) refs_.assign(kInitialCapacity, SlabRef{});
}

std::size_t VisitedSet::table_bytes(std::size_t capacity) const {
  return capacity *
         (sizeof(std::uint64_t) + (exact_ ? sizeof(SlabRef) : 0));
}

void VisitedSet::check_fits(std::size_t bytes, const char* what,
                            std::size_t need) const {
  const std::size_t held = table_bytes(fps_.size()) + slab_.capacity();
  MEMU_CHECK_MSG(
      share_ == 0 || held + bytes <= share_,
      "visited set at its --mem ceiling: "
          << entries_ << " states fill " << fps_.size() << " slots; a "
          << bytes << " B " << what << " next to the " << held
          << " B held passes the " << share_ << " B share of --mem "
          << mem_.to_string() << "; rerun with --mem >= " << mem_hint(need)
          << (exact_ ? " or switch to fingerprint dedupe" : ""));
}

void VisitedSet::grow_table() {
  // The old table lives until the rehash is done, so both must fit. A
  // rerun whose share is 3x the table plus the slab grows past this point.
  const std::size_t cap = fps_.size();
  const std::size_t new_cap = cap * 2;
  check_fits(table_bytes(new_cap), "doubled slot table",
             3 * (table_bytes(cap) + slab_.size()));
  std::vector<std::uint64_t> fps(new_cap, kEmpty);
  std::vector<SlabRef> refs(exact_ ? new_cap : 0);
  for (std::size_t i = 0; i < cap; ++i) {
    if (fps_[i] == kEmpty) continue;
    std::size_t idx = probe_start(fps_[i], new_cap);
    while (fps[idx] != kEmpty) idx = (idx + 1) & (new_cap - 1);
    fps[idx] = fps_[i];
    if (exact_) refs[idx] = refs_[i];
  }
  fps_ = std::move(fps);
  refs_ = std::move(refs);
}

void VisitedSet::append_key(const Bytes& key) {
  const std::size_t need = slab_.size() + key.size();
  if (need > slab_.capacity()) {
    // Grows as std::vector::insert would (to twice the size, or the need
    // if larger), but explicitly, so a budgeted slab stops at what its
    // share can hold while the old copy is still alive.
    std::size_t room = SIZE_MAX;
    if (share_ != 0)
      room = share_ - table_bytes(fps_.size()) - slab_.capacity();
    const std::size_t cap = std::max(need, std::min(2 * slab_.size(), room));
    check_fits(cap, "encoding slab", 3 * (table_bytes(fps_.size()) + need));
    slab_.reserve(cap);
  }
  slab_.insert(slab_.end(), key.begin(), key.end());
}

bool VisitedSet::insert(std::uint64_t fp, const Bytes* key) {
  if (!exact_ && fp == kEmpty) {
    // The sentinel value cannot occupy a slot; a dedicated flag keeps a
    // genuine all-zero fingerprint from colliding with "free".
    if (zero_present_) return false;
    zero_present_ = true;
    return true;
  }
  const std::uint64_t slot_fp = exact_ ? exact_slot_fp(fp) : fp;
  for (;;) {
    const std::size_t mask = fps_.size() - 1;
    std::size_t idx = probe_start(slot_fp, fps_.size());
    for (;;) {
      const std::uint64_t have = fps_[idx];
      if (have == kEmpty) break;
      if (have == slot_fp) {
        if (!exact_) return false;
        const SlabRef& ref = refs_[idx];
        if (ref.length == key->size() &&
            std::memcmp(slab_.data() + ref.offset, key->data(), ref.length) ==
                0)
          return false;
        // Exact-mode fingerprint collision: different bytes, same slot
        // value — keep probing; the colliding key lives further down the
        // chain or in a free slot.
      }
      idx = (idx + 1) & mask;
    }
    if (entries_ + 1 <= load_limit(fps_.size())) {
      if (exact_) {
        append_key(*key);
        refs_[idx] = {slab_.size() - key->size(),
                      static_cast<std::uint32_t>(key->size())};
      }
      fps_[idx] = slot_fp;
      ++entries_;
      return true;
    }
    grow_table();  // CHECK-fails at the --mem ceiling
  }
}

bool VisitedSet::find(std::uint64_t fp, const Bytes* key) const {
  if (!exact_ && fp == kEmpty) return zero_present_;
  const std::uint64_t slot_fp = exact_ ? exact_slot_fp(fp) : fp;
  const std::size_t mask = fps_.size() - 1;
  std::size_t idx = probe_start(slot_fp, fps_.size());
  for (;;) {
    const std::uint64_t have = fps_[idx];
    if (have == kEmpty) return false;
    if (have == slot_fp) {
      if (!exact_) return true;
      const SlabRef& ref = refs_[idx];
      if (ref.length == key->size() &&
          std::memcmp(slab_.data() + ref.offset, key->data(), ref.length) == 0)
        return true;
    }
    idx = (idx + 1) & mask;
  }
}

bool VisitedSet::try_insert(const Bytes& key) {
  return insert(fingerprint64(key), exact_ ? &key : nullptr);
}

bool VisitedSet::try_insert(std::uint64_t fp) {
  MEMU_CHECK_MSG(!exact_, "fingerprint insert into an exact-mode VisitedSet");
  return insert(fp, nullptr);
}

bool VisitedSet::contains(const Bytes& key) const {
  return find(fingerprint64(key), exact_ ? &key : nullptr);
}

bool VisitedSet::contains(std::uint64_t fp) const {
  MEMU_CHECK_MSG(!exact_, "fingerprint lookup in an exact-mode VisitedSet");
  return find(fp, nullptr);
}

std::size_t VisitedSet::size() const {
  return entries_ + (zero_present_ ? 1 : 0);
}

std::size_t VisitedSet::memory_bytes() const {
  return table_bytes(fps_.size()) + slab_.size();
}

}  // namespace memu::engine
