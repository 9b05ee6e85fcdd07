#include "engine/visited.h"

#include <cstring>

#include "common/check.h"

namespace memu::engine {

namespace {

// Slot widths for exact memory accounting and budget fitting.
constexpr std::size_t kFpSlot = sizeof(std::uint64_t);
constexpr std::size_t kRefSlot = sizeof(VisitedSet::Shard::SlabRef);

// Smallest slot table a budgeted shard may be fitted with; below this the
// budget is rejected at construction instead of thrashing at runtime.
constexpr std::size_t kMinCapacity = 64;

// Unbudgeted shards start here and double on demand.
constexpr std::size_t kInitialCapacity = 256;

// Open addressing stays O(1) while occupancy <= 3/4; past it a budgeted
// shard fails loudly and an unbudgeted one doubles.
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

}  // namespace

VisitedSet::VisitedSet(const Options& opt)
    : exact_(opt.exact), budget_bytes_(opt.budget_bytes) {
  const std::size_t n = opt.shards == 0 ? 1 : opt.shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>());

  if (budget_bytes_ == 0) {
    for (auto& s : shards_) init_shard(*s, kInitialCapacity, 0);
    return;
  }

  // Budgeted: fit every shard's capacity to its share of the budget UP
  // FRONT (mccortex-style), all carved from one pre-allocated arena. A few
  // bytes per carve go to alignment, hence the small per-shard reserve.
  arena_.emplace(budget_bytes_, "visited-set");
  constexpr std::size_t kCarveSlack = 64;
  const std::size_t per_shard = budget_bytes_ / n;
  const std::size_t slot_width = exact_ ? kFpSlot + kRefSlot : kFpSlot;
  // Exact mode spends most of its share on the encoding slab; the table
  // takes a quarter. Fingerprint mode is all table.
  const std::size_t table_share = exact_ ? per_shard / 4 : per_shard;
  const std::size_t capacity =
      table_share > kCarveSlack + slot_width
          ? std::bit_floor((table_share - kCarveSlack) / slot_width)
          : 0;
  MEMU_CHECK_MSG(
      capacity >= kMinCapacity,
      "visited-set budget too small: "
          << MemBudget{budget_bytes_}.to_string() << " across " << n
          << " shard(s) fits " << capacity
          << " slots/shard (need >= " << kMinCapacity
          << "); rerun with --mem >= "
          << MemBudget{n * slot_width * kMinCapacity * (exact_ ? 8 : 2)}
                 .to_string());
  const std::size_t slab =
      exact_ ? per_shard - capacity * slot_width - kCarveSlack : 0;
  for (auto& s : shards_) init_shard(*s, capacity, slab);
}

void VisitedSet::init_shard(Shard& s, std::size_t capacity,
                            std::size_t slab_capacity) {
  s.capacity = capacity;
  if (arena_.has_value()) {
    s.fps = arena_->alloc_array<std::uint64_t>(capacity);
    if (exact_) {
      s.refs = arena_->alloc_array<Shard::SlabRef>(capacity);
      s.slab = static_cast<std::uint8_t*>(arena_->alloc(slab_capacity, 1));
      s.slab_capacity = slab_capacity;
    }
    return;
  }
  s.heap_fps.assign(capacity, Shard::kEmpty);
  s.fps = s.heap_fps.data();
  if (exact_) {
    s.heap_refs.assign(capacity, Shard::SlabRef{});
    s.refs = s.heap_refs.data();
  }
}

void VisitedSet::grow(Shard& s) {
  MEMU_CHECK_MSG(
      !arena_.has_value(),
      "visited set at its --mem load limit: "
          << s.entries << " states fill " << s.capacity
          << " slots to the 3/4 bound (budget "
          << MemBudget{budget_bytes_}.to_string()
          << "); rerun with --mem >= "
          << MemBudget{budget_bytes_ * 2}.to_string()
          << " or switch to fingerprint dedupe");
  const std::size_t new_cap = s.capacity * 2;
  std::vector<std::uint64_t> fps(new_cap, Shard::kEmpty);
  std::vector<Shard::SlabRef> refs;
  if (exact_) refs.assign(new_cap, Shard::SlabRef{});
  for (std::size_t i = 0; i < s.capacity; ++i) {
    if (s.fps[i] == Shard::kEmpty) continue;
    std::size_t idx = probe_start(s.fps[i], new_cap);
    while (fps[idx] != Shard::kEmpty) idx = (idx + 1) & (new_cap - 1);
    fps[idx] = s.fps[i];
    if (exact_) refs[idx] = s.refs[i];
  }
  s.heap_fps = std::move(fps);
  s.fps = s.heap_fps.data();
  if (exact_) {
    s.heap_refs = std::move(refs);
    s.refs = s.heap_refs.data();
  }
  s.capacity = new_cap;
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
    std::size_t idx = probe_start(slot_fp, s.capacity);
    for (;;) {
      const std::uint64_t have = s.fps[idx];
      if (have == Shard::kEmpty) break;
      if (have == slot_fp) {
        if (!exact_) return false;
        const Shard::SlabRef& ref = s.refs[idx];
        if (ref.length == key->size() &&
            std::memcmp(s.slab + ref.offset, key->data(), ref.length) == 0)
          return false;
        // Exact-mode fingerprint collision: different bytes, same slot
        // value — keep probing; the colliding key lives further down the
        // chain or in a free slot.
      }
      idx = (idx + 1) & (s.capacity - 1);
    }
    if (s.entries + 1 <= load_limit(s.capacity)) {
      if (exact_) {
        MEMU_CHECK_MSG(
            s.slab_used + key->size() <= s.slab_capacity ||
                !arena_.has_value(),
            "visited-set encoding slab exhausted: "
                << s.entries << " states consumed " << s.slab_used << " of "
                << s.slab_capacity << " B (budget "
                << MemBudget{budget_bytes_}.to_string()
                << "); rerun with --mem >= "
                << MemBudget{budget_bytes_ * 2}.to_string()
                << " or switch to fingerprint dedupe");
        if (!arena_.has_value()) {
          s.heap_slab.insert(s.heap_slab.end(), key->begin(), key->end());
          s.slab = s.heap_slab.data();
          s.slab_used = s.heap_slab.size();
          s.refs[idx] = {s.slab_used - key->size(),
                         static_cast<std::uint32_t>(key->size())};
        } else {
          std::memcpy(s.slab + s.slab_used, key->data(), key->size());
          s.refs[idx] = {s.slab_used,
                         static_cast<std::uint32_t>(key->size())};
          s.slab_used += key->size();
        }
      }
      s.fps[idx] = slot_fp;
      ++s.entries;
      return true;
    }
    grow(s);  // unbudgeted: double and re-probe; budgeted: CHECK-fails
  }
}

bool VisitedSet::contains_locked(const Shard& s, std::uint64_t fp,
                                 const Bytes* key) const {
  if (!exact_ && fp == Shard::kEmpty) return s.zero_present;
  const std::uint64_t slot_fp = exact_ ? exact_slot_fp(fp) : fp;
  std::size_t idx = probe_start(slot_fp, s.capacity);
  for (;;) {
    const std::uint64_t have = s.fps[idx];
    if (have == Shard::kEmpty) return false;
    if (have == slot_fp) {
      if (!exact_) return true;
      const Shard::SlabRef& ref = s.refs[idx];
      if (ref.length == key->size() &&
          std::memcmp(s.slab + ref.offset, key->data(), ref.length) == 0)
        return true;
    }
    idx = (idx + 1) & (s.capacity - 1);
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
    n += s->capacity * kFpSlot;
    if (exact_) {
      n += s->capacity * kRefSlot;
      // Budgeted slabs are reserved in full up front (that IS the
      // footprint); unbudgeted slabs grew to what they hold.
      n += arena_.has_value() ? s->slab_capacity : s->heap_slab.size();
    }
  }
  return n;
}

}  // namespace memu::engine
