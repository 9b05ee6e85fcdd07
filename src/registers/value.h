// Register values.
//
// The paper's values come from a finite set V with B = log2|V| bits each.
// We model a value as an opaque byte blob of a fixed size per experiment.
// Two constructions are provided:
//   * unique_value  — embeds (writer, seq) in the prefix so every write in a
//     workload writes a distinct value (required by the consistency
//     checkers) while the remainder is seeded-pseudorandom payload;
//   * enum_value    — the i-th element of a small enumerated V, used by the
//     adversary harness which iterates over all of V (or all pairs).
#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/buffer.h"
#include "common/check.h"
#include "common/rng.h"

namespace memu {

using Value = Bytes;

// Shared slab handles for value-sized payloads held in process state: a COW
// process clone shares the payload block instead of copying it (see
// SlabShared in common/arena.h). ShardListRef covers a writer's full coded
// shard list, produced by one Codec::encode call and read-only after; each
// shard is a ValueRef of its own, so the pre-write carrying it and the
// server storing it share the block.
using ValueRef = SlabShared<Value>;
using ShardListRef = SlabShared<std::vector<ValueRef>>;

// The smallest value the simulated systems accept: a unique_value embeds
// its (writer, seq) identity in the first 12 bytes. The sweep clamps
// ceil(logV / 8) up to this.
constexpr std::size_t kMinValueSize = 12;

// A value of `size_bytes` bytes, unique per (writer, seq), remainder filled
// pseudorandomly from the pair so regeneration is deterministic.
inline Value unique_value(std::uint32_t writer, std::uint64_t seq,
                          std::size_t size_bytes) {
  MEMU_CHECK_MSG(size_bytes >= kMinValueSize,
                 "unique values need >= 12 bytes to embed identity");
  Value v(size_bytes);
  for (int i = 0; i < 8; ++i)
    v[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(seq >> (8 * i));
  for (int i = 0; i < 4; ++i)
    v[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(writer >> (8 * i));
  Rng rng((std::uint64_t{writer} << 32) ^ seq ^ 0xa5a5a5a5ull);
  for (std::size_t i = 12; i < size_bytes; ++i) v[i] = rng.next_byte();
  return v;
}

// The `index`-th element of an enumerated value domain of `size_bytes`-byte
// values. Distinct indices yield distinct values.
inline Value enum_value(std::uint64_t index, std::size_t size_bytes) {
  MEMU_CHECK(size_bytes >= 8);
  Value v(size_bytes, 0);
  for (int i = 0; i < 8; ++i)
    v[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(index >> (8 * i));
  return v;
}

// Recovers the index from an enum_value.
inline std::uint64_t enum_value_index(const Value& v) {
  MEMU_CHECK(v.size() >= 8);
  std::uint64_t index = 0;
  for (int i = 0; i < 8; ++i)
    index |= std::uint64_t{v[static_cast<std::size_t>(i)]} << (8 * i);
  return index;
}

// Recovers (writer, seq) from a unique_value.
struct ValueIdentity {
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;
  friend constexpr auto operator<=>(const ValueIdentity&,
                                    const ValueIdentity&) = default;
};

inline ValueIdentity value_identity(const Value& v) {
  MEMU_CHECK(v.size() >= kMinValueSize);
  ValueIdentity id;
  for (int i = 0; i < 8; ++i)
    id.seq |= std::uint64_t{v[static_cast<std::size_t>(i)]} << (8 * i);
  for (int i = 0; i < 4; ++i)
    id.writer |= std::uint32_t{v[static_cast<std::size_t>(8 + i)]} << (8 * i);
  return id;
}

}  // namespace memu
