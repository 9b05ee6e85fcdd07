// Two hashes with two jobs.
//
// fnv1a64 is FNV-1a 64: the shard hash the hash-announce write phase sends
// (modeling the client-verification hashes of the Byzantine-tolerant
// algorithms in the paper's references [2, 15]) — o(log|V|) bits of
// value-dependent metadata. Its value is part of the protocol's messages
// and server state, so it never changes.
//
// fingerprint64 is the 64-bit state fingerprint the exploration engine
// deduplicates on and the World state hash folds (sim/state_hash.h). It is
// only ever compared with itself within a run, so it is free to be fast:
// 16 bytes per 128-bit multiply, with the length folded in at both ends
// and the splitmix64 finalizer on top, so low-entropy single-byte
// differences in canonical encodings diffuse across all 64 output bits
// before the fingerprint is truncated into a hash-table index.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

namespace memu {

inline std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// splitmix64 finalizer: a bijective mixer with full avalanche.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

namespace hashdetail {

inline constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ull;
inline constexpr std::uint64_t kWordKey = 0xa0761d6478bd642full;
inline constexpr std::uint64_t kStepKey = 0xe7037ed1a0b428dbull;
inline constexpr std::uint64_t kTailKey = 0x8ebc6af09c88c6e3ull;

// The 128-bit product of a and b, folded to 64 bits (low half XOR high
// half): one multiply mixes every bit of both operands.
inline std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace hashdetail

// State fingerprint for visited-set deduplication (see engine/visited.h):
// 16-byte blocks fold into the running hash one multiply each, then an
// 8-byte word and a zero-padded tail; the length seeds the hash and is
// mixed in again before the finalizer, so a string and the same string
// with trailing zero bytes fingerprint differently.
inline std::uint64_t fingerprint64(std::span<const std::uint8_t> data) {
  using namespace hashdetail;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t h = kSeed ^ (n * kStepKey);
  for (; n >= 16; p += 16, n -= 16)
    h = fold_mul(load64(p) ^ kWordKey, load64(p + 8) ^ h);
  if (n >= 8) {
    h = fold_mul(load64(p) ^ kWordKey, h ^ kStepKey);
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = fold_mul(tail ^ kTailKey, h ^ kStepKey);
  }
  return mix64(h ^ data.size());
}

}  // namespace memu
