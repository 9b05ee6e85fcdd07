// The two hashes of common/hash.h: fingerprint64 (the state fingerprint the
// explorer dedupes on) must separate near-identical encodings, and fnv1a64
// (the cas-hash protocol's shard hash, carried in its messages and server
// state) must keep its exact values.
#include "common/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/buffer.h"
#include "common/rng.h"

namespace memu {
namespace {

Bytes pseudo_random(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = rng.next_byte();
  return b;
}

TEST(Hash, TrailingZeroByteChangesTheFingerprint) {
  // A zero-padded tail word must not let "s" and "s\0" collide: the
  // length is folded in. Checked on all-zero and on pseudo-random content
  // at every length across the 16-byte block, 8-byte word and tail paths.
  for (std::size_t n = 0; n <= 64; ++n) {
    for (const Bytes& s : {Bytes(n, 0), pseudo_random(n, 7 + n)}) {
      Bytes padded = s;
      padded.push_back(0);
      EXPECT_NE(fingerprint64(s), fingerprint64(padded)) << "length " << n;
    }
  }
}

TEST(Hash, EverySingleBitFlipChangesTheFingerprint) {
  for (std::size_t n = 1; n <= 48; ++n) {
    for (const Bytes& base : {Bytes(n, 0), pseudo_random(n, 1000 + n)}) {
      const std::uint64_t fp = fingerprint64(base);
      for (std::size_t bit = 0; bit < 8 * n; ++bit) {
        Bytes flipped = base;
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_NE(fingerprint64(flipped), fp)
            << "length " << n << " bit " << bit;
      }
    }
  }
}

TEST(Hash, FingerprintIsAFunctionOfTheBytesAlone) {
  const Bytes a = pseudo_random(37, 3);
  const Bytes b(a.begin(), a.end());
  EXPECT_EQ(fingerprint64(a), fingerprint64(b));
  // A view into a larger buffer hashes like a buffer of its own (no
  // alignment or over-read dependence).
  Bytes wide(64, 0xaa);
  std::copy(a.begin(), a.end(), wide.begin() + 3);
  EXPECT_EQ(fingerprint64(std::span<const std::uint8_t>(wide).subspan(3, 37)),
            fingerprint64(a));
}

TEST(Hash, Fnv1aKeepsTheCasHashProtocolValues) {
  const std::string text = "cas.pre_write_req shard";
  const Bytes bytes(text.begin(), text.end());
  EXPECT_EQ(fnv1a64(bytes), 0x5b9fd1b21c4a237eull);
  EXPECT_EQ(fnv1a64(Bytes{}), 0xcbf29ce484222325ull);
  Bytes counting(16);
  for (std::size_t i = 0; i < counting.size(); ++i)
    counting[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(fnv1a64(counting), 0x7c84dc9477851775ull);
}

}  // namespace
}  // namespace memu
