#include "engine/visited.h"

#include <gtest/gtest.h>

#include <string>

namespace memu::engine {
namespace {

Bytes key(std::uint64_t i) {
  BufWriter w;
  w.u64(i);
  return std::move(w).take();
}

TEST(VisitedSet, TryInsertOnceThenContains) {
  VisitedSet set({/*exact=*/false});
  EXPECT_FALSE(set.contains(key(7)));
  EXPECT_TRUE(set.try_insert(key(7)));
  EXPECT_TRUE(set.contains(key(7)));
  EXPECT_FALSE(set.try_insert(key(7)));  // second insert is a no-op
  EXPECT_EQ(set.size(), 1u);
}

TEST(VisitedSet, FingerprintOverloadMatchesByteKeys) {
  // try_insert(fp) with fingerprint64(key) must land in the same slot the
  // byte-key overload would have used — the frontier mixes neither, but the
  // equivalence is the contract that makes the direct overload correct.
  VisitedSet set({/*exact=*/false});
  EXPECT_TRUE(set.try_insert(fingerprint64(key(3))));
  EXPECT_FALSE(set.try_insert(key(3)));
  EXPECT_TRUE(set.contains(fingerprint64(key(3))));
  EXPECT_FALSE(set.contains(fingerprint64(key(4))));
  EXPECT_TRUE(set.try_insert(key(4)));
  EXPECT_FALSE(set.try_insert(fingerprint64(key(4))));
  EXPECT_EQ(set.size(), 2u);
}

TEST(VisitedSet, ExactModeBehavesIdentically) {
  VisitedSet fp({/*exact=*/false});
  VisitedSet exact({/*exact=*/true});
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(fp.try_insert(key(i % 300)), exact.try_insert(key(i % 300)));
  }
  EXPECT_EQ(fp.size(), 300u);
  EXPECT_EQ(exact.size(), 300u);
}

TEST(VisitedSet, MemoryBytesIsExactAndExceedsTheLegacyEstimate) {
  // The old memory_bytes() summed key payloads (8 B per fingerprint, the
  // encoding length per exact key) and silently ignored the
  // unordered_set's ~40+ bytes of node + bucket overhead per entry. The
  // new accounting reports real allocated bytes (slot tables + slabs),
  // which is strictly larger — pin both the relation and the exact value
  // so the undercount can never creep back.
  VisitedSet fp({/*exact=*/false});
  for (std::uint64_t i = 0; i < 100; ++i) fp.try_insert(key(i));
  EXPECT_GT(fp.memory_bytes(), 8u * fp.size());
  // 100 entries at a 75% load limit land in a 256-slot table, 8 B/slot.
  EXPECT_EQ(fp.memory_bytes(), 256u * 8u);

  VisitedSet exact({/*exact=*/true});
  for (std::uint64_t i = 0; i < 100; ++i) exact.try_insert(key(i));
  std::size_t key_payload = 0;
  for (std::uint64_t i = 0; i < 100; ++i) key_payload += key(i).size();
  EXPECT_GT(exact.memory_bytes(), key_payload);
  // Exact mode adds the refs table and the encoding slab on top.
  EXPECT_GE(exact.memory_bytes(), 256u * (8u + 16u) + 100u * 8u);
}

TEST(VisitedSet, BudgetedSetHoldsWhatTheUnbudgetedSetHolds) {
  // --mem is a ceiling, not an allocation: under a budget the space fits,
  // the set grows exactly as the unbudgeted one does, in both modes.
  for (const bool exact : {false, true}) {
    VisitedSet free_set({exact});
    VisitedSet capped({exact, MemBudget::parse("64M")});
    EXPECT_EQ(capped.memory_bytes(), free_set.memory_bytes());
    for (std::uint64_t i = 0; i < 5000; ++i) {
      EXPECT_TRUE(capped.try_insert(key(i)));
      free_set.try_insert(key(i));
    }
    EXPECT_EQ(capped.size(), 5000u);
    EXPECT_EQ(capped.memory_bytes(), free_set.memory_bytes()) << exact;
  }
}

TEST(VisitedSet, OverfilledBudgetFailsLoudlyWithSizingHint) {
  // A budget too small for the state space must CHECK-fail when growth
  // would pass the share — not grow past it, not degrade — and the message
  // must tell the user what to do in --mem terms. Exact mode grows two
  // structures, table and slab, inside one share; neither may push the
  // footprint past it before the failing insert.
  constexpr std::size_t kMem = 64 << 10;  // a 32 KB share
  for (const bool exact : {false, true}) {
    VisitedSet set({exact, MemBudget{kMem}});
    try {
      for (std::uint64_t i = 0; i < 100'000; ++i) {
        set.try_insert(key(i));
        ASSERT_LE(set.memory_bytes(), kMem / 2) << exact << " at " << i;
      }
      FAIL() << "insert past the ceiling should have thrown";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
          << e.what();
    }
    if (!exact) {
      // 2048 slots (16 KB) fit the share; 2048 + 4096 slots together do
      // not, so the table stops at its 3/4 load limit.
      EXPECT_EQ(set.size(), 1536u);
      EXPECT_EQ(set.memory_bytes(), 2048u * 8u);
    }
  }
}

TEST(VisitedSet, ImpossiblySmallBudgetFailsAtConstruction) {
  // Not even the first table fits: fail at construction, again with the
  // --mem sizing hint — and the hinted budget does construct.
  try {
    VisitedSet set({/*exact=*/false, MemBudget{512}});
    FAIL() << "construction should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    const std::string flag = "--mem >= ";
    const std::size_t at = what.find(flag);
    ASSERT_NE(at, std::string::npos) << what;
    const MemBudget hint = MemBudget::parse(what.substr(at + flag.size()));
    EXPECT_GT(hint.total, 512u);
    EXPECT_NO_THROW(VisitedSet({/*exact=*/false, hint}));
  }
}

TEST(VisitedSet, BudgetedExactModeKeepsEncodingsAndStaysWithinBudget) {
  constexpr std::size_t kShare = 1 << 20;  // half of a 2 MiB --mem
  VisitedSet set({/*exact=*/true, MemBudget{2 * kShare}});
  EXPECT_LE(set.memory_bytes(), kShare);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(set.try_insert(key(i)));
    EXPECT_FALSE(set.try_insert(key(i)));
  }
  EXPECT_EQ(set.size(), 500u);
  EXPECT_LE(set.memory_bytes(), kShare);
}

}  // namespace
}  // namespace memu::engine
