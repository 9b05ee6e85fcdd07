#include "engine/visited.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace memu::engine {
namespace {

Bytes key(std::uint64_t i) {
  BufWriter w;
  w.u64(i);
  return std::move(w).take();
}

TEST(VisitedSet, TryInsertOnceThenContains) {
  VisitedSet set({/*exact=*/false, /*shards=*/1});
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
  VisitedSet set({/*exact=*/false, /*shards=*/4});
  EXPECT_TRUE(set.try_insert(fingerprint64(key(3))));
  EXPECT_FALSE(set.try_insert(key(3)));
  EXPECT_TRUE(set.contains(fingerprint64(key(3))));
  EXPECT_FALSE(set.contains(fingerprint64(key(4))));
  EXPECT_TRUE(set.try_insert(key(4)));
  EXPECT_FALSE(set.try_insert(fingerprint64(key(4))));
  EXPECT_EQ(set.size(), 2u);
}

TEST(VisitedSet, ExactModeBehavesIdentically) {
  VisitedSet fp({/*exact=*/false, /*shards=*/4});
  VisitedSet exact({/*exact=*/true, /*shards=*/4});
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
  VisitedSet fp({/*exact=*/false, /*shards=*/1});
  for (std::uint64_t i = 0; i < 100; ++i) fp.try_insert(key(i));
  EXPECT_GT(fp.memory_bytes(), 8u * fp.size());
  // 100 entries at a 75% load limit land in a 256-slot table, 8 B/slot.
  EXPECT_EQ(fp.memory_bytes(), 256u * 8u);

  VisitedSet exact({/*exact=*/true, /*shards=*/1});
  for (std::uint64_t i = 0; i < 100; ++i) exact.try_insert(key(i));
  std::size_t key_payload = 0;
  for (std::uint64_t i = 0; i < 100; ++i) key_payload += key(i).size();
  EXPECT_GT(exact.memory_bytes(), key_payload);
  // Exact mode adds the refs table and the encoding slab on top.
  EXPECT_GE(exact.memory_bytes(), 256u * (8u + 16u) + 100u * 8u);
}

TEST(VisitedSet, BudgetedSetFitsCapacityUpFrontAndStaysWithinBudget) {
  constexpr std::size_t kBudget = 1 << 16;  // 64 KiB
  VisitedSet set({/*exact=*/false, /*shards=*/4, kBudget});
  // Capacity is fitted at construction: memory_bytes() is already final
  // and within budget before any insert.
  const std::size_t fitted = set.memory_bytes();
  EXPECT_GT(fitted, 0u);
  EXPECT_LE(fitted, kBudget);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(set.try_insert(key(i)));
  EXPECT_EQ(set.size(), 1000u);
  EXPECT_EQ(set.memory_bytes(), fitted);  // no growth, ever
}

TEST(VisitedSet, OverfilledBudgetFailsLoudlyWithSizingHint) {
  // A budget too small for the state space must CHECK-fail at the load
  // limit — not grow, not degrade — and the message must tell the user
  // what to do in --mem terms.
  VisitedSet set({/*exact=*/false, /*shards=*/1, /*budget_bytes=*/4096});
  try {
    for (std::uint64_t i = 0; i < 100'000; ++i) set.try_insert(key(i));
    FAIL() << "insert past the load limit should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
        << e.what();
  }
}

TEST(VisitedSet, ImpossiblySmallBudgetFailsAtConstruction) {
  // Not even a minimum-capacity table fits: fail at construction, again
  // with the --mem sizing hint.
  try {
    VisitedSet set({/*exact=*/false, /*shards=*/16, /*budget_bytes=*/256});
    FAIL() << "construction should have thrown";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--mem"), std::string::npos)
        << e.what();
  }
}

TEST(VisitedSet, BudgetedExactModeKeepsEncodingsAndStaysWithinBudget) {
  constexpr std::size_t kBudget = 1 << 20;  // 1 MiB
  VisitedSet set({/*exact=*/true, /*shards=*/2, kBudget});
  EXPECT_LE(set.memory_bytes(), kBudget);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(set.try_insert(key(i)));
    EXPECT_FALSE(set.try_insert(key(i)));
  }
  EXPECT_EQ(set.size(), 500u);
  EXPECT_LE(set.memory_bytes(), kBudget);
}

TEST(VisitedSet, ConcurrentInsertersAgreeOnFreshness) {
  // 4 threads racing over an overlapping key range: exactly one inserter
  // per distinct key may see "fresh".
  VisitedSet set({/*exact=*/false, /*shards=*/16});
  constexpr std::uint64_t kKeys = 5000;
  std::atomic<std::size_t> fresh{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        if (set.try_insert(key(i)))
          fresh.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fresh.load(), kKeys);
  EXPECT_EQ(set.size(), kKeys);
}

TEST(AutoShardCount, SequentialIsUnsharded) {
  EXPECT_EQ(auto_shard_count(0), 1u);
  EXPECT_EQ(auto_shard_count(1), 1u);
}

TEST(AutoShardCount, ScalesWithThreadsAndStaysPowerOfTwo) {
  EXPECT_EQ(auto_shard_count(2), 16u);
  EXPECT_EQ(auto_shard_count(4), 32u);
  EXPECT_EQ(auto_shard_count(8), 64u);
  EXPECT_EQ(auto_shard_count(12), 128u);  // 96 rounds up to the next pow2
  for (std::size_t t = 2; t <= 64; ++t) {
    const std::size_t n = auto_shard_count(t);
    EXPECT_TRUE(std::has_single_bit(n)) << t;
    EXPECT_GE(n, 8 * t) << t;
  }
}

TEST(AutoShardCount, CappedAtFixedCeiling) {
  EXPECT_EQ(auto_shard_count(128), 1024u);
  EXPECT_EQ(auto_shard_count(10'000), 1024u);
}

}  // namespace
}  // namespace memu::engine
