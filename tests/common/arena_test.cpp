// MemBudget grammar, plus the World slab layer (SlabPool / SlabRef /
// SlabShared / worldmem): freelist reuse, refcount lifetimes, cross-thread
// frees, heap fallback accounting, and the --mem exhaustion diagnostic
// naming the pool.
#include "common/arena.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace memu {
namespace {

TEST(MemBudget, ParsesRawBytesAndSuffixes) {
  EXPECT_EQ(MemBudget::parse("0").total, 0u);
  EXPECT_EQ(MemBudget::parse("65536").total, 65536u);
  EXPECT_EQ(MemBudget::parse("16k").total, 16u << 10);
  EXPECT_EQ(MemBudget::parse("16K").total, 16u << 10);
  EXPECT_EQ(MemBudget::parse("16kb").total, 16u << 10);
  EXPECT_EQ(MemBudget::parse("16KB").total, 16u << 10);
  EXPECT_EQ(MemBudget::parse("512M").total, 512ull << 20);
  EXPECT_EQ(MemBudget::parse("4G").total, 4ull << 30);
  EXPECT_EQ(MemBudget::parse("4gb").total, 4ull << 30);
}

TEST(MemBudget, RejectsMalformedValuesLoudly) {
  // A silently misparsed budget is worse than no budget: every malformed
  // spelling must throw, not truncate or default.
  for (const char* bad : {"", "M", "12X", "12MBs", "1.5G", "-4M", " 4M",
                          "4M ", "0x10", "four"}) {
    EXPECT_THROW(MemBudget::parse(bad), ContractError) << "'" << bad << "'";
  }
}

TEST(MemBudget, RejectsOverflow) {
  EXPECT_THROW(MemBudget::parse("99999999999999999999"), ContractError);
  EXPECT_THROW(MemBudget::parse("99999999999G"), ContractError);
}

TEST(MemBudget, ToStringRoundsToWholeSuffixes) {
  EXPECT_EQ(MemBudget{0}.to_string(), "unbounded");
  EXPECT_EQ(MemBudget{64ull << 20}.to_string(), "64M");
  EXPECT_EQ(MemBudget{4ull << 30}.to_string(), "4G");
  EXPECT_EQ(MemBudget{16u << 10}.to_string(), "16K");
  EXPECT_EQ(MemBudget{1000}.to_string(), "1000");
  EXPECT_FALSE(MemBudget{0}.bounded());
  EXPECT_TRUE(MemBudget{1}.bounded());
}

// ---- World slab layer -------------------------------------------------------

// A payload whose destructor reports through a shared flag, for pinning
// exactly-once destruction on the last release.
struct Tracked {
  std::atomic<int>* destroyed;
  std::uint64_t tag;
  Tracked(std::atomic<int>* d, std::uint64_t t) : destroyed(d), tag(t) {}
  ~Tracked() { destroyed->fetch_add(1); }
};

TEST(SlabRef, RefcountTracksCopiesAndDestroysOnce) {
  std::atomic<int> destroyed{0};
  {
    SlabRef<Tracked> a = slab_make<Tracked>(&destroyed, 7u);
    EXPECT_EQ(a.use_count(), 1u);
    EXPECT_EQ(a->tag, 7u);
    SlabRef<Tracked> b = a;
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(b.get(), a.get());  // one slot, two handles
    b.reset();
    EXPECT_EQ(a.use_count(), 1u);
    EXPECT_EQ(destroyed.load(), 0);  // still one live owner
  }
  EXPECT_EQ(destroyed.load(), 1);
}

TEST(SlabPool, FreelistReusesTheJustFreedSlot) {
  // Same thread, same size class: a freed slot is the next one handed out
  // (LIFO freelist), so steady-state churn allocates no new pages.
  SlabRef<std::uint64_t> a = slab_make<std::uint64_t>(1u);
  const void* addr = a.get();
  a.reset();
  SlabRef<std::uint64_t> b = slab_make<std::uint64_t>(2u);
  EXPECT_EQ(b.get(), addr);
}

TEST(SlabRef, RemoteThreadReleaseIsSafe) {
  // The last reference dies on a thread that does NOT own the slot's pool:
  // the free must take the remote-stack path (the releasing thread holds no
  // lease for this pool) and still destroy the object exactly once.
  std::atomic<int> destroyed{0};
  SlabRef<Tracked> local = slab_make<Tracked>(&destroyed, 1u);
  SlabRef<Tracked> handoff = local;
  local.reset();
  std::thread t([r = std::move(handoff)]() mutable { r.reset(); });
  t.join();
  EXPECT_EQ(destroyed.load(), 1);
  // The remote-freed slot drains back to the owner on a later alloc of the
  // same class; allocation keeps working either way.
  SlabRef<Tracked> again = slab_make<Tracked>(&destroyed, 2u);
  EXPECT_EQ(again.use_count(), 1u);
}

TEST(SlabPool, OversizedPayloadsFallBackToHeapWithExactReserve) {
  // Payloads past the largest size class bypass the pages entirely but
  // still count against worldmem, header included, and un-reserve on free.
  struct Big {
    std::array<std::uint8_t, 8000> bytes{};
  };
  const std::size_t base = worldmem::reserved_bytes();
  {
    SlabRef<Big> r = slab_make<Big>();
    EXPECT_EQ(worldmem::reserved_bytes() - base, 16u + sizeof(Big));
    SlabRef<Big> shared = r;  // refcounting is class-independent
    EXPECT_EQ(r.use_count(), 2u);
  }
  EXPECT_EQ(worldmem::reserved_bytes(), base);
}

TEST(SlabShared, EmptyHandleReadsAsDefaultConstructedValue) {
  // "Cleared" process state must encode byte-identically to a plain default
  // member, so the empty handle dereferences to a static default T.
  SlabShared<std::vector<std::uint8_t>> empty;
  EXPECT_FALSE(empty.has_value());
  EXPECT_TRUE(empty.get().empty());
  EXPECT_EQ(empty->size(), 0u);

  SlabShared<std::vector<std::uint8_t>> set(
      std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_TRUE(set.has_value());
  EXPECT_EQ(set->size(), 3u);
  set.reset();
  EXPECT_FALSE(set.has_value());
  EXPECT_EQ(set->size(), 0u);  // back to the shared default
}

TEST(SlabShared, CopySharesOneImmutableSlot) {
  SlabShared<std::vector<std::uint8_t>> a(
      std::vector<std::uint8_t>(100, 0xAB));
  SlabShared<std::vector<std::uint8_t>> b = a;  // refcount bump, no copy
  EXPECT_EQ(&a.get(), &b.get());
  a.reset();
  EXPECT_EQ(b->size(), 100u);  // b keeps the slot alive
}

TEST(WorldMem, ExhaustionNamesTheWorldSlabPoolInMemTerms) {
  struct Big {
    std::array<std::uint8_t, 8000> bytes{};
  };
  const std::size_t base = worldmem::reserved_bytes();
  worldmem::set_limit(base + 1024);  // no room for the next reservation
  struct RestoreLimit {
    ~RestoreLimit() { worldmem::set_limit(0); }
  } restore;
  try {
    SlabRef<Big> r = slab_make<Big>();  // heap slot: always reserves
    FAIL() << "reservation past the cap should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("World slab pool"), std::string::npos) << what;
    EXPECT_NE(what.find("--mem"), std::string::npos) << what;
  }
  // The failed reservation rolled back: nothing leaked against the cap.
  EXPECT_EQ(worldmem::reserved_bytes(), base);
}

}  // namespace
}  // namespace memu
