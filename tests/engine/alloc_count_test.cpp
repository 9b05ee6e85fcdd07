// Heap allocations per explored transition, counted rather than profiled.
//
// This binary replaces the global operator new with a counting one (in the
// spirit of a membound-style nAlloc/totalAlloc pair) and runs the explore-
// cas configuration — CAS N=3 f=1 k=1, one write concurrent with one read,
// full exploration, fingerprint dedupe — twice: a warm-up exploration that
// fills the slab pools and thread-local buffers, then the measured one.
// What the measured run allocates per transition is what every explored
// transition still pays the heap: the delivery handlers' state changes and
// sends, the frontier's bookkeeping, and the visited set's growth.
//
// Sanitizer runtimes interpose operator new themselves; under them the
// counter is not installed and the test skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "algo/cas/system.h"
#include "engine/frontier.h"
#include "registers/value.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEMU_ALLOC_COUNTER 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MEMU_ALLOC_COUNTER 0
#endif
#endif
#ifndef MEMU_ALLOC_COUNTER
#define MEMU_ALLOC_COUNTER 1
#endif

#if MEMU_ALLOC_COUNTER
namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace memu {
namespace {

World explore_cas_world() {
  cas::Options opt;
  opt.n_servers = 3;
  opt.f = 1;
  opt.k = 1;
  opt.value_size = 12;
  opt.n_writers = 1;
  cas::System sys = cas::make_system(opt);
  sys.world.invoke(sys.writers[0], {OpType::kWrite, enum_value(1, 12)});
  sys.world.invoke(sys.readers[0], {OpType::kRead, {}});
  return std::move(sys.world);
}

TEST(AllocCount, ExploreCasAllocatesUnderHalfPerTransition) {
#if !MEMU_ALLOC_COUNTER
  GTEST_SKIP() << "sanitizer runtimes replace operator new; the counter is "
                  "not installed";
#else
  const World initial = explore_cas_world();
  const ExploreResult warm =
      engine::frontier_search(initial, ExploreOptions{}, {}, {});
  ASSERT_TRUE(warm.ok && warm.complete);

  const std::uint64_t allocs_before = g_allocs.load();
  const std::uint64_t bytes_before = g_alloc_bytes.load();
  const ExploreResult r =
      engine::frontier_search(initial, ExploreOptions{}, {}, {});
  const std::uint64_t allocs = g_allocs.load() - allocs_before;
  const std::uint64_t bytes = g_alloc_bytes.load() - bytes_before;

  // The pinned explore-cas counters: the measured run is the real one.
  EXPECT_EQ(r.states_visited, 103147u);
  EXPECT_EQ(r.terminal_states, 24u);
  EXPECT_EQ(r.transitions, 511863u);
  EXPECT_EQ(r.deduped, 408717u);

  const double per_transition =
      static_cast<double>(allocs) / static_cast<double>(r.transitions);
  std::printf("heap allocations: %llu (%.3f per transition, %llu bytes)\n",
              static_cast<unsigned long long>(allocs), per_transition,
              static_cast<unsigned long long>(bytes));
  EXPECT_LT(per_transition, 0.5);
#endif
}

}  // namespace
}  // namespace memu
