// Bounded memory: MemBudget (the `--mem` contract every tool shares) and
// SlabPool (the refcounted slab pages behind the COW World blocks).
//
// A budget is a ceiling, not an allocation: structures start small, grow on
// demand, and fail loudly — with a sizing diagnostic naming a budget that
// would have sufficed — when growth would pass their share, instead of
// OOMing hours into a run. MemBudget is the parsing half of that contract;
// each structure enforces its own share (the visited set in
// engine/visited.h, the frontier in engine/frontier.h, the World slab
// pages through `worldmem` below).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace memu {

// A byte budget threaded from `--mem` down to every sized structure.
// total == 0 means unbudgeted: structures grow on demand without limit;
// any nonzero total is a HARD cap enforced by VisitedSet, the frontier
// and worldmem, never a hint.
struct MemBudget {
  std::size_t total = 0;

  bool bounded() const { return total != 0; }

  // Flag grammar: a decimal count with an optional K/M/G suffix (powers of
  // 1024, case-insensitive; an optional trailing B is accepted). "512M",
  // "4G", "65536", "16kb". Throws ContractError on anything else — a
  // silently misparsed budget is worse than no budget.
  static MemBudget parse(const std::string& text);

  // Human-readable rendering for diagnostics: exact when the byte count is
  // a whole K/M/G multiple ("64M"), raw bytes otherwise.
  std::string to_string() const;

  // The smallest budget of at least `bytes` that is a whole K, or a whole
  // M past 1M: what a sizing hint's "rerun with --mem >= " names.
  static MemBudget rounded_up(std::size_t bytes);
};

inline MemBudget MemBudget::parse(const std::string& text) {
  MEMU_CHECK_MSG(!text.empty(), "empty --mem value");
  std::size_t pos = 0;
  std::uint64_t n = 0;
  bool any_digit = false;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(text[pos] - '0');
    MEMU_CHECK_MSG(n <= (UINT64_MAX - digit) / 10,
                   "--mem value overflows: '" << text << "'");
    n = n * 10 + digit;
    any_digit = true;
    ++pos;
  }
  MEMU_CHECK_MSG(any_digit, "--mem wants <bytes|512M|4G>, got '" << text << "'");
  std::uint64_t scale = 1;
  if (pos < text.size()) {
    switch (text[pos]) {
      case 'k': case 'K': scale = 1ull << 10; ++pos; break;
      case 'm': case 'M': scale = 1ull << 20; ++pos; break;
      case 'g': case 'G': scale = 1ull << 30; ++pos; break;
      default: break;
    }
    if (pos < text.size() && (text[pos] == 'b' || text[pos] == 'B')) ++pos;
  }
  MEMU_CHECK_MSG(pos == text.size(),
                 "--mem wants <bytes|512M|4G>, got '" << text << "'");
  MEMU_CHECK_MSG(scale == 1 || n <= UINT64_MAX / scale,
                 "--mem value overflows: '" << text << "'");
  return MemBudget{static_cast<std::size_t>(n * scale)};
}

inline std::string MemBudget::to_string() const {
  if (total == 0) return "unbounded";
  constexpr std::size_t kG = 1ull << 30, kM = 1ull << 20, kK = 1ull << 10;
  if (total % kG == 0) return std::to_string(total / kG) + "G";
  if (total % kM == 0) return std::to_string(total / kM) + "M";
  if (total % kK == 0) return std::to_string(total / kK) + "K";
  return std::to_string(total);
}

inline MemBudget MemBudget::rounded_up(std::size_t bytes) {
  const std::size_t unit = bytes >= (1u << 20) ? (1u << 20) : (1u << 10);
  return MemBudget{(bytes + unit - 1) / unit * unit};
}

// ---------------------------------------------------------------------------
// SlabPool: refcounted slab pages for the COW World blocks.
//
// The World's shared blocks (process state, channel message blocks, oplog
// chunks) churn — they are allocated per fork and freed when the last
// referencing World dies — so they live in size-class freelists over large
// pages, with the refcount living in a 16-byte header immediately before
// each payload instead of in a separately allocated shared_ptr control
// block. One malloc per 64 KiB page instead of one per block, no control-
// block cache miss on the refcount, and a slot free is two pointer writes.
//
// Concurrency contract: a pool is LEASED to one thread at a time — local_pool() hands every
// thread its own pool, so the alloc path and local frees touch no shared
// state and take no locks. A block freed by a thread that does not own the
// originating pool is pushed onto the owner's lock-free remote stack
// (Treiber push; the owner drains the whole stack with one exchange when
// its freelist runs dry — push-only plus pop-all means no ABA). Pools are
// never destroyed: a thread returns its lease at exit and the pool is
// re-leased to the next new thread, so a block outliving its allocating
// thread (thread-local prototype caches do this) always finds a live owner
// to take the free.
//
// The pages compose with the --mem/MemBudget contract through `worldmem`: a
// process-wide reserve counter over every page (and oversized heap-fallback
// slot), with an optional hard limit that CHECK-fails in --mem terms.

class SlabPool;

namespace slabdetail {

inline constexpr std::size_t kMinClassBytes = 32;
inline constexpr std::size_t kMaxClassBytes = 4096;
inline constexpr std::size_t kNumClasses = 8;  // 32, 64, ..., 4096
inline constexpr std::uint8_t kHeapClass = 0xff;
inline constexpr std::size_t kPageBytes = 64 * 1024;

inline constexpr std::size_t class_bytes(std::size_t idx) {
  return kMinClassBytes << idx;
}

inline std::size_t class_of(std::size_t bytes) {
  std::size_t idx = 0;
  while (class_bytes(idx) < bytes) ++idx;
  return idx;
}

// Lives immediately before every payload. 16 bytes, so payloads keep
// max_align_t alignment as long as slot strides are multiples of 16 (they
// are: 16 + 32 * 2^k).
struct SlotHeader {
  std::atomic<std::uint32_t> refs{1};
  std::uint8_t class_idx = 0;  // kHeapClass => ::operator new fallback
  std::uint8_t pad_[3] = {};
  union {
    SlabPool* owner;        // pooled slots: pool to return the slot to
    std::size_t heap_bytes;  // heap-fallback slots: size, for un-reserving
  };
  SlotHeader() : owner(nullptr) {}
};
static_assert(sizeof(SlotHeader) == 16, "payload alignment depends on this");

}  // namespace slabdetail

// Budget hooks for the World slab pages (`--mem` backstop). Slab pages
// are reserved lazily as Worlds grow, so the limit is enforced at
// reservation time, and the diagnostic names the pool so a failing run says which structure to budget
// for. Pages are cached in pools forever once reserved; reserved_bytes() is
// therefore a high-water mark of live page bytes, not a live-object count.
namespace worldmem {

namespace detail {
inline std::atomic<std::size_t> reserved{0};
inline std::atomic<std::size_t> limit{0};
}  // namespace detail

// 0 = unbounded. The limit spans every thread's pool: it caps the sum of
// page bytes ever reserved, the honest upper bound on what the World slabs
// can hold live.
inline void set_limit(std::size_t bytes) {
  detail::limit.store(bytes, std::memory_order_relaxed);
}
inline std::size_t limit() {
  return detail::limit.load(std::memory_order_relaxed);
}
inline std::size_t reserved_bytes() {
  return detail::reserved.load(std::memory_order_relaxed);
}

inline void reserve(std::size_t bytes) {
  const std::size_t now =
      detail::reserved.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const std::size_t lim = detail::limit.load(std::memory_order_relaxed);
  if (lim != 0 && now > lim) {
    detail::reserved.fetch_sub(bytes, std::memory_order_relaxed);
    MEMU_CHECK_MSG(false, "World slab pool exhausted: reserving "
                              << bytes << " B of slab pages would hold "
                              << now << " B against a " << lim
                              << " B cap — increase --mem (process blocks, "
                                 "channel slots, and oplog chunks all live "
                                 "in these pages)");
  }
}

inline void release(std::size_t bytes) {
  detail::reserved.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace worldmem

class SlabPool {
 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  // Owner-thread-only. Returns a payload of at least `bytes`, aligned to
  // max_align_t, with its header initialized to refs == 1.
  void* alloc(std::size_t bytes) {
    using namespace slabdetail;
    if (bytes > kMaxClassBytes) return heap_slot(bytes);
    const std::size_t ci = class_of(bytes);
    void* payload = freelist_[ci];
    if (payload != nullptr) {
      freelist_[ci] = *static_cast<void**>(payload);
    } else if ((payload = drain_remote(ci)) == nullptr) {
      payload = carve(ci);
    }
    SlotHeader* h = header_of(payload);
    h->refs.store(1, std::memory_order_relaxed);
    h->class_idx = static_cast<std::uint8_t>(ci);
    h->owner = this;
    return payload;
  }

  static slabdetail::SlotHeader* header_of(const void* payload) {
    return reinterpret_cast<slabdetail::SlotHeader*>(
        const_cast<std::uint8_t*>(static_cast<const std::uint8_t*>(payload)) -
        sizeof(slabdetail::SlotHeader));
  }

  // Returns the slot behind `payload` (whose object must already be
  // destroyed) to its owning pool: freelist when called on the leasing
  // thread, remote stack otherwise. Defined after the lease accessors.
  static void dealloc(void* payload);

 private:
  struct Bump {
    std::uint8_t* cur = nullptr;
    std::uint8_t* end = nullptr;
  };

  void* drain_remote(std::size_t ci) {
    void* head = remote_[ci].exchange(nullptr, std::memory_order_acquire);
    if (head == nullptr) return nullptr;
    freelist_[ci] = *static_cast<void**>(head);
    return head;
  }

  void* carve(std::size_t ci) {
    using namespace slabdetail;
    const std::size_t stride = sizeof(SlotHeader) + class_bytes(ci);
    Bump& b = bump_[ci];
    if (b.cur == nullptr || b.cur + stride > b.end) {
      worldmem::reserve(kPageBytes);  // cached forever, never freed
      auto* page = static_cast<std::uint8_t*>(
          ::operator new(kPageBytes, std::align_val_t{16}));
      b.cur = page;
      b.end = page + kPageBytes;
    }
    void* payload = b.cur + sizeof(SlotHeader);
    new (b.cur) slabdetail::SlotHeader;
    b.cur += stride;
    return payload;
  }

  void free_local(void* payload, std::size_t ci) {
    *static_cast<void**>(payload) = freelist_[ci];
    freelist_[ci] = payload;
  }

  void free_remote(void* payload, std::size_t ci) {
    void* head = remote_[ci].load(std::memory_order_relaxed);
    do {
      *static_cast<void**>(payload) = head;
    } while (!remote_[ci].compare_exchange_weak(
        head, payload, std::memory_order_release, std::memory_order_relaxed));
  }

  static void* heap_slot(std::size_t bytes) {
    using namespace slabdetail;
    worldmem::reserve(sizeof(SlotHeader) + bytes);
    auto* mem = static_cast<std::uint8_t*>(
        ::operator new(sizeof(SlotHeader) + bytes, std::align_val_t{16}));
    auto* h = new (mem) SlotHeader;
    h->class_idx = kHeapClass;
    h->heap_bytes = bytes;
    return mem + sizeof(SlotHeader);
  }

  // Free slots thread their next pointer through the payload itself.
  void* freelist_[slabdetail::kNumClasses] = {};
  std::atomic<void*> remote_[slabdetail::kNumClasses] = {};
  Bump bump_[slabdetail::kNumClasses];
};

namespace slabdetail {

// Leaky registry: both the mutex and the idle list are heap-allocated and
// never destroyed, so a pool release from a late static/TLS destructor
// cannot touch a dead object.
inline std::mutex& registry_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}
inline std::vector<SlabPool*>& idle_pools() {
  static auto* v = new std::vector<SlabPool*>;
  return *v;
}

// The raw lease pointer is trivially destructible on purpose: frees running
// during thread teardown (after the lease itself was returned) read null
// here and take the remote path instead of resurrecting a destroyed TLS
// object.
inline thread_local SlabPool* t_pool = nullptr;

struct PoolLease {
  // No-op whose only job is to odr-use the lease so its destructor is
  // registered before the thread's first slab allocation.
  void arm() {}
  ~PoolLease() {
    if (t_pool != nullptr) {
      std::lock_guard<std::mutex> lock(registry_mutex());
      idle_pools().push_back(t_pool);
      t_pool = nullptr;
    }
  }
};
inline thread_local PoolLease t_lease;

}  // namespace slabdetail

// This thread's pool, acquiring a lease on first use (re-using a pool a
// finished thread returned, else creating one — pools are never destroyed).
inline SlabPool& local_pool() {
  using namespace slabdetail;
  if (t_pool == nullptr) {
    t_lease.arm();
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto& idle = idle_pools();
    if (!idle.empty()) {
      t_pool = idle.back();
      idle.pop_back();
    } else {
      t_pool = new SlabPool();
    }
  }
  return *t_pool;
}

// Null when this thread holds no lease (never allocated, or already past
// lease teardown) — dealloc must then go remote.
inline SlabPool* local_pool_raw() { return slabdetail::t_pool; }

inline void SlabPool::dealloc(void* payload) {
  using namespace slabdetail;
  SlotHeader* h = header_of(payload);
  if (h->class_idx == kHeapClass) {
    worldmem::release(sizeof(SlotHeader) + h->heap_bytes);
    h->~SlotHeader();
    ::operator delete(static_cast<void*>(h), std::align_val_t{16});
    return;
  }
  const std::size_t ci = h->class_idx;
  SlabPool* owner = h->owner;
  if (owner == local_pool_raw()) {
    owner->free_local(payload, ci);
  } else {
    owner->free_remote(payload, ci);
  }
}

// Intrusive refcounted handle to a T constructed in a slab slot — the
// shared_ptr replacement for World blocks. The count lives in the slot
// header, so a SlabRef is one raw pointer and a copy is one relaxed
// increment with no control-block indirection. use_count() == 1 carries the
// same exclusivity guarantee the shared_ptr COW paths relied on: the
// decrement is acq_rel and the load is acquire, so a sole owner observes
// every release that preceded its exclusivity.
//
// T must be constructed at the exact payload address handed out by
// SlabPool::alloc (adopt() checks nothing; slab_make does this correctly —
// single-inheritance hierarchies like Process satisfy it for base-class
// handles too, which world.cpp asserts once at clone time).
template <class T>
class SlabRef {
 public:
  SlabRef() = default;
  SlabRef(const SlabRef& o) : obj_(o.obj_) {
    if (obj_ != nullptr) retain(obj_);
  }
  SlabRef(SlabRef&& o) noexcept : obj_(o.obj_) { o.obj_ = nullptr; }
  SlabRef& operator=(const SlabRef& o) {
    // Re-assigning the block already held (a scratch World assigned the
    // same parent again) leaves the count as it is: no atomic round trip.
    if (obj_ == o.obj_) return *this;
    SlabRef copy(o);
    std::swap(obj_, copy.obj_);
    return *this;
  }
  SlabRef& operator=(SlabRef&& o) noexcept {
    if (this != &o) {
      reset();
      obj_ = o.obj_;
      o.obj_ = nullptr;
    }
    return *this;
  }
  ~SlabRef() { reset(); }

  void reset() {
    if (obj_ != nullptr) {
      release(obj_);
      obj_ = nullptr;
    }
  }

  T* get() const { return obj_; }
  T* operator->() const { return obj_; }
  T& operator*() const { return *obj_; }
  explicit operator bool() const { return obj_ != nullptr; }

  std::uint32_t use_count() const {
    return obj_ == nullptr
               ? 0
               : SlabPool::header_of(obj_)->refs.load(std::memory_order_acquire);
  }

  // Takes ownership of an object already holding its initial reference
  // (i.e. just constructed in a payload from SlabPool::alloc).
  static SlabRef adopt(T* obj) {
    SlabRef r;
    r.obj_ = obj;
    return r;
  }

 private:
  static void retain(T* obj) {
    SlabPool::header_of(obj)->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void release(T* obj) {
    if (SlabPool::header_of(obj)->refs.fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      obj->~T();
      SlabPool::dealloc(const_cast<std::remove_const_t<T>*>(obj));
    }
  }

  T* obj_ = nullptr;
};

// Constructs a T in this thread's pool. For variable-size blocks (trailing
// arrays), call local_pool().alloc() directly and adopt().
template <class T, class... Args>
SlabRef<T> slab_make(Args&&... args) {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "slab payloads are max_align_t-aligned");
  void* mem = local_pool().alloc(sizeof(T));
  return SlabRef<T>::adopt(new (mem) T(std::forward<Args>(args)...));
}

// Standard allocator over this thread's slab pool: what std::allocate_shared
// takes to put an object and its shared_ptr control block into one slab
// slot (make_msg in sim/message.h), and what the channel slot arrays use so
// a World copy takes no heap allocation (sim/channel_table.h). A slot freed
// on another thread takes the pool's remote path, as any slab block does.
template <class T>
struct SlabAllocator {
  using value_type = T;

  SlabAllocator() = default;
  template <class U>
  SlabAllocator(const SlabAllocator<U>&) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "slab payloads are max_align_t-aligned");
    return static_cast<T*>(local_pool().alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) { SlabPool::dealloc(p); }

  template <class U>
  friend bool operator==(const SlabAllocator&, const SlabAllocator<U>&) {
    return true;
  }
};

// An immutable shared payload in a slab slot: the COW unit for value-sized
// pieces of process state. A process keeps big set-once payloads (a pending
// write value, a stored coded element) behind a SlabShared so its COW clone
// shares the block — one refcount bump — instead of copying the bytes; the
// payload is frozen at construction (const access only), which is what
// makes the sharing safe. An empty handle reads as a default-constructed T,
// so "cleared" state round-trips through reset() with no dedicated empty
// slot. Processes that adopt this override Process::detach_bytes() to stop
// billing the shared payload to every detach.
template <class T>
class SlabShared {
 public:
  SlabShared() = default;
  explicit SlabShared(T value) : rep_(slab_make<Rep>(std::move(value))) {}

  bool has_value() const { return static_cast<bool>(rep_); }
  explicit operator bool() const { return has_value(); }
  void reset() { rep_.reset(); }

  const T& get() const {
    static const T kEmpty{};
    return rep_ ? rep_->value : kEmpty;
  }
  const T& operator*() const { return get(); }
  const T* operator->() const { return &get(); }

 private:
  struct Rep {
    T value;
    explicit Rep(T v) : value(std::move(v)) {}
  };
  SlabRef<Rep> rep_;
};

}  // namespace memu
