// RecordManager — the reclamation policy layer (DESIGN.md §10).
//
// The paper's primitives are agnostic about how retired Data-records are
// reclaimed ("in other languages, such as C++, memory management is an
// issue", §6). The seed hard-wired epoch reclamation into the primitives
// and every structure; this header separates MECHANISM (reclaim/epoch.h:
// guards, limbo lists, grace periods) from POLICY (what alloc/retire/free
// actually do), so structures are written once against the policy concept
// and reclamation experiments swap a template parameter.
//
// A RecordManager provides:
//
//   M::Guard            RAII read reservation. Every manager here uses
//                       Epoch::Guard — even the leaky one — because
//                       helpers touch other threads' V-records under it. A
//                       guard pins the epoch for EVERY thread's limbo, so
//                       long-running walks (a whole-table size() or
//                       occupancy scan) must re-enter a fresh Guard per
//                       segment rather than hold one across the walk —
//                       otherwise one reader stalls all reclamation
//                       (pinned by test_record_manager's
//                       walk-does-not-block-drain case).
//   M::alloc<T>(args…)  construct a T (policy decides where the bytes
//                       come from).
//   M::retire(T*)       hand over a node the caller just made unreachable
//                       from the structure's roots. Exactly-once is the
//                       caller's obligation (the ScxOp builder provides
//                       it); WHEN (and whether) the destructor runs is the
//                       policy's.
//   M::dealloc(T*)      destroy a node that was NEVER published (an
//                       aborted op's fresh allocation, or quiescent
//                       teardown): no grace period needed.
//   M::drain()          test/teardown: reclaim everything reclaimable.
//   M::stats()          this thread's ReclaimStats (plain thread-local
//                       counters — no shared steps, so policy accounting
//                       never perturbs the pinned SCX step shapes).
//   M::domain_stats()   the CURRENT epoch domain's limbo accounting
//                       (DomainReclaimStats below). Unlike stats() these
//                       are shared, per-domain counters: under an
//                       Epoch::DomainScope they describe that domain
//                       alone, which is what lets the sharded front-end
//                       (DESIGN.md §12) report per-shard reclamation and
//                       the tests assert shard independence.
//
// SCX descriptors never pass through a policy: each thread reuses one
// immortal ScxRecord (llxscx/llx_scx.h), so a policy manages Data-records
// only.
//
// The contract a policy must honor for the LLX/SCX proofs to survive is
// written out in DESIGN.md §10; the short form: an address handed to
// retire() must not be handed out by alloc() again while any thread that
// could still reach the old node holds a Guard taken before the retire.
// EbrManager gets this from the epoch grace period; LeakyManager gets it
// vacuously (retired addresses never recur at all).
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "reclaim/epoch.h"

// __SANITIZE_ADDRESS__ first: sanitizer headers define a stub
// __has_feature(x) as 0 for GCC, which would hide ASan from a later check.
#if defined(__SANITIZE_ADDRESS__)
#define LLXSCX_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LLXSCX_ASAN 1
#endif
#endif
#ifndef LLXSCX_ASAN
#define LLXSCX_ASAN 0
#endif
#if LLXSCX_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace llxscx {

// Per-thread policy counters (always on: thread-local increments cost
// nothing shared and the pool-reuse tests read them in every build mode).
struct ReclaimStats {
  std::uint64_t allocs = 0;     // nodes constructed through the policy
  // Allocs served from this thread's free list (blocks recycled after a
  // grace period or a dealloc). Blocks cut from a slab or drawn from the
  // depot of exited threads' blocks are not hits.
  std::uint64_t pool_hits = 0;
  std::uint64_t retires = 0;    // nodes handed to retire()
  std::uint64_t deallocs = 0;   // unpublished nodes freed via dealloc()
  std::uint64_t leaked = 0;     // retires dropped on the floor (LeakyManager)

  ReclaimStats& operator+=(const ReclaimStats& o) {
    allocs += o.allocs;
    pool_hits += o.pool_hits;
    retires += o.retires;
    deallocs += o.deallocs;
    leaked += o.leaked;
    return *this;
  }
  ReclaimStats operator-(const ReclaimStats& o) const {
    ReclaimStats r = *this;
    r.allocs -= o.allocs;
    r.pool_hits -= o.pool_hits;
    r.retires -= o.retires;
    r.deallocs -= o.deallocs;
    r.leaked -= o.leaked;
    return r;
  }
};

// Snapshot of one epoch domain's reclamation accounting (the domain
// current on the calling thread). `outstanding` counts retired-not-yet-
// freed records across every thread registered in the domain; `freed` is
// the domain's lifetime free count. Relaxed reads — exact only when the
// domain is quiescent, same contract as container size().
struct DomainReclaimStats {
  std::uint64_t outstanding = 0;
  std::uint64_t freed = 0;
  // Blocks currently banked in the CALLING thread's size-classed free
  // lists (EbrManager only; 0 for managers without pools). Thread-local
  // by construction — per-thread lists are the whole point — but surfaced
  // here so for_each_shard / bench teardown can report pool depth next to
  // the domain's limbo accounting.
  std::uint64_t pooled = 0;
};

// The compile-time face of the contract. alloc/retire/dealloc are member
// templates, so the concept probes them with a concrete stand-in type.
template <class M>
concept RecordManager = requires(int* p) {
  typename M::Guard;
  { M::kName } -> std::convertible_to<const char*>;
  { M::template alloc<int>(0) } -> std::same_as<int*>;
  { M::template retire<int>(p) };
  { M::template dealloc<int>(p) };
  { M::drain() };
  { M::stats() } -> std::same_as<ReclaimStats&>;
  { M::domain_stats() } -> std::same_as<DomainReclaimStats>;
};

// --- EbrManager: the default — slab-carved size classes under epoch grace
//
// Retired nodes wait out the epoch grace period (address stability is
// what the LLX/SCX proofs consume), but when the grace period elapses the
// storage goes to a per-thread free list instead of the allocator, and
// alloc() placement-news into a recycled block when one is available.
// Node churn (every SCX replaces nodes by design) then stops paying
// malloc/free on the steady state.
//
// Lists are keyed by SIZE CLASS, not by type (DESIGN.md §14): 16, 32 and
// 64 bytes, then 64-byte steps to 256, then powers of two to 16 KiB. A
// block allocated for any type in a class can be reused by any other type
// in that class — BST internal nodes recycle into Patricia leaves — so
// mixed-structure churn shares one pool instead of fragmenting across
// per-type lists. Types larger than the biggest class fall back to
// plain new/delete (still grace-deferred).
//
// PLACEMENT. Blocks are cut with a bump pointer from 64-byte-aligned
// slabs, never malloc'ed one by one: every class divides 64 or is a
// multiple of it, so a block of up to 64 bytes never straddles a cache
// line and carries no allocator header (a 56-byte tree node sits on one
// line at a 64-byte stride, where glibc's 80-byte chunks put three in
// four of them across two). A thread's alloc tries its free list, then
// its current slab (or its last draw from the process-wide DEPOT), then
// a new depot draw, then a new slab. A thread that exits hands its banked blocks and the uncut rest of its
// slabs to the depot, which a later thread draws from before it cuts new
// slab space. Slabs are never returned to malloc: memory is bounded by
// the peak number of live plus banked blocks, not by the current one.
//
// The reuse is exactly as safe as delete-then-malloc reuse: a block only
// reaches the pool after the same grace period that would have preceded
// its free. Under AddressSanitizer a banked block is poisoned until alloc
// hands it out again, each carved block is followed by a poisoned
// redzone and the uncut part of a slab stays poisoned, so a
// use-after-free, a double retire or an overflow past a node is still
// reported, as it would be for malloc'ed memory.
struct EbrManager {
  static constexpr const char* kName = "ebr";
  using Guard = Epoch::Guard;

  // Classes 0..5 are 16, 32, 64, 128, 192, 256 bytes; doubling classes
  // 6..11 cover 512..16384. Returns kNoSizeClass above that.
  static constexpr std::size_t kNumSizeClasses = 12;
  static constexpr std::size_t kNoSizeClass = ~std::size_t{0};
  static constexpr std::size_t kLineBytes = 64;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  static constexpr std::size_t size_class_of(std::size_t bytes) {
    if (bytes <= 16) return 0;
    if (bytes <= 32) return 1;
    if (bytes <= 256) return (bytes + 63) / 64 + 1;
    std::size_t cls = 6, cap = 512;
    while (cap < bytes) {
      cap <<= 1;
      if (++cls >= kNumSizeClasses) return kNoSizeClass;
    }
    return cls;
  }
  static constexpr std::size_t size_class_bytes(std::size_t cls) {
    if (cls < 2) return std::size_t{16} << cls;
    return cls < 6 ? (cls - 1) * 64 : std::size_t{512} << (cls - 6);
  }

  template <class T, class... Args>
  static T* alloc(Args&&... args) {
    constexpr std::size_t kCls = size_class_of(sizeof(T));
    // A class block is aligned to min(class, 64), and alignof(T) divides
    // sizeof(T) <= class; blocks above the classes come from operator new.
    static_assert(alignof(T) <= (kCls == kNoSizeClass
                                     ? __STDCPP_DEFAULT_NEW_ALIGNMENT__
                                     : kLineBytes),
                  "over-aligned type");
    ++stats().allocs;
    void* block;
    if constexpr (kCls == kNoSizeClass) {
      block = ::operator new(sizeof(T));
    } else {
      std::vector<void*>& fl = cache().cls[kCls].banked;
      if (!fl.empty()) {
        block = fl.back();
        fl.pop_back();
        ++stats().pool_hits;
      } else {
        block = fresh_block(kCls);
      }
      asan_unpoison(block, sizeof(T));
    }
    return ::new (block) T(std::forward<Args>(args)...);
  }

  template <class T>
  static void retire(T* p) {
    ++stats().retires;
    // Grace first, pool after: the deleter runs on the SCANNING thread
    // once no pre-retire guard survives, destroys the node, and banks the
    // storage in that thread's class list (per-thread lists, so no lock).
    Epoch::retire(p, [](void* q) {
      static_cast<T*>(q)->~T();
      bank<T>(q);
    });
  }

  template <class T>
  static void dealloc(T* p) {
    // Never published: no grace period owed; recycle immediately.
    ++stats().deallocs;
    p->~T();
    bank<T>(p);
  }

  static void drain() { Epoch::drain_all_for_testing(); }

  static DomainReclaimStats domain_stats() {
    std::uint64_t pooled = 0;
    for (const ClassCache& cc : cache().cls) pooled += cc.banked.size();
    return {Epoch::outstanding(), Epoch::total_freed(), pooled};
  }

  static ReclaimStats& stats() {
    thread_local ReclaimStats s;
    return s;
  }

  // Blocks banked in this thread's list for `cls` (test visibility).
  static std::size_t free_blocks(std::size_t cls) {
    return cls < kNumSizeClasses ? cache().cls[cls].banked.size() : 0;
  }

  // Slabs cut so far, process-wide (test visibility).
  static std::size_t slab_count() {
    Depot& d = depot();
    std::lock_guard<std::mutex> lock(d.mu);
    return d.slabs.size();
  }

  // Hand every block this thread holds — banked, drawn from the depot, or
  // still uncut in its slabs — to the depot, as thread exit does. Tests
  // that pin pool_hits deltas call this first so blocks left over from
  // earlier tests in the same size class cannot satisfy (and miscount) an
  // alloc: only this thread's free list counts as a pool hit.
  static void purge_thread_cache() { cache().to_depot(); }

 private:
#if LLXSCX_ASAN
  static constexpr std::size_t kRedzoneBytes = kLineBytes;
  static void asan_poison(void* q, std::size_t n) {
    __asan_poison_memory_region(q, n);
  }
  static void asan_unpoison(void* q, std::size_t n) {
    __asan_unpoison_memory_region(q, n);
  }
#else
  static constexpr std::size_t kRedzoneBytes = 0;
  static void asan_poison(void*, std::size_t) {}
  static void asan_unpoison(void*, std::size_t) {}
#endif

  // Distance between consecutive blocks of a class in a slab. Adding a
  // whole line of redzone keeps every block aligned to min(class, 64).
  static constexpr std::size_t stride(std::size_t cls) {
    return size_class_bytes(cls) + kRedzoneBytes;
  }
  static constexpr std::size_t blocks_per_slab(std::size_t cls) {
    return kSlabBytes / stride(cls);
  }

  template <class T>
  static void bank(void* q) {
    constexpr std::size_t kCls = size_class_of(sizeof(T));
    if constexpr (kCls == kNoSizeClass) {
      ::operator delete(q);
    } else {
      // A checked read first: under ASan, banking an already-banked block
      // (a double retire or dealloc) reads poisoned memory and is reported.
      if constexpr (LLXSCX_ASAN) (void)*static_cast<volatile const char*>(q);
      asan_poison(q, size_class_bytes(kCls));
      cache().cls[kCls].banked.push_back(q);
    }
  }

  // Process-wide home of blocks whose thread exited. Leaked like the
  // epoch's statics (reclaim/epoch.h): thread-exit hand-overs may run
  // during process teardown, and LeakSanitizer reaches every slab and
  // parked block through it.
  struct Depot {
    std::mutex mu;
    std::vector<void*> cls[kNumSizeClasses];  // guarded by mu
    std::vector<void*> slabs;                 // guarded by mu; never freed
  };
  static Depot& depot() {
    static Depot* d = new Depot;
    return *d;
  }

  // One thread's blocks of one class. Every block not handed out is
  // poisoned under ASan, wherever it sits.
  struct ClassCache {
    std::vector<void*> banked;  // LIFO free list: recycled blocks
    std::vector<void*> drawn;   // taken from the depot, not yet handed out
    char* cut = nullptr;        // bump pointer into the current slab
    char* end = nullptr;        // one past its last whole block
  };

  struct ThreadCache {
    ClassCache cls[kNumSizeClasses];

    void to_depot() {
      Depot& d = depot();
      std::lock_guard<std::mutex> lock(d.mu);
      for (std::size_t c = 0; c < kNumSizeClasses; ++c) {
        ClassCache& cc = cls[c];
        std::vector<void*>& pile = d.cls[c];
        pile.insert(pile.end(), cc.banked.begin(), cc.banked.end());
        pile.insert(pile.end(), cc.drawn.begin(), cc.drawn.end());
        for (; cc.cut != cc.end; cc.cut += stride(c)) pile.push_back(cc.cut);
        cc.banked.clear();
        cc.drawn.clear();
      }
    }
    ~ThreadCache() { to_depot(); }
  };

  static ThreadCache& cache() {
    thread_local ThreadCache tc;
    return tc;
  }

  // The free list is empty: take a block from the last depot draw or the
  // current slab (at most one of them is non-empty), else refill.
  static void* fresh_block(std::size_t c) {
    ClassCache& cc = cache().cls[c];
    if (cc.drawn.empty() && cc.cut == cc.end) refill(c, cc);
    if (!cc.drawn.empty()) {
      void* b = cc.drawn.back();
      cc.drawn.pop_back();
      return b;
    }
    void* b = cc.cut;
    cc.cut += stride(c);
    return b;
  }

  // Up to one slab's worth of blocks from the depot, else a new slab. The
  // caller may hold epoch guards, so the lock is never held across malloc.
  static void refill(std::size_t c, ClassCache& cc) {
    Depot& d = depot();
    {
      std::lock_guard<std::mutex> lock(d.mu);
      std::vector<void*>& pile = d.cls[c];
      if (!pile.empty()) {
        const auto from = pile.end() - static_cast<std::ptrdiff_t>(std::min(
                                            pile.size(), blocks_per_slab(c)));
        cc.drawn.assign(from, pile.end());
        pile.erase(from, pile.end());
        return;
      }
    }
    char* slab = static_cast<char*>(
        ::operator new(kSlabBytes, std::align_val_t{kLineBytes}));
    asan_poison(slab, kSlabBytes);
    {
      std::lock_guard<std::mutex> lock(d.mu);
      d.slabs.push_back(slab);
    }
    cc.cut = slab;
    cc.end = slab + blocks_per_slab(c) * stride(c);
  }
};

// --- LeakyManager: the no-free baseline (E8's ablation) -----------------
//
// retire() drops the node on the floor (nodes only: there are no
// descriptors to leak), so a long-running process grows without bound;
// the point of the ablation is to measure what that buys. The §3 usage
// assumption (a retired address never re-enters a mutable field) holds
// trivially: leaked addresses are never recycled. Guards are still epoch
// guards, so swapping the policy changes no guard behaviour in structure
// code.
struct LeakyManager {
  static constexpr const char* kName = "leaky";
  using Guard = Epoch::Guard;

  template <class T, class... Args>
  static T* alloc(Args&&... args) {
    ++stats().allocs;
    return new T(std::forward<Args>(args)...);
  }

  template <class T>
  static void retire(T*) {
    ++stats().retires;
    ++stats().leaked;  // deliberately never freed
  }

  template <class T>
  static void dealloc(T* p) {
    // Never published, so the leak rationale does not apply: free it.
    ++stats().deallocs;
    delete p;
  }

  static void drain() { Epoch::drain_all_for_testing(); }

  static DomainReclaimStats domain_stats() {
    return {Epoch::outstanding(), Epoch::total_freed()};
  }

  static ReclaimStats& stats() {
    thread_local ReclaimStats s;
    return s;
  }
};

static_assert(RecordManager<EbrManager>);
static_assert(RecordManager<LeakyManager>);

}  // namespace llxscx
