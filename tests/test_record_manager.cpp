// RecordManager policy conformance (DESIGN.md §10): the two managers
// (EbrManager / LeakyManager) against the contract every structure relies
// on — alloc constructs, dealloc destroys immediately, retire destroys
// exactly once after a drain (or never, for the leaky policy, whose drop
// is itself pinned), pooled storage is observably reused — plus the
// checks that SCX descriptors never pass through the policy: an update
// allocates only its fresh nodes, and once drained, SCX churn on a few
// live records leaves only those records behind.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/hashmap_llxscx.h"
#include "reclaim/record_manager.h"

namespace llxscx {
namespace {

struct Payload {
  static std::atomic<int> live;       // constructed minus destroyed
  static std::atomic<int> destroyed;  // destructor runs (exactly-once net)

  explicit Payload(int v = 0) : value(v) { live.fetch_add(1); }
  ~Payload() {
    live.fetch_sub(1);
    destroyed.fetch_add(1);
  }
  int value;
};
std::atomic<int> Payload::live{0};
std::atomic<int> Payload::destroyed{0};

// LeakyManager drops retired payloads by design; parking them here keeps
// them reachable so the leak is the policy's documented behavior, not a
// sanitizer finding.
std::vector<Payload*>& leak_park() {
  static auto* v = new std::vector<Payload*>;
  return *v;
}

template <typename M>
class RecordManagerConformance : public ::testing::Test {};
using Managers = ::testing::Types<EbrManager, LeakyManager>;
TYPED_TEST_SUITE(RecordManagerConformance, Managers);

TYPED_TEST(RecordManagerConformance, SatisfiesConcept) {
  static_assert(RecordManager<TypeParam>);
  EXPECT_STRNE(TypeParam::kName, "");
}

TYPED_TEST(RecordManagerConformance, AllocConstructsDeallocDestroysNow) {
  const ReclaimStats before = TypeParam::stats();
  const int live0 = Payload::live.load();
  Payload* p = TypeParam::template alloc<Payload>(7);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 7);
  EXPECT_EQ(Payload::live.load(), live0 + 1);
  TypeParam::template dealloc<Payload>(p);
  EXPECT_EQ(Payload::live.load(), live0) << "dealloc owes no grace period";
  const ReclaimStats d = TypeParam::stats() - before;
  EXPECT_EQ(d.allocs, 1u);
  EXPECT_EQ(d.deallocs, 1u);
}

TYPED_TEST(RecordManagerConformance, RetireDestroysExactlyOnceAfterDrain) {
  constexpr int kN = 100;
  TypeParam::drain();
  const int live0 = Payload::live.load();
  const int destroyed0 = Payload::destroyed.load();
  for (int i = 0; i < kN; ++i) {
    Payload* p = TypeParam::template alloc<Payload>(i);
    if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
      leak_park().push_back(p);
    }
    TypeParam::template retire<Payload>(p);
  }
  TypeParam::drain();
  TypeParam::drain();  // a second drain must not double-destroy
  if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
    EXPECT_EQ(Payload::destroyed.load(), destroyed0)
        << "the leaky policy never runs destructors on retired nodes";
    EXPECT_EQ(Payload::live.load(), live0 + kN);
  } else {
    EXPECT_EQ(Payload::destroyed.load(), destroyed0 + kN)
        << "every retired node destroyed exactly once";
    EXPECT_EQ(Payload::live.load(), live0);
    EXPECT_EQ(Epoch::outstanding(), 0u) << "drain-to-zero";
  }
}

// A retire under a live guard must not destroy before the guard drops —
// the grace property every structure's traversals lean on. (Leaky holds
// it vacuously; asserting it for both keeps the contract uniform.)
TYPED_TEST(RecordManagerConformance, NoDestructionUnderLiveGuard) {
  TypeParam::drain();
  const int live0 = Payload::live.load();
  {
    typename TypeParam::Guard g;
    Payload* p = TypeParam::template alloc<Payload>(1);
    if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
      leak_park().push_back(p);
    }
    TypeParam::template retire<Payload>(p);
    // Churn enough retires to cross the epoch scan period several times:
    // our own guard must still hold p's destruction back.
    for (int i = 0; i < 1000; ++i) {
      Payload* q = TypeParam::template alloc<Payload>(i);
      if constexpr (std::is_same_v<TypeParam, LeakyManager>) {
        leak_park().push_back(q);
      }
      TypeParam::template retire<Payload>(q);
    }
    EXPECT_EQ(Payload::live.load(), live0 + 1001)
        << "nothing may be destroyed while this guard is live";
  }
  TypeParam::drain();
  if constexpr (!std::is_same_v<TypeParam, LeakyManager>) {
    EXPECT_EQ(Payload::live.load(), live0);
  }
}

// After a retire drains, the storage is handed back by the next alloc of
// the same type — observable both through the stats and as literal
// address reuse (per-thread LIFO free list ⇒ same block).
TEST(EbrManager, RetiredStorageIsReused) {
  struct PoolProbe {
    explicit PoolProbe(int v) : value(v) {}
    int value;
  };
  EbrManager::drain();
  // Free lists are size-classed, not per-type: blocks banked by earlier
  // tests in PoolProbe's class would satisfy (and miscount) the first
  // alloc below, so start from an empty thread cache.
  EbrManager::purge_thread_cache();
  const ReclaimStats before = EbrManager::stats();
  PoolProbe* first = EbrManager::alloc<PoolProbe>(1);
  const void* first_addr = first;
  EbrManager::retire(first);
  EbrManager::drain();  // grace elapses; block lands in THIS thread's pool
  PoolProbe* second = EbrManager::alloc<PoolProbe>(2);
  EXPECT_EQ(static_cast<const void*>(second), first_addr)
      << "LIFO per-thread pool must hand the drained block straight back";
  EXPECT_EQ(second->value, 2) << "placement-new re-ran the constructor";
  const ReclaimStats d = EbrManager::stats() - before;
  EXPECT_EQ(d.allocs, 2u);
  EXPECT_EQ(d.pool_hits, 1u) << "exactly the second alloc hit the pool";
  EbrManager::dealloc(second);
}

// An unpublished node (the ScxOp abort path) is recycled immediately —
// no drain needed for the pool to serve it back.
TEST(EbrManager, DeallocRecyclesWithoutGrace) {
  struct AbortProbe {
    int x = 0;
  };
  EbrManager::purge_thread_cache();  // same-class blocks from earlier tests
  const ReclaimStats before = EbrManager::stats();
  AbortProbe* p = EbrManager::alloc<AbortProbe>();
  const void* addr = p;
  EbrManager::dealloc(p);
  AbortProbe* q = EbrManager::alloc<AbortProbe>();
  EXPECT_EQ(static_cast<const void*>(q), addr);
  const ReclaimStats d = EbrManager::stats() - before;
  EXPECT_EQ(d.pool_hits, 1u);
  EbrManager::dealloc(q);
}

// A long whole-table walk must not stall other threads' reclamation: the
// hash map's occupancy()/size()/items() re-enter their epoch guard per
// bucket, so another thread's retire→drain completes WHILE the walk is
// still in flight. (The old single-guard walk pinned the epoch for the
// whole table: at millions of keys, unbounded garbage for everyone.) The
// walker publishes a generation counter — odd while inside one
// occupancy() call — and the test requires a payload retired after a walk
// began to be destroyed before that SAME walk ends.
TEST(EbrManagerWalks, OccupancyWalkDoesNotBlockAnotherThreadsDrain) {
  constexpr std::uint64_t kKeys = 60'000;
  BasicLlxScxHashMap<EbrManager> m(1);
  for (std::uint64_t k = 1; k <= kKeys; ++k) m.upsert(k, k);
  EbrManager::drain();

  std::atomic<std::uint64_t> gen{0};  // odd ⇔ a walk is in flight
  std::atomic<bool> stop{false};
  std::thread walker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      gen.fetch_add(1, std::memory_order_release);
      m.occupancy();
      gen.fetch_add(1, std::memory_order_release);
    }
  });

  bool drained_mid_walk = false;
  for (int attempt = 0; attempt < 50 && !drained_mid_walk; ++attempt) {
    // Catch the START of a fresh walk so most of it is still ahead.
    const std::uint64_t before = gen.load(std::memory_order_acquire);
    std::uint64_t g;
    do {
      g = gen.load(std::memory_order_acquire);
    } while (g == before || g % 2 == 0);
    const int destroyed0 = Payload::destroyed.load();
    Payload* p = EbrManager::alloc<Payload>(attempt);
    EbrManager::retire(p);
    while (gen.load(std::memory_order_acquire) == g) {
      EbrManager::drain();
      if (Payload::destroyed.load() > destroyed0) {
        // Destroyed while generation g's walk is still running — the
        // walk provably did not pin the epoch end to end.
        drained_mid_walk = gen.load(std::memory_order_acquire) == g;
        break;
      }
    }
  }
  stop.store(true);
  walker.join();
  EXPECT_TRUE(drained_mid_walk)
      << "a retire during an occupancy walk never drained until the walk "
         "ended — the walk is holding one guard across every bucket";
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// Each thread reuses one SCX-record for all its SCXs, so an update
// allocates through the policy only the nodes it installs. A BST insert
// builds three (the new internal node, the new leaf and a copy of the
// displaced leaf), an erase one (a copy of the sibling). With a descriptor
// per SCX these read 4 and 2.
TEST(EbrManager, UpdatesAllocateOnlyTheirNodes) {
  BasicLlxScxBst<EbrManager> t;
  ASSERT_TRUE(t.insert(10, 1));
  ASSERT_TRUE(t.insert(30, 3));
  ReclaimStats before = EbrManager::stats();
  ASSERT_TRUE(t.insert(20, 2));
  EXPECT_EQ((EbrManager::stats() - before).allocs, 3u) << "insert";
  before = EbrManager::stats();
  ASSERT_TRUE(t.erase(20));
  EXPECT_EQ((EbrManager::stats() - before).allocs, 1u) << "erase";
}

// SCX descriptors are never allocated or retired, so a record that SCXs
// keep re-freezing pins nothing: after a drain, everything these churns
// allocated has been retired except the live records.
TEST(EbrManager, DrainLeavesNoDescriptorHistory) {
  constexpr int kOps = 10'000;
  constexpr std::uint64_t kLiveSlack = 64;
  auto expect_bounded = [&](const ReclaimStats& before, const char* what) {
    EbrManager::drain();
    const ReclaimStats d = EbrManager::stats() - before;
    EXPECT_GE(d.retires + d.deallocs + kLiveSlack, d.allocs)
        << what << ": " << d.allocs << " allocs, only " << d.retires
        << " retires after drain";
  };

  EbrManager::drain();
  {
    const ReclaimStats before = EbrManager::stats();
    BasicLlxScxHashMap<EbrManager> m(1);
    for (int i = 0; i < kOps; ++i) m.upsert(7, i);
    expect_bounded(before, "1-bucket hash map, same-key upserts");
  }
  {
    const ReclaimStats before = EbrManager::stats();
    BasicLlxScxChromatic<EbrManager> t;
    for (int i = 0; i < kOps; ++i) {
      ASSERT_TRUE(t.insert(7, i));
      ASSERT_TRUE(t.erase(7));
    }
    expect_bounded(before, "chromatic tree, insert/erase of one key");
  }
  EbrManager::drain();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// Blocks come from line-aligned slabs cut at a multiple of their class:
// a 56-byte tree node sits alone on its cache line and a 48-byte hash-map
// node never straddles two. (With one malloc chunk per block, glibc's
// 80-byte chunks at 16-byte alignment put most tree nodes across a line.)
TEST(EbrManagerSlabs, NodesSitOnCacheLines) {
  constexpr int kN = 1000;
  constexpr std::uintptr_t kLine = 64;
  static_assert(sizeof(ChromaticNode) <= kLine);
  static_assert(sizeof(HashMapNode) <= kLine);
  std::vector<ChromaticNode*> tree_nodes;
  std::vector<HashMapNode*> map_nodes;
  for (int i = 0; i < kN; ++i) {
    tree_nodes.push_back(EbrManager::alloc<ChromaticNode>(
        static_cast<std::uint64_t>(i), std::uint64_t{0}, std::uint32_t{1}));
    map_nodes.push_back(EbrManager::alloc<HashMapNode>(
        static_cast<std::uint64_t>(i), std::uint64_t{0}, nullptr));
  }
  int misaligned = 0, straddling = 0;
  for (ChromaticNode* n : tree_nodes) {
    if (reinterpret_cast<std::uintptr_t>(n) % kLine != 0) ++misaligned;
  }
  for (HashMapNode* n : map_nodes) {
    const auto a = reinterpret_cast<std::uintptr_t>(n);
    if (a / kLine != (a + sizeof(HashMapNode) - 1) / kLine) ++straddling;
  }
  EXPECT_EQ(misaligned, 0) << "of " << kN << " chromatic nodes";
  EXPECT_EQ(straddling, 0) << "of " << kN << " hash-map nodes";
  for (ChromaticNode* n : tree_nodes) EbrManager::dealloc(n);
  for (HashMapNode* n : map_nodes) EbrManager::dealloc(n);
}

// A thread's blocks outlive it in the depot: threads started one at a
// time, each allocating and freeing a few thousand blocks, are served by
// their predecessors' blocks, so no slab is cut after the first thread.
TEST(EbrManagerSlabs, ExitedThreadsBlocksAreReused) {
  constexpr int kThreads = 16;
  constexpr int kBlocks = 4000;
  struct Block {
    char bytes[64];
  };
  std::size_t after_first = 0;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([] {
      std::vector<Block*> v;
      for (int i = 0; i < kBlocks; ++i) v.push_back(EbrManager::alloc<Block>());
      for (Block* b : v) EbrManager::dealloc(b);
    }).join();
    if (t == 0) after_first = EbrManager::slab_count();
  }
  EXPECT_LE(EbrManager::slab_count(), after_first)
      << "a later thread cut new slabs instead of reusing exited threads' "
         "blocks";
}

#if LLXSCX_ASAN
// Pool blocks keep ASan's overflow and use-after-free coverage: the byte
// past a live node is poisoned — the slack of its class block, or the
// redzone before the next block, even when that neighbour is live — and
// so is every byte of a banked block.
TEST(EbrManagerSlabs, AsanPoisonsPastLiveAndBankedBlocks) {
  struct Line {
    char bytes[64];
  };
  // Allocate until a slab is cut, then once more: the last two blocks are
  // neighbours in that slab, both live.
  std::vector<Line*> live;
  const std::size_t slabs0 = EbrManager::slab_count();
  while (EbrManager::slab_count() == slabs0) {
    live.push_back(EbrManager::alloc<Line>());
  }
  const char* first = live.back()->bytes;
  live.push_back(EbrManager::alloc<Line>());
  const char* second = live.back()->bytes;
  EXPECT_FALSE(__asan_address_is_poisoned(first));
  EXPECT_FALSE(__asan_address_is_poisoned(first + sizeof(Line) - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(first + sizeof(Line)))
      << "no redzone between two live neighbours";
  EXPECT_FALSE(__asan_address_is_poisoned(second));

  ChromaticNode* node = EbrManager::alloc<ChromaticNode>(
      std::uint64_t{1}, std::uint64_t{2}, std::uint32_t{1});
  const char* nb = reinterpret_cast<const char*>(node);
  EXPECT_FALSE(__asan_address_is_poisoned(nb + sizeof(ChromaticNode) - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(nb + sizeof(ChromaticNode)))
      << "the class block's slack past a live node is addressable";

  for (Line* l : live) EbrManager::dealloc(l);
  EbrManager::dealloc(node);
  EXPECT_TRUE(__asan_address_is_poisoned(first)) << "banked block addressable";
  EXPECT_TRUE(__asan_address_is_poisoned(first + sizeof(Line)))
      << "no redzone after a banked block";
  EXPECT_TRUE(__asan_address_is_poisoned(nb));
}
#endif

}  // namespace
}  // namespace llxscx
