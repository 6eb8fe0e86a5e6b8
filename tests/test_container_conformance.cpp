// Cross-engine container conformance (DESIGN.md §9, §12): one typed gtest
// suite instantiated over EVERY key-value engine — the five structures AND
// ShardedMap wrapped around each — replacing the per-structure basic
// sections that used to be copy-pasted across test binaries. This is the
// gate any future engine must pass: satisfy the concept, honor the
// insert/erase/contains return contract, report exact quiescent sizes,
// leave the epoch fully drained at teardown, and survive a 4-thread
// locked-oracle stress.
//
// Semantics differ by family only in duplicates (test_common.h kIsBag; a
// sharded wrapper inherits its engine's family): the multiset accepts a
// duplicate insert (true, one more copy), maps reject it (false).
//
// All inserts here use value/count 1 so "elements" and "size()" agree for
// the multiset (its insert(key, v) adds v copies).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "ds/container_api.h"
#include "reclaim/epoch.h"
#include "util/random.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

using testing::drained_outstanding;
using testing::engine_t;
using testing::kIsBag;

template <class C>
constexpr bool kIsSharded = !std::is_same_v<C, engine_t<C>>;

template <class C>
class ContainerConformance : public ::testing::Test {};

TYPED_TEST_SUITE(ContainerConformance, testing::KvEngines);

TYPED_TEST(ContainerConformance, SatisfiesConceptWithStableName) {
  static_assert(LlxScxContainer<TypeParam>);
  EXPECT_STRNE(TypeParam::kName, "");
  if constexpr (kIsSharded<TypeParam>) {
    // The compile-time name composition: "sharded+" ⊕ engine name.
    const std::string name = TypeParam::kName;
    EXPECT_EQ(name, std::string("sharded+") + engine_t<TypeParam>::kName);
  }
}

TYPED_TEST(ContainerConformance, EmptyContainerBehaves) {
  {
    TypeParam c;
    EXPECT_EQ(c.size(), 0u);
    EXPECT_FALSE(c.contains(7));
    EXPECT_FALSE(c.erase(7));  // nothing to remove
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

TYPED_TEST(ContainerConformance, InsertContainsEraseRoundTrip) {
  {
    TypeParam c;
    EXPECT_TRUE(c.insert(42, 1));
    EXPECT_TRUE(c.contains(42));
    EXPECT_EQ(c.size(), 1u);
    EXPECT_TRUE(c.erase(42));
    EXPECT_FALSE(c.contains(42));
    EXPECT_EQ(c.size(), 0u);
    EXPECT_FALSE(c.erase(42));  // absent again
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

TYPED_TEST(ContainerConformance, DuplicateInsertFollowsFamilySemantics) {
  {
    TypeParam c;
    EXPECT_TRUE(c.insert(5, 1));
    EXPECT_EQ(c.insert(5, 1), kIsBag<TypeParam>);
    EXPECT_TRUE(c.contains(5));
    EXPECT_EQ(c.size(), kIsBag<TypeParam> ? 2u : 1u);
    EXPECT_TRUE(c.erase(5));
    EXPECT_EQ(c.contains(5), kIsBag<TypeParam>);
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// The pinned size() contract (container_api.h): exact when quiescent.
// Deterministic single-thread mix first; the stress below re-asserts it
// after 4 contending workers JOIN (the quiescence satellite).
TYPED_TEST(ContainerConformance, SizeIsExactWhenQuiescent) {
  {
    TypeParam c;
    constexpr std::uint64_t kN = 300;
    for (std::uint64_t k = 1; k <= kN; ++k) EXPECT_TRUE(c.insert(k, 1));
    EXPECT_EQ(c.size(), kN);
    std::uint64_t removed = 0;
    for (std::uint64_t k = 1; k <= kN; k += 3) removed += c.erase(k) ? 1 : 0;
    EXPECT_EQ(c.size(), kN - removed);
    EXPECT_EQ(removed, (kN + 2) / 3);  // every erased key was present
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// 4-thread locked-oracle stress, the shared gate: net-per-key against a
// KeyedOracle (contains ⇔ net > 0, size == Σ net), then the quiescent-size
// assertion and a fully drained epoch.
TYPED_TEST(ContainerConformance, StressMatchesLockedOracle) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kHotKeys = 8;
  constexpr std::uint64_t kKeySpace = 128;  // 1-based: keys 1..128

  {
    TypeParam c;
    testing::KeyedOracle oracle;

    testing::run_stress_workers(
        kThreads, 7100,
        [&](int, Xoshiro256& rng, const std::atomic<bool>& stop) {
          testing::KeyedOracle::Recorder rec(oracle);
          std::uint64_t ops = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t key =
                testing::skewed_key(rng, kHotKeys, kKeySpace);
            const unsigned dice = static_cast<unsigned>(rng.below(100));
            if (dice < 50) {
              if (c.insert(key, 1)) rec.add(key, +1);
            } else if (dice < 90) {
              if (c.erase(key)) rec.add(key, -1);
            } else {
              (void)c.contains(key);
            }
            ++ops;
          }
          return ops;
        });

    // Quiescent now: workers joined, recorders flushed.
    std::int64_t oracle_total = 0;
    for (std::uint64_t k = 1; k <= kKeySpace; ++k) {
      const std::int64_t net = oracle.net(k);
      ASSERT_GE(net, 0) << "oracle net negative for key " << k;
      oracle_total += net;
      EXPECT_EQ(c.contains(k), net > 0) << "key " << k;
    }
    EXPECT_EQ(c.size(), static_cast<std::size_t>(oracle_total));
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// --- range / scan conformance (DESIGN.md §15) ------------------------------

// container_range over ANY engine equals the sorted filter of a quiescent
// oracle, and the output is strictly ascending — for sharded wrappers the
// ascending check IS the k-way-merge-ordered + duplicate-free claim; then
// container_scan stays in its window or limit. Distinct keys with
// value/count 1 so every family represents the state identically in its
// ⟨key, value⟩ view.
TYPED_TEST(ContainerConformance, RangeAndScanMatchSortedOracleQuiescent) {
  {
    TypeParam c;
    Xoshiro256 rng(0x7A4E);
    std::set<std::uint64_t> oracle;
    while (oracle.size() < 200) {
      const std::uint64_t k = 1 + rng.below(1000);
      if (oracle.insert(k).second) {
        ASSERT_TRUE(c.insert(k, 1));
      }
    }
    const std::pair<std::uint64_t, std::uint64_t> windows[] = {
        {0, ~std::uint64_t{0}}, {100, 500}, {1, 1}, {900, 2000}, {600, 599}};
    for (const auto& [lo, hi] : windows) {
      RangeOut expect;
      for (const std::uint64_t k : oracle) {
        if (k >= lo && k <= hi) expect.emplace_back(k, 1);
      }
      RangeOut got;
      EXPECT_EQ(container_range(c, lo, hi, got), expect.size())
          << "[" << lo << ", " << hi << "]";
      EXPECT_EQ(got, expect) << "[" << lo << ", " << hi << "]";
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_LT(got[i - 1].first, got[i].first)
            << "range output must be strictly ascending (ordered and "
               "duplicate-free)";
      }
    }
    // container_scan, the verb workload/driver.h runs. Ordered engines
    // (no scan_n) answer exactly the oracle's keys in [lo, lo+span−1],
    // ascending. Unordered engines (the hash map and its sharded wrapper)
    // answer scan_n: min(limit, size) distinct keys, none invented. The
    // windows start ON a key and end just BEFORE one, pinning both edges;
    // the last one saturates at the top of the key space.
    constexpr std::uint64_t kSpan = 100;
    constexpr std::size_t kLimit = 50;
    const std::uint64_t max = ~std::uint64_t{0};
    const std::uint64_t pivot = *oracle.upper_bound(500);
    for (const std::uint64_t lo : {std::uint64_t{0}, std::uint64_t{1}, pivot,
                                   pivot - kSpan, max - 10}) {
      const std::uint64_t hi = lo + (kSpan - 1) < lo ? max : lo + (kSpan - 1);
      RangeOut got = {{7, 7}};  // pre-existing content must be kept
      const std::size_t n = container_scan(c, lo, kSpan, kLimit, got);
      ASSERT_EQ(got.size(), n + 1) << "lo " << lo;
      EXPECT_EQ(got.front().first, 7u);
      got.erase(got.begin());
      if constexpr (!HasScanN<TypeParam>) {
        RangeOut expect;
        for (auto it = oracle.lower_bound(lo); it != oracle.upper_bound(hi);
             ++it) {
          expect.emplace_back(*it, 1);
        }
        EXPECT_EQ(got, expect) << "window [" << lo << ", " << hi << "]";
      } else {
        EXPECT_EQ(n, std::min(kLimit, oracle.size())) << "lo " << lo;
        std::set<std::uint64_t> seen;
        for (const auto& [key, v] : got) {
          EXPECT_TRUE(oracle.count(key)) << "scan invented key " << key;
          EXPECT_TRUE(seen.insert(key).second) << "scan repeated key " << key;
        }
      }
    }
    EXPECT_EQ(drained_outstanding(c), 0u);
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

// Scans under concurrent DISJOINT churn: stable keys 1000, 1002, ... stay
// put while updaters hammer 1..64. Every round's range over the stable
// window must return EXACTLY the stable evens — a never-inserted key in
// the window (or a missing stable key) is a torn read. Ends with the
// drain-to-zero assertion: scans must not strand garbage.
TYPED_TEST(ContainerConformance, RangeStableUnderDisjointChurn) {
  constexpr std::uint64_t kStableBase = 1000;
  constexpr std::size_t kStable = 64;  // evens present, odds never inserted
  constexpr int kUpdaters = 2;
  {
    TypeParam c;
    for (std::size_t i = 0; i < kStable; i += 2) {
      ASSERT_TRUE(c.insert(kStableBase + i, 1));
    }
    std::atomic<bool> stop{false};
    std::vector<std::thread> updaters;
    for (int t = 0; t < kUpdaters; ++t) {
      updaters.emplace_back([&c, &stop, t] {
        Xoshiro256 rng(0x5CAA + static_cast<unsigned>(t));
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key = 1 + rng.below(64);  // disjoint range
          if (rng.percent(50)) {
            c.insert(key, 1);
          } else {
            c.erase(key);
          }
        }
      });
    }
    RangeOut got;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(
            std::max<std::uint64_t>(100, testing::stress_millis() / 4));
    std::uint64_t rounds = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      got.clear();
      const std::size_t n =
          container_range(c, kStableBase, kStableBase + kStable - 1, got);
      ASSERT_EQ(n, kStable / 2) << "round " << rounds;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].first, kStableBase + 2 * i)
            << "round " << rounds
            << ": stable window torn (wrong/missing/invented key)";
      }
      ++rounds;
    }
    stop.store(true);
    for (auto& th : updaters) th.join();
    EXPECT_GT(rounds, 0u);
    EXPECT_EQ(drained_outstanding(c), 0u) << "drain-to-zero after scans";
  }
  Epoch::drain_all_for_testing();
  EXPECT_EQ(Epoch::outstanding(), 0u);
}

}  // namespace
}  // namespace llxscx
