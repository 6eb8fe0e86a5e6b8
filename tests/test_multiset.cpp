// Sequential semantics of the Fig. 6 multiset (DESIGN.md §6): multiplicity
// accounting, duplicate keys, ordered traversal, and empty-set edges — for
// both traversal flavors (plain reads and LLX-per-node), and for the MCAS
// and lock-based implementations E2 compares against.
#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/locks.h"
#include "ds/multiset_llxscx.h"
#include "ds/multiset_mcas.h"

#include "tests/test_common.h"

namespace llxscx {
namespace {

TEST(Multiset, EmptySetEdgeCases) {
  LlxScxMultiset ms;
  EXPECT_EQ(ms.get(1), 0u);
  EXPECT_EQ(ms.get(0), 0u);
  EXPECT_FALSE(ms.delete_one(1));
  EXPECT_EQ(ms.erase(42, 100), 0u);
  EXPECT_TRUE(ms.items().empty());
  EXPECT_EQ(ms.get_llx_traversal(1), 0u);
}

TEST(Multiset, InsertGetDeleteCounts) {
  LlxScxMultiset ms;
  EXPECT_TRUE(ms.insert(5, 1));
  EXPECT_EQ(ms.get(5), 1u);
  EXPECT_EQ(ms.get(4), 0u);
  EXPECT_EQ(ms.get(6), 0u);

  EXPECT_TRUE(ms.delete_one(5));
  EXPECT_EQ(ms.get(5), 0u);
  EXPECT_FALSE(ms.delete_one(5));
}

TEST(Multiset, DuplicateKeyMultiplicity) {
  LlxScxMultiset ms;
  ms.insert(10, 2);
  ms.insert(10, 3);
  EXPECT_EQ(ms.get(10), 5u);

  EXPECT_EQ(ms.erase(10, 2), 2u);
  EXPECT_EQ(ms.get(10), 3u);

  // Erasing more copies than exist removes the key and reports the actual
  // number removed.
  EXPECT_EQ(ms.erase(10, 99), 3u);
  EXPECT_EQ(ms.get(10), 0u);
  EXPECT_TRUE(ms.items().empty());
}

TEST(Multiset, OrderedTraversal) {
  LlxScxMultiset ms;
  const std::uint64_t keys[] = {9, 3, 7, 1, 5, 3};
  for (std::uint64_t k : keys) ms.insert(k, 1);

  const auto items = ms.items();
  ASSERT_EQ(items.size(), 5u);  // 3 collapses into one node with count 2
  std::uint64_t prev = 0;
  for (const auto& [key, count] : items) {
    EXPECT_GT(key, prev) << "keys must be strictly increasing";
    EXPECT_GT(count, 0u);
    prev = key;
  }
  EXPECT_EQ(items[1].first, 3u);
  EXPECT_EQ(items[1].second, 2u);
}

TEST(Multiset, LlxTraversalAgreesWithPlainReads) {
  LlxScxMultiset ms;
  for (std::uint64_t k = 1; k <= 32; ++k) ms.insert(k, k);
  for (std::uint64_t k = 1; k <= 32; ++k) {
    EXPECT_EQ(ms.get(k), k);
    EXPECT_EQ(ms.get_llx_traversal(k), k);
  }
  EXPECT_EQ(ms.get_llx_traversal(33), 0u);
  ms.erase(16, 16);
  EXPECT_EQ(ms.get_llx_traversal(16), 0u);
  EXPECT_EQ(ms.get(16), 0u);
}

TEST(Multiset, KeyZeroIsAValidKey) {
  LlxScxMultiset ms;
  ms.insert(0, 4);
  EXPECT_EQ(ms.get(0), 4u);
  EXPECT_EQ(ms.erase(0, 4), 4u);
  EXPECT_EQ(ms.get(0), 0u);
}

// The same semantic contract holds across the E2 comparison set.
template <typename MultisetT>
void check_common_semantics() {
  MultisetT ms;
  EXPECT_EQ(ms.get(7), 0u);
  EXPECT_TRUE(ms.insert(7, 2));
  EXPECT_TRUE(ms.insert(3, 1));
  EXPECT_TRUE(ms.insert(7, 1));
  EXPECT_EQ(ms.get(7), 3u);
  EXPECT_EQ(ms.get(3), 1u);
  EXPECT_EQ(ms.erase(7, 2), 2u);
  EXPECT_EQ(ms.get(7), 1u);
  EXPECT_EQ(ms.erase(7, 5), 1u);
  EXPECT_EQ(ms.erase(7, 1), 0u);
  EXPECT_EQ(ms.get(3), 1u);
}

TEST(Multiset, McasImplementationSemantics) {
  check_common_semantics<McasMultiset>();
  Epoch::drain_all_for_testing();
}

TEST(Multiset, FineLockImplementationSemantics) {
  check_common_semantics<FineListMultiset>();
  Epoch::drain_all_for_testing();
}

TEST(Multiset, CoarseLockImplementationSemantics) {
  check_common_semantics<CoarseMultiset>();
}

// The E8 no-free ablation is now just the LeakyManager policy: same
// structure code, retire() drops nodes on the floor (the old hand-rolled
// Leaky multiset variant is gone). The dropped nodes are the policy's
// documented leak — scoped out of LSan, not an accident.
TEST(Multiset, LeakyManagerPolicySameSemantics) {
  testing::ScopedExpectedLeak expected_leak;
  check_common_semantics<BasicLlxScxMultiset<LeakyManager>>();
}

}  // namespace
}  // namespace llxscx
