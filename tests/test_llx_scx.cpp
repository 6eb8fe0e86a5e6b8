// Single-thread (plus helping-correctness and thread-slot) unit tests
// pinning down the LLX/SCX invariants listed in DESIGN.md §7: snapshot
// semantics, commit, FINALIZED, conflict failure, VLX, the paper's
// uncontended step counts (claim C-A), and the per-thread descriptor's
// stale tags and slot reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "llxscx/llx_scx.h"
#include "util/stats.h"

namespace llxscx {
namespace {

struct Rec : DataRecord<2> {
  Rec(std::uint64_t a, std::uint64_t b) {
    mut(0).store(a, std::memory_order_relaxed);
    mut(1).store(b, std::memory_order_relaxed);
  }
};

TEST(LlxScx, LlxOnUnfrozenRecordReturnsFields) {
  Epoch::Guard g;
  Rec r(7, 9);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  EXPECT_FALSE(l.failed());
  EXPECT_FALSE(l.is_finalized());
  EXPECT_EQ(l.field(0), 7u);
  EXPECT_EQ(l.field(1), 9u);
}

TEST(LlxScx, ScxCommitsSingleRecordFieldUpdate) {
  Epoch::Guard g;
  Rec r(7, 9);
  auto l = llx(&r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  EXPECT_TRUE(scx(v, 1, 0, &r.mut(0), 7, 42));
  EXPECT_EQ(r.mut(0).load(), 42u);
  EXPECT_EQ(r.mut(1).load(), 9u);

  // The record is unfrozen again: a fresh LLX/SCX pair succeeds.
  auto l2 = llx(&r);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(l2.field(0), 42u);
  const LinkedLlx v2[1] = {l2.link()};
  EXPECT_TRUE(scx(v2, 1, 0, &r.mut(1), 9, 10));
  EXPECT_EQ(r.mut(1).load(), 10u);
}

TEST(LlxScx, LlxAfterFinalizeReturnsFinalized) {
  Epoch::Guard g;
  auto* r = new Rec(1, 2);
  auto l = llx(r);
  ASSERT_TRUE(l.ok());
  const LinkedLlx v[1] = {l.link()};
  ASSERT_TRUE(scx(v, 1, /*finalize r=*/0b1, &r->mut(0), 1, 1));

  auto l2 = llx(r);
  EXPECT_FALSE(l2.ok());
  EXPECT_TRUE(l2.is_finalized());
  EXPECT_FALSE(l2.failed());
  retire_record(r);
}

TEST(LlxScx, ScxWithStaleLlxSnapshotFails) {
  Epoch::Guard g;
  Rec r(1, 2);
  auto stale = llx(&r);
  ASSERT_TRUE(stale.ok());

  // An intervening committed SCX invalidates the stale link.
  auto fresh = llx(&r);
  ASSERT_TRUE(fresh.ok());
  const LinkedLlx vf[1] = {fresh.link()};
  ASSERT_TRUE(scx(vf, 1, 0, &r.mut(0), 1, 5));

  const LinkedLlx vs[1] = {stale.link()};
  EXPECT_FALSE(scx(vs, 1, 0, &r.mut(0), 1, 9));
  EXPECT_EQ(r.mut(0).load(), 5u) << "a failed SCX must not write fld";
}

TEST(LlxScx, MultiRecordScxFailsIfAnyRecordChanged) {
  Epoch::Guard g;
  Rec a(1, 0), b(2, 0);
  auto la = llx(&a);
  auto lb = llx(&b);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());

  // Change b behind the snapshot's back.
  auto lb2 = llx(&b);
  const LinkedLlx vb[1] = {lb2.link()};
  ASSERT_TRUE(scx(vb, 1, 0, &b.mut(0), 2, 3));

  const LinkedLlx v[2] = {la.link(), lb.link()};
  EXPECT_FALSE(scx(v, 2, 0, &a.mut(0), 1, 7));
  EXPECT_EQ(a.mut(0).load(), 1u);
}

TEST(LlxScx, VlxValidatesUnchangedRecordsAndDetectsChanges) {
  Epoch::Guard g;
  Rec a(1, 0), b(2, 0);
  auto la = llx(&a);
  auto lb = llx(&b);
  const LinkedLlx v[2] = {la.link(), lb.link()};
  EXPECT_TRUE(vlx(v, 2));

  auto lb2 = llx(&b);
  const LinkedLlx vb[1] = {lb2.link()};
  ASSERT_TRUE(scx(vb, 1, 0, &b.mut(0), 2, 3));
  EXPECT_FALSE(vlx(v, 2));
}

// Claim C-A (§1): an uncontended SCX over k records finalizing f of them
// performs exactly k+1 CAS and f+2 shared writes.
TEST(LlxScx, UncontendedScxStepCountsMatchClaimCA) {
  if (!kStepCounting) GTEST_SKIP() << "built with LLXSCX_COUNT_STEPS=OFF";
  Epoch::Guard g;
  constexpr int k = 3;
  constexpr int f = 2;
  Rec* recs[k];
  LinkedLlx v[k];
  for (int i = 0; i < k; ++i) {
    recs[i] = new Rec(1, 1);
    auto l = llx(recs[i]);
    ASSERT_TRUE(l.ok());
    v[i] = l.link();
  }
  const std::uint32_t mask = 0b110;  // finalize the last f records
  const StepCounts before = Stats::my_snapshot();
  ASSERT_TRUE(scx(v, k, mask, &recs[0]->mut(0), 1, 2));
  const StepCounts d = Stats::my_snapshot() - before;
  EXPECT_EQ(d.cas, static_cast<std::uint64_t>(k + 1));
  EXPECT_EQ(d.shared_writes, static_cast<std::uint64_t>(f + 2));
  for (auto* r : recs) retire_record(r);
}

// Each thread reuses one SCX-record, so the tag an SCX leaves in a
// record's info field outlives the SCX: once the thread runs more SCXs,
// the tag's seq has moved on, and the tag names a decided SCX.
TEST(LlxScx, StaleTagsNameDecidedScxs) {
  Epoch::Guard g;
  // A committed SCX over {p, q} that finalizes q.
  Rec p(1, 2), q(3, 4);
  const auto lp = llx(&p);
  const auto lq = llx(&q);
  ASSERT_TRUE(lp.ok() && lq.ok());
  const LinkedLlx vc[2] = {lp.link(), lq.link()};
  ASSERT_TRUE(scx(vc, 2, /*finalize q=*/0b10, &p.mut(0), 1, 5));
  const ScxTag committed = p.info_.load();
  ASSERT_EQ(q.info_.load(), committed);

  // An aborted SCX over {a, x, y}: x changed after its LLX, so the SCX
  // freezes a, fails at x and never reaches y.
  Rec a(0, 0), x(0, 0), y(0, 0);
  const auto la = llx(&a);
  const auto lx = llx(&x);
  const auto ly = llx(&y);
  ASSERT_TRUE(la.ok() && lx.ok() && ly.ok());
  {
    const auto lx2 = llx(&x);
    const LinkedLlx v[1] = {lx2.link()};
    ASSERT_TRUE(scx(v, 1, 0, &x.mut(0), 0, 1));
  }
  const LinkedLlx va[3] = {la.link(), lx.link(), ly.link()};
  ASSERT_FALSE(scx(va, 3, 0, &a.mut(0), 0, 9));
  const ScxTag aborted = a.info_.load();
  ASSERT_NE(aborted, la.link().info) << "a was frozen for the aborted SCX";
  ASSERT_EQ(y.info_.load(), ly.link().info) << "y was never reached";

  // More SCXs by this thread move its descriptor's seq on.
  Rec c(0, 0);
  for (int i = 0; i < 3; ++i) {
    const auto l = llx(&c);
    const LinkedLlx v[1] = {l.link()};
    ASSERT_TRUE(scx(v, 1, 0, &c.mut(0), l.field(0), l.field(0) + 1));
  }
  EXPECT_EQ(detail_state(committed), ScxRecord::kDecided);
  EXPECT_EQ(detail_state(aborted), ScxRecord::kDecided);

  // LLX of unmarked records still tagged by the old SCXs: snapshots.
  const auto lp2 = llx(&p);
  ASSERT_TRUE(lp2.ok());
  EXPECT_EQ(lp2.field(0), 5u);
  EXPECT_EQ(lp2.field(1), 2u);
  EXPECT_EQ(lp2.link().info, committed);
  const auto la2 = llx(&a);
  ASSERT_TRUE(la2.ok());
  EXPECT_EQ(la2.link().info, aborted);
  // LLX of the record the committed SCX finalized: FINALIZED.
  EXPECT_TRUE(llx(&q).is_finalized());
  // VLX and the range witness accept the old tags.
  const LinkedLlx vp[2] = {lp2.link(), la2.link()};
  EXPECT_TRUE(vlx(vp, 2));
  const LinkedLlx w = witness(&p);
  EXPECT_EQ(w.rec, &p);
  EXPECT_EQ(w.info, committed);
  EXPECT_EQ(witness(&a).info, aborted);

  // Helping an old tag changes no field, mark or info field — even with
  // the descriptor caught as its owner leaves it between the bump and the
  // first freeze of a newer SCX, whose fields would freeze y and write its
  // fld if a helper ran them under the old tag.
  ScxRecord& d = ScxSlots::record(ScxSlots::mine());
  const std::uint64_t next =
      (d.word_.load() >> ScxRecord::kStateBits) + 1;
  d.word_.store(next << ScxRecord::kStateBits);
  d.k_.store(1);
  d.finalize_mask_.store(0);
  d.fld_.store(&y.mut(0));
  d.old_.store(0);
  d.new_.store(7);
  d.v_[0].store(&y);
  d.info_fields_[0].store(y.info_.load());
  const auto state_of = [](const Rec& r) {
    return std::array<std::uint64_t, 4>{r.mut(0).load(), r.mut(1).load(),
                                        r.info_.load(), r.marked_.load()};
  };
  const Rec* recs[] = {&p, &q, &a, &x, &y, &c};
  std::vector<std::array<std::uint64_t, 4>> before;
  for (const Rec* r : recs) before.push_back(state_of(*r));
  EXPECT_FALSE(detail_help(committed));
  EXPECT_FALSE(detail_help(aborted));
  for (std::size_t i = 0; i < std::size(recs); ++i) {
    EXPECT_EQ(state_of(*recs[i]), before[i]) << "record " << i;
  }
}

// A thread that exits hands its descriptor slot back, and the next owner
// continues the slot's seq: threads run strictly one after another (each
// joined before the next starts) leave distinct tags and grow the
// registry by at most one slot.
TEST(LlxScx, ExitedThreadsSlotsAreReusedWithFreshTags) {
  constexpr int kThreads = 32;
  constexpr int kScxsEach = 4;
  Rec r(0, 0);
  const std::size_t slots_before = ScxSlots::created();
  std::vector<ScxTag> tags;
  for (int t = 0; t < kThreads; ++t) {
    std::thread th([&] {
      for (int i = 0; i < kScxsEach; ++i) {
        Epoch::Guard g;
        const auto l = llx(&r);
        ASSERT_TRUE(l.ok());
        const LinkedLlx v[1] = {l.link()};
        ASSERT_TRUE(scx(v, 1, 0, &r.mut(0), l.field(0), l.field(0) + 1));
        tags.push_back(r.info_.load());
      }
    });
    th.join();
  }
  EXPECT_EQ(r.mut(0).load(), std::uint64_t{kThreads * kScxsEach});
  ASSERT_EQ(tags.size(), std::size_t{kThreads * kScxsEach});
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(std::adjacent_find(tags.begin(), tags.end()), tags.end())
      << "a tag recurred";
  EXPECT_LE(ScxSlots::created(), slots_before + 1);
}

// Two threads hammering increments on the same record through LLX/SCX:
// the final value must equal the number of successful SCXs (no lost or
// duplicated updates even with helping in play).
TEST(LlxScx, ConcurrentIncrementsAreExact) {
  Rec r(0, 0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      std::uint64_t mine = 0;
      for (int i = 0; i < kPerThread; ++i) {
        Epoch::Guard g;
        auto l = llx(&r);
        if (!l.ok()) continue;
        const LinkedLlx v[1] = {l.link()};
        if (scx(v, 1, 0, &r.mut(0), l.field(0), l.field(0) + 1)) ++mine;
      }
      successes.fetch_add(mine);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(r.mut(0).load(), successes.load());
  EXPECT_GT(successes.load(), 0u);
}

}  // namespace
}  // namespace llxscx
