// LLX/SCX — the paper's pragmatic primitives (§3), over multi-word
// Data-records.
//
//   LLX(r)            — load-link extended: returns a snapshot of r's
//                       mutable fields, or FAIL (r is frozen / changed
//                       underfoot), or FINALIZED (r was removed).
//   SCX(V, R, fld, …) — store-conditional extended: atomically verify that
//                       no record in V changed since this thread's LLX of
//                       it, write `new` into the single mutable field fld,
//                       and finalize the records in R. Lock-free;
//                       implemented with one freezing CAS per record plus
//                       one update CAS (the k+1 CAS of claim C-A).
//   VLX(V)            — validate-extended: k shared reads (claim C-C).
//
// Memory management: the paper allocates a fresh SCX-record per SCX and
// leaves its lifetime to a garbage collector (§6). Here every thread owns
// ONE immortal SCX-record and reuses it for every SCX it performs (after
// Arbel-Raviv & Brown, "Reuse, Don't Recycle", DISC 2017). A record's
// info field therefore holds a tag, not a pointer:
//
//   tag = (slot + 1) << kSeqBits | seq      (0 = never frozen)
//
// naming the descriptor slot and the sequence number of the SCX that
// froze it. A descriptor's state word holds seq << 3 | allFrozen | state;
// a new SCX bumps seq before it rewrites the operation fields (a seqlock
// writer), so a helper copies the fields between two reads of the word
// and stops if seq has moved on — that op is decided. Tags never recur,
// so info-field equality is change detection with no help from
// reclamation; epoch reclamation (reclaim/) covers Data-records only.
//
// Memory orders: every access uses the weakest order that preserves the
// happens-before edge the Fig. 2/Fig. 4 proofs need, named in a comment
// at each site; -DLLXSCX_RELAXED_ORDERS=0 restores seq_cst everywhere
// (util/memorder.h) for differential testing.
//
// Every shared step is instrumented through util/stats.h so E1/E7 can
// check the paper's step counts exactly.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "reclaim/record_manager.h"
#include "util/memorder.h"
#include "util/stats.h"

namespace llxscx {

class DataRecordBase;

// What a record's info field holds: the tag of the SCX that last froze it
// (layout in the header comment), or kNoScx if nothing ever did.
using ScxTag = std::uint64_t;
inline constexpr ScxTag kNoScx = 0;

// SCX-record: the operation descriptor (paper Fig. 1). Each thread owns one
// for its whole life and reuses it for every SCX it performs (ScxSlots
// below); helpers reach it through the tags of the records it freezes.
class alignas(64) ScxRecord {
 public:
  // V capacity. 16 covers every per-operation shape in ds/ (the widest is
  // the chromatic tree's k=5 rotations); the hash map's bucket-seal SCX
  // (freeze an ENTIRE chain in one commit, ds/hashmap_llxscx.h) is the one
  // consumer that needs headroom — its chains are capped well below this
  // by the resize trigger, and the slack absorbs concurrent inserts that
  // land between the trigger and the seal. Purely an array bound: k is a
  // runtime value, so the k+1-CAS / f+2-writes shapes are unaffected.
  static constexpr std::size_t kMaxV = 48;

  // Live-thread bound: a tag's high bits hold slot + 1.
  static constexpr std::size_t kMaxThreads = 1024;
  static constexpr unsigned kSeqBits = 53;
  static_assert(kMaxThreads < (std::uint64_t{1} << (64 - kSeqBits)));

  // The word's low bits. kDecided is never stored: it is what
  // detail_state() reports for a tag whose seq has moved on — that SCX is
  // decided, and LLX tells what it did from the record's mark (llx()).
  enum State : int {
    kInProgress = 0,
    kCommitted = 1,
    kAborted = 2,
    kDecided = 3
  };
  static constexpr unsigned kStateBits = 3;
  static constexpr std::uint64_t kStateMask = 3;
  static constexpr std::uint64_t kAllFrozen = 4;

  static constexpr ScxTag tag(std::size_t slot, std::uint64_t seq) {
    return (std::uint64_t{slot} + 1) << kSeqBits | seq;
  }
  static constexpr std::uint64_t seq_of(ScxTag t) {
    return t & ((std::uint64_t{1} << kSeqBits) - 1);
  }
  static constexpr std::size_t slot_of(ScxTag t) {
    return static_cast<std::size_t>(t >> kSeqBits) - 1;
  }

  // seq << kStateBits | allFrozen | state. Only the owner changes seq (a
  // plain store: the bump that starts its next SCX); within one seq,
  // helpers and the owner move allFrozen and state by CAS.
  std::atomic<std::uint64_t> word_{0};

  // The current seq's operation fields: written by the owner after the
  // bump, copied by helpers between two reads of word_ (detail_help).
  std::atomic<std::size_t> k_{0};
  std::atomic<std::uint64_t> finalize_mask_{0};  // 64-bit: indexes all of kMaxV
  std::atomic<std::atomic<std::uint64_t>*> fld_{nullptr};
  std::atomic<std::uint64_t> old_{0};
  std::atomic<std::uint64_t> new_{0};
  std::atomic<DataRecordBase*> v_[kMaxV] = {};
  std::atomic<ScxTag> info_fields_[kMaxV] = {};
};

// The descriptor registry: slot i's immortal SCX-record, and which slots
// have a live owner. A thread takes a slot at its first SCX and hands it
// back when it exits; the next owner continues the slot's seq, so tags
// never recur. More than kMaxThreads live SCX-running threads abort.
class ScxSlots {
 public:
  static ScxRecord& record(std::size_t slot) { return records_[slot]; }
  // The descriptor a tag names (t != kNoScx).
  static ScxRecord& of(ScxTag t) { return records_[ScxRecord::slot_of(t)]; }

  // The calling thread's slot, taken on first use.
  static std::size_t mine() {
    thread_local const Owner owner;
    return owner.slot;
  }

  // Slots ever handed out: the registry's high-water mark.
  static std::size_t created() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.created;
  }

 private:
  struct Registry {
    std::mutex mu;
    std::vector<std::size_t> free;  // slots whose owner exited
    std::size_t created = 0;
  };
  // Leaked: an Owner destructor may run during process teardown.
  static Registry& registry() {
    static Registry* r = new Registry;
    return *r;
  }

  struct Owner {
    std::size_t slot;
    Owner() : slot(take()) {}
    Owner(const Owner&) = delete;
    Owner& operator=(const Owner&) = delete;
    ~Owner() {
      Registry& r = registry();
      std::lock_guard<std::mutex> lock(r.mu);
      r.free.push_back(slot);
    }
  };
  static std::size_t take() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.free.empty()) {
      const std::size_t s = r.free.back();
      r.free.pop_back();
      return s;
    }
    if (r.created == ScxRecord::kMaxThreads) {
      std::fprintf(stderr, "llxscx: more than %zu live threads run SCX\n",
                   ScxRecord::kMaxThreads);
      std::abort();
    }
    return r.created++;
  }

  // Zero-initialized, so untouched slots cost no resident memory.
  static inline ScxRecord records_[ScxRecord::kMaxThreads];
};

// Non-template base so SCX-records and helpers handle records of any width.
class DataRecordBase {
 public:
  DataRecordBase() { Stats::count_alloc(); }
  DataRecordBase(const DataRecordBase&) = delete;
  DataRecordBase& operator=(const DataRecordBase&) = delete;

  std::atomic<ScxTag> info_{kNoScx};
  std::atomic<bool> marked_{false};
};

// A Data-record with NumMut mutable fields (each one CAS-able word).
// Immutable fields live in the derived struct as plain members. mut() is
// const so read-only accessors on derived types can use it.
template <std::size_t NumMut>
class DataRecord : public DataRecordBase {
 public:
  static constexpr std::size_t kNumMut = NumMut;

  std::atomic<std::uint64_t>& mut(std::size_t i) const { return mut_[i]; }

 private:
  mutable std::array<std::atomic<std::uint64_t>, NumMut> mut_ = {};
};

// What an LLX leaves behind for a later SCX/VLX: the record and the tag
// witnessed in its info field (the paper's per-process table, made
// explicit). Plain data — the record's validity is covered by the
// caller's Guard, which must span the LLX and the SCX/VLX that consumes
// it.
struct LinkedLlx {
  DataRecordBase* rec = nullptr;
  ScxTag info = kNoScx;
};

template <std::size_t NumMut>
class LlxResult {
 public:
  enum Status { kOk, kFail, kFinalized };

  static LlxResult ok(const std::array<std::uint64_t, NumMut>& f, LinkedLlx l) {
    LlxResult r;
    r.status_ = kOk;
    r.fields_ = f;
    r.link_ = l;
    return r;
  }
  static LlxResult fail() {
    LlxResult r;
    r.status_ = kFail;
    return r;
  }
  static LlxResult finalized() {
    LlxResult r;
    r.status_ = kFinalized;
    return r;
  }

  bool ok() const { return status_ == kOk; }
  bool failed() const { return status_ == kFail; }
  bool is_finalized() const { return status_ == kFinalized; }
  std::uint64_t field(std::size_t i) const { return fields_[i]; }
  LinkedLlx link() const { return link_; }

 private:
  Status status_ = kFail;
  std::array<std::uint64_t, NumMut> fields_ = {};
  LinkedLlx link_;
};

// The state of the SCX a tag names, from one read of its descriptor's
// word: kInProgress, kCommitted or kAborted while that SCX is its
// descriptor's current one, kDecided once the seq has moved on, and
// kAborted for kNoScx (a never-frozen record is unfrozen).
inline int detail_state(ScxTag t) {
  if (t == kNoScx) return ScxRecord::kAborted;
  // acquire: a Committed read makes the R-set marks visible (they precede
  // the committing CAS's release); so does a moved-on seq, because the
  // owner marks its R-set itself before its release bump.
  const std::uint64_t w = ScxSlots::of(t).word_.load(mo::acquire);
  return (w >> ScxRecord::kStateBits) == ScxRecord::seq_of(t)
             ? static_cast<int>(w & ScxRecord::kStateMask)
             : ScxRecord::kDecided;
}

// One SCX's operation fields: the owner passes its own, a helper a copy.
struct ScxFields {
  const LinkedLlx* v;
  std::size_t k;
  std::uint64_t finalize_mask;
  std::atomic<std::uint64_t>* fld;
  std::uint64_t old_val;
  std::uint64_t new_val;
};

// Help(U) — paper Fig. 3, for the SCX ⟨d, seq⟩ (tag `tag`): runs the
// freezing loop, then marks, updates fld, and commits. The allFrozen and
// state writes are CASes conditioned on seq, so a helper running late —
// its SCX decided and the descriptor reused — can never decide a newer
// one. Returns whether the SCX committed as far as the caller learned:
// the owner always learns the outcome; a helper that finds seq moved on
// returns false.
inline bool detail_run(ScxRecord& d, std::uint64_t seq, ScxTag tag,
                       const ScxFields& u) {
  const std::uint64_t in_progress = seq << ScxRecord::kStateBits;
  const std::uint64_t all_frozen = in_progress | ScxRecord::kAllFrozen;
  const auto frozen_all = [&](std::uint64_t w) {
    return (w & ~ScxRecord::kStateMask) == all_frozen;
  };
  for (std::size_t i = 0; i < u.k; ++i) {
    ScxTag witnessed = u.v[i].info;
    Stats::count_cas();  // freezing CAS (k of the k+1)
    // acq_rel success: release publishes the descriptor's fields to any
    // helper that acquire-loads r.info (the help handshake — transitively
    // re-publishes them when a helper, not the owner, wins the install).
    // acquire failure: the no-false-abort edge — a displacing SCX's
    // install is itself ordered after this SCX's decided state (its LLX
    // acquire-read that state), so the allFrozen CAS is visible to the
    // word load in this branch.
    if (u.v[i].rec->info_.compare_exchange_strong(witnessed, tag, mo::acq_rel,
                                                  mo::acquire) ||
        witnessed == tag) {
      continue;  // frozen for this SCX, by us or by another helper
    }
    // r is frozen for some other SCX. If allFrozen is already set, a
    // helper finished freezing before r moved on, so the SCX committed:
    // finish the idempotent commit phase below rather than return early,
    // so the owner returns only once the state is decided.
    Stats::count_read();
    // acquire: pairs with the allFrozen CAS's release (see the failure-
    // order comment above for why it is visible).
    std::uint64_t w = d.word_.load(mo::acquire);
    if (frozen_all(w)) break;
    Stats::count_write();
    // release: pairs with LLX's acquire state read — a reader that sees
    // Aborted is ordered after this helper's failed freeze attempt.
    w = in_progress;
    if (!d.word_.compare_exchange_strong(w, in_progress | ScxRecord::kAborted,
                                         mo::release, mo::acquire) &&
        frozen_all(w)) {
      break;
    }
    return false;  // aborted, by us or by another helper, or seq moved on
  }
  Stats::count_write();
  // release: orders the k winning/witnessed freezing CASes before the flag
  // — a helper that acquire-reads it may conclude "committed".
  std::uint64_t w = in_progress;
  if (!d.word_.compare_exchange_strong(w, all_frozen, mo::release,
                                       mo::acquire) &&
      !frozen_all(w)) {
    return false;  // aborted by another helper, or seq moved on
  }
  for (std::size_t i = 0; i < u.k; ++i) {
    if (u.finalize_mask & (std::uint64_t{1} << i)) {
      Stats::count_write();
      // relaxed: the mark needs no edge of its own — it is ordered before
      // the Committed CAS by that CAS's release (and, for the owner,
      // before its next bump), which is the edge LLX's marked2 re-read
      // consumes (Fig. 2's finalization gate).
      u.v[i].rec->marked_.store(true, mo::relaxed);
    }
  }
  std::uint64_t expected = u.old_val;
  Stats::count_cas();  // update CAS (the +1)
  // release success: publishes the fresh node's constructor writes before
  // its address becomes reachable (paired with the acquire traversal loads
  // in ds/ and LLX's acquire field loads). relaxed failure: a losing
  // helper learns nothing from fld's value.
  u.fld->compare_exchange_strong(expected, u.new_val, mo::release,
                                 mo::relaxed);
  Stats::count_write();
  // release: orders the R-set mark stores (and the update CAS) before the
  // state — LLX's acquire read of Committed therefore sees the marks
  // (the marked2 proof) and traversals that re-read fld see the update.
  // A failed CAS means another helper committed first, or the seq has
  // moved on, which it does only after the commit.
  w = all_frozen;
  d.word_.compare_exchange_strong(w, all_frozen | ScxRecord::kCommitted,
                                  mo::release, mo::relaxed);
  return true;
}

// Help a tagged SCX: copy its fields out of the descriptor between two
// reads of the descriptor's word (the seqlock reader) and run Fig. 3 on
// the copy. If seq has moved on at either read, the SCX is decided and
// there is nothing to help.
inline bool detail_help(ScxTag tag) {
  ScxRecord& d = ScxSlots::of(tag);
  const std::uint64_t seq = ScxRecord::seq_of(tag);
  const auto current = [&](std::memory_order o) {
    return (d.word_.load(o) >> ScxRecord::kStateBits) == seq;
  };
  if (!current(mo::acquire)) return false;
  // acquire on every field: a copied value written by a newer SCX carries
  // that SCX's bump (stored before it) to the re-read below.
  const std::size_t k = std::min(d.k_.load(mo::acquire), ScxRecord::kMaxV);
  LinkedLlx v[ScxRecord::kMaxV];
  for (std::size_t i = 0; i < k; ++i) {
    v[i] = {d.v_[i].load(mo::acquire), d.info_fields_[i].load(mo::acquire)};
  }
  const ScxFields u{v,
                    k,
                    d.finalize_mask_.load(mo::acquire),
                    d.fld_.load(mo::acquire),
                    d.old_.load(mo::acquire),
                    d.new_.load(mo::acquire)};
  // relaxed: the acquire loads above keep this re-read after them.
  if (!current(mo::relaxed)) return false;
  return detail_run(d, seq, tag, u);
}

// LLX(r) — paper Fig. 2.
//
// Preconditions:
//   - The caller holds a reclamation Guard, and keeps holding it
//     (reentrant nesting is fine) until after any SCX/VLX that consumes
//     the returned link. The guard is what keeps r (and every record a
//     helped SCX touches) allocated across that window.
//   - r was reached through the structure under that same guard (root,
//     or loaded from a field/LLX snapshot of a record so reached). A
//     pointer cached from before the guard began may already be freed.
//
// Returns one of:
//   - ok:        a consistent snapshot of r's mutable fields plus the
//                link a same-thread SCX/VLX needs. ok means r was not
//                finalized at the linearization point — it does NOT mean
//                r is still reachable by the time you act on it; SCX's
//                V-set check is what turns the link into an atomicity
//                guarantee.
//   - fail:      r was (or became) frozen for a concurrent SCX; this call
//                helped it along. Retry from a consistent point.
//   - finalized: r was removed by a committed SCX and will never be
//                mutable again. Callers should re-locate, not retry on r.
template <std::size_t NumMut>
LlxResult<NumMut> llx(const DataRecord<NumMut>* r) {
  Stats::llx_call();
  Stats::count_read(4);
  // acquire: keeps the info/state reads below ordered after this read —
  // the FINALIZED verdict depends on marked1 preceding the rinfo read.
  const bool marked1 = r->marked_.load(mo::acquire);
  // acquire: pairs with the freezing CAS's release install, making the
  // descriptor's operation fields visible before a helper copies them.
  const ScxTag rinfo = r->info_.load(mo::acquire);
  // acquire (inside detail_state): a Committed read, or a moved-on seq,
  // makes the R-set marks visible to marked2 below; it also opens the
  // snapshot window — the field reads cannot move before it.
  const int state = detail_state(rinfo);
  // Paper Fig. 2 reads the mark a SECOND time, after the state read, and
  // gates the snapshot on it. The re-read is load-bearing: Help() writes
  // the R-set marks after allFrozen but before state:=Committed, so a
  // single early mark read could see false, then observe Committed, and
  // hand out a snapshot of a record that is already finalized. A later
  // SCX could then re-freeze that finalized record (its info field never
  // changes again) and commit a change hanging off a removed subtree —
  // e.g. double-retiring a node a tree delete already retired.
  // relaxed: ordered after the state read by its acquire; visibility of
  // the marks comes from that read (previous comment).
  const bool marked2 = r->marked_.load(mo::relaxed);

  // kDecided reads like kCommitted: whatever the SCX did, r is unfrozen
  // unless that SCX marked it — and a marked record's info never changes
  // again, so a mark means rinfo names the committed SCX that set it.
  if (state == ScxRecord::kAborted ||
      (state != ScxRecord::kInProgress && !marked2)) {
    // r was unfrozen at the read of state: snapshot the mutable fields and
    // confirm no SCX intervened.
    std::array<std::uint64_t, NumMut> f;
    for (std::size_t i = 0; i < NumMut; ++i) {
      // acquire, twice over: (a) a snapshotted pointer may be dereferenced
      // by the caller, so the committing SCX's release update-CAS must
      // publish the pointee's constructor writes to us; (b) each acquire
      // pins the validating info re-read below AFTER this field read
      // (seqlock shape: the re-read must close the window, not open it).
      f[i] = r->mut(i).load(mo::acquire);
    }
    Stats::count_read(NumMut + 1);
    // relaxed: the acquire field loads above keep this re-read last; info
    // equality over the window proves no freeze (hence no field write)
    // intervened — tags never recur, so equality is change detection, not
    // ABA roulette.
    if (r->info_.load(mo::relaxed) == rinfo) {
      return LlxResult<NumMut>::ok(
          f, LinkedLlx{const_cast<DataRecord<NumMut>*>(r), rinfo});
    }
  }

  // r is (or was) frozen. If its freezer finalized it, report FINALIZED;
  // otherwise help whoever holds it and report FAIL. FINALIZED uses the
  // FIRST mark read (Fig. 2 line 8): marked1 was set before rinfo was
  // read, so the finalizing SCX is rinfo itself and its commit is what
  // justifies the verdict. The marked1-false/marked2-true race therefore
  // reports FAIL, and the caller's retry sees FINALIZED.
  bool committed =
      state == ScxRecord::kCommitted || state == ScxRecord::kDecided;
  if (state == ScxRecord::kInProgress) {
    Stats::helped();
    committed = detail_help(rinfo);
  }
  if (committed && marked1) return LlxResult<NumMut>::finalized();

  // acquire (and detail_state's): same install/decide edges as above —
  // the helper must see the current freezer's fields before copying them.
  const ScxTag cur = r->info_.load(mo::acquire);
  Stats::count_read(2);
  if (detail_state(cur) == ScxRecord::kInProgress) {
    Stats::helped();
    detail_help(cur);
  }
  Stats::llx_failed();
  return LlxResult<NumMut>::fail();
}

// SCX(V, R, fld, new) — paper Fig. 3. Commits iff no record in V changed
// since this thread's LLX of it; on commit, writes `new_val` into fld and
// finalizes the records selected by `finalize_mask`. A false return wrote
// nothing (any freezes it won were undone by helpers observing the abort).
//
// The paper's "new SCX-record" is a fresh seq of this thread's descriptor:
// nothing is allocated or retired, so the policy parameter is unused and
// stays only so policy-bound callers compile unchanged. Stats still
// counts one allocation per SCX, the paper's step model.
//
// Preconditions (the paper's §3 constraints plus this repo's memory rules):
//   - v[0..k) are links from THIS thread's LLXs, all taken and still
//     covered by the current Guard.
//   - fld is a mutable field of some record in V, and `old_val` is that
//     field's value FROM THE LLX SNAPSHOT — not from a later plain read.
//     (SCX success is defined by V-set stability; if old_val is stale the
//     update CAS silently misses and the commit still reports true.)
//   - Usage assumption (value ABA): `new_val` must never have appeared in
//     fld before. Every structure here satisfies it by only installing
//     pointers to nodes allocated within the current operation — see the
//     fresh-node discipline in ds/ and DESIGN.md §6/§8.
//   - Records in R stay permanently frozen; only the committing thread
//     may retire them (plus nodes made unreachable by the commit), via
//     retire_record, after scx returns true.
template <class Reclaim = EbrManager>
bool scx(const LinkedLlx* v, std::size_t k, std::uint64_t finalize_mask,
         std::atomic<std::uint64_t>* fld, std::uint64_t old_val,
         std::uint64_t new_val) {
  assert(k >= 1 && k <= ScxRecord::kMaxV);
  Stats::scx_call();
  Stats::count_alloc();  // the paper's new SCX-record
  const std::size_t slot = ScxSlots::mine();
  ScxRecord& d = ScxSlots::record(slot);
  // relaxed: only this thread changes seq, and its last bump (or the
  // previous owner's, handed over with the slot) is visible to it.
  const std::uint64_t seq =
      (d.word_.load(mo::relaxed) >> ScxRecord::kStateBits) + 1;
  // The seqlock writer's bump, before any field store. release: carries
  // this thread's marks for its previous SCX to an LLX that reads the
  // moved-on seq; and every field store below is a release store after
  // it, so a helper that copies a new field value also sees the bump.
  d.word_.store(seq << ScxRecord::kStateBits, mo::release);
  d.k_.store(k, mo::release);
  d.finalize_mask_.store(finalize_mask, mo::release);
  d.fld_.store(fld, mo::release);
  d.old_.store(old_val, mo::release);
  d.new_.store(new_val, mo::release);
  for (std::size_t i = 0; i < k; ++i) {
    d.v_[i].store(v[i].rec, mo::release);
    d.info_fields_[i].store(v[i].info, mo::release);
  }
  const bool ok =
      detail_run(d, seq, ScxRecord::tag(slot, seq),
                 ScxFields{v, k, finalize_mask, fld, old_val, new_val});
  if (!ok) Stats::scx_failed();
  return ok;
}

// VLX(V) — k shared reads (claim C-C): each record is unchanged since its
// LLX iff its info field still holds the linked tag. Same preconditions
// as scx(): same-thread links, one continuous Guard.
inline bool vlx(const LinkedLlx* v, std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) {
    Stats::count_read();
    // acquire: an unchanged verdict may be acted on by dereferencing the
    // snapshot, so it must carry the same install edge as LLX's info
    // loads. (Reordering among the k loads is harmless: "unchanged" is
    // monotone — once an info field moves on it never returns — so every
    // load certifying [llx_i, read_i] certifies the earliest read time.)
    if (v[i].rec->info_.load(mo::acquire) != v[i].info) {
      return false;
    }
  }
  return true;
}

// The range scan's VLX witness for r (ds/tree_template.h range()): two
// reads, no LLX. Returns ⟨r, info(r)⟩ if the SCX its tag names is decided
// (a moved-on seq is); helps an in-progress one and returns an empty link
// so the caller restarts.
inline LinkedLlx witness(const DataRecordBase* r) {
  Stats::count_read(2);
  const ScxTag info = r->info_.load(mo::acquire);
  if (detail_state(info) == ScxRecord::kInProgress) {
    detail_help(info);
    return {};
  }
  return {const_cast<DataRecordBase*>(r), info};
}

// Retire a removed Data-record that was allocated with plain `new`: epoch
// reclamation deletes it after the grace period (policy-parameterized
// callers go through LlxScxDomain/ScxOp instead).
// Call exactly once, from the thread whose committed SCX removed it —
// either a record in that SCX's R-set, or one made unreachable by the
// commit (the trees' removed leaf). Exactly-once is the structure's
// obligation: the SCX shapes must guarantee no two committed operations
// remove the same node (every conflicting pair shares a V-record that the
// first commit freezes or finalizes).
template <typename T>
void retire_record(T* r) {
  Epoch::retire(r);
}

// LlxScxDomain<Reclaim> — the primitives bound to one reclamation policy
// (the seam structures and the ScxOp builder go through, so swapping
// EbrManager/LeakyManager touches no structure code). The llx/scx/vlx
// algorithms are policy-independent; what the domain routes is every
// Data-record allocation and retirement, via
// make_record/retire_record/reclaim_now.
template <class Reclaim = EbrManager>
struct LlxScxDomain {
  static_assert(RecordManager<Reclaim>);
  using ReclaimPolicy = Reclaim;
  using Guard = typename Reclaim::Guard;

  template <class Node, class... Args>
  static Node* make_record(Args&&... args) {
    return Reclaim::template alloc<Node>(std::forward<Args>(args)...);
  }
  // Grace-period retirement of a node a committed SCX removed (same
  // exactly-once obligation as the free function above).
  template <class Node>
  static void retire_record(Node* r) {
    Reclaim::template retire<Node>(r);
  }
  // Immediate reclamation of a node that was never published (aborted
  // fresh allocations, quiescent teardown).
  template <class Node>
  static void reclaim_now(Node* r) {
    Reclaim::template dealloc<Node>(r);
  }

  template <std::size_t NumMut>
  static LlxResult<NumMut> llx(const DataRecord<NumMut>* r) {
    return llxscx::llx(r);
  }
  static bool scx(const LinkedLlx* v, std::size_t k,
                  std::uint64_t finalize_mask,
                  std::atomic<std::uint64_t>* fld, std::uint64_t old_val,
                  std::uint64_t new_val) {
    return llxscx::scx<Reclaim>(v, k, finalize_mask, fld, old_val, new_val);
  }
  static bool vlx(const LinkedLlx* v, std::size_t k) {
    return llxscx::vlx(v, k);
  }
};

}  // namespace llxscx
