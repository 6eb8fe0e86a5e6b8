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
// Memory management: the paper assumes a garbage collector ("in other
// languages, such as C++, memory management is an issue", §6). Here the
// GC edges are made explicit: every SCX-record carries a reference count
// covering (a) Data-records whose info pointer is installed on it and
// (b) in-flight references held while an SCX is undecided — its
// creator's, helpers' transient ones, and the info_fields entries of an
// undecided SCX that name it. An SCX drops (b) as soon as it is decided,
// so a committed descriptor pins no history. A descriptor whose count
// drops to zero is retired through the reclamation policy that allocated
// it (reclaim/record_manager.h); every policy's Guard pins the epoch,
// which shields in-flight readers: any pointer loaded from a record's
// info field while a Guard is held stays valid (possibly dead, but never
// freed) until the guard drops — that is what makes using a displaced
// descriptor as a freezing-CAS expected value ABA-safe.
//
// Memory orders: every access uses the weakest order that preserves the
// happens-before edge the Fig. 2/Fig. 4 proofs need, named in a comment
// at each site; -DLLXSCX_RELAXED_ORDERS=0 restores seq_cst everywhere
// (util/memorder.h) for differential testing.
//
// Every shared step is instrumented through util/stats.h so E1/E7 can
// check the paper's step counts exactly.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "reclaim/record_manager.h"
#include "util/memorder.h"
#include "util/stats.h"

namespace llxscx {

class DataRecordBase;
class ScxRecord;

// SCX-record: the operation descriptor (paper Fig. 1). One is allocated per
// SCX attempt and shared with helpers through the records it freezes.
class ScxRecord {
 public:
  // V capacity. 16 covers every per-operation shape in ds/ (the widest is
  // the chromatic tree's k=5 rotations); the hash map's bucket-seal SCX
  // (freeze an ENTIRE chain in one commit, ds/hashmap_llxscx.h) is the one
  // consumer that needs headroom — its chains are capped well below this
  // by the resize trigger, and the slack absorbs concurrent inserts that
  // land between the trigger and the seal. Purely an array bound: k is a
  // runtime value, so the k+1-CAS / f+2-writes shapes are unaffected.
  static constexpr std::size_t kMaxV = 48;

  enum State : int { kInProgress = 0, kCommitted = 1, kAborted = 2 };

  ScxRecord() { Stats::count_alloc(); }

  // Reference counting (the explicit GC edges). try_acquire refuses a
  // descriptor already on its way to the epoch limbo list, so a reference
  // can never resurrect one.
  bool try_acquire() {
    // relaxed/acq_rel: the count carries no payload — the descriptor's
    // fields were already published to this thread by the acquire load of
    // the info field that produced the pointer; the acq_rel CAS keeps the
    // count's RMW chain intact for release() below.
    std::uint64_t c = refs_.load(mo::relaxed);
    while (c != 0) {
      if (refs_.compare_exchange_weak(c, c + 1, mo::acq_rel, mo::relaxed)) {
        return true;
      }
    }
    return false;
  }
  void release() {
    // acq_rel (the shared_ptr edge): release orders this owner's last use
    // of the descriptor before the decrement; acquire on the final
    // decrement orders the retirement after every other owner's last use.
    if (refs_.fetch_sub(1, mo::acq_rel) == 1) {
      reclaim_retire_(this);
    }
  }

  // Operation fields — written once by the creating thread in scx() before
  // the descriptor is published, read-only to helpers (except state_ /
  // all_frozen_, which helpers write).
  DataRecordBase* v_[kMaxV] = {};
  ScxRecord* info_fields_[kMaxV] = {};
  std::size_t k_ = 0;
  std::uint64_t finalize_mask_ = 0;  // 64-bit: must index all of kMaxV
  std::atomic<std::uint64_t>* fld_ = nullptr;
  std::uint64_t old_ = 0;
  std::uint64_t new_ = 0;
  std::atomic<int> state_{kInProgress};
  std::atomic<bool> all_frozen_{false};
  // How a zero-reference descriptor is reclaimed: set (pre-publication) by
  // the scx() that allocated it, to the retire() of that scx's policy.
  // Plain pointer: written before the first freezing CAS publishes the
  // descriptor.
  void (*reclaim_retire_)(ScxRecord*) = nullptr;

 private:
  std::atomic<std::uint64_t> refs_{1};  // creator's reference

  friend ScxRecord* detail_dummy_scx();
};

// The initial descriptor every fresh Data-record points at (state Aborted =
// "unfrozen"). Its reference count starts astronomically high so release()
// can treat it uniformly and it still never reaches the limbo list.
inline ScxRecord* detail_dummy_scx() {
  static ScxRecord* d = [] {
    auto* r = new ScxRecord;
    r->state_.store(ScxRecord::kAborted, std::memory_order_relaxed);
    r->refs_.store(std::uint64_t{1} << 62, std::memory_order_relaxed);
    return r;
  }();
  return d;
}

// Non-template base so SCX-records and helpers handle records of any width.
class DataRecordBase {
 public:
  DataRecordBase() : info_(detail_dummy_scx()) { Stats::count_alloc(); }
  ~DataRecordBase() {
    // Quiescent by contract (the record is past its grace period or was
    // never shared): drop the install edge to the current descriptor.
    info_.load(std::memory_order_relaxed)->release();
  }
  DataRecordBase(const DataRecordBase&) = delete;
  DataRecordBase& operator=(const DataRecordBase&) = delete;

  std::atomic<ScxRecord*> info_;
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

// What an LLX leaves behind for a later SCX/VLX: the record and the
// descriptor witnessed in its info field (the paper's per-process table,
// made explicit). Plain data — validity is covered by the caller's
// Guard, which must span the LLX and the SCX/VLX that consumes it.
struct LinkedLlx {
  DataRecordBase* rec = nullptr;
  ScxRecord* info = nullptr;
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

// Help(U) — paper Fig. 3. Runs the freezing loop, then marks, updates fld,
// and commits; any thread may execute it for any descriptor. Returns
// whether U committed.
inline bool detail_help(ScxRecord* u) {
  for (std::size_t i = 0; i < u->k_; ++i) {
    DataRecordBase* r = u->v_[i];
    ScxRecord* exp = u->info_fields_[i];
    ScxRecord* witnessed = exp;
    // Count the install edge BEFORE attempting to create it: if the count
    // could lag a won CAS (helper stalled between the two), every counted
    // reference could drain meanwhile and retire a descriptor that r's
    // info field still names — a dangling info pointer for any later LLX,
    // and a resurrection once the stalled helper resumed. try_acquire
    // failing means refs_ already hit zero, which implies u is decided
    // (the creator's reference is held until then): just report the
    // final state, there is no installing left to do.
    if (!u->try_acquire()) {
      return u->state_.load(mo::acquire) == ScxRecord::kCommitted;
    }
    Stats::count_cas();  // freezing CAS (k of the k+1)
    // acq_rel success: release publishes u's operation fields to any
    // helper that acquire-loads r.info (the help handshake — transitively
    // re-publishes them when a helper, not the creator, wins the install).
    // acquire failure: the no-false-abort edge — a displacing SCX's
    // install is itself ordered after u's decided state (its LLX
    // acquire-read that state), so the committer's allFrozen store below
    // is visible to the all_frozen_ load in this branch.
    if (r->info_.compare_exchange_strong(witnessed, u, mo::acq_rel,
                                         mo::acquire)) {
      // We won the install for (u, r): r's edge transfers from exp to the
      // reference pre-counted above.
      exp->release();
    } else if (witnessed == u) {
      // Another helper already froze r for U: drop the speculative
      // reference and keep going.
      u->release();
    } else {
      // r is frozen for some other SCX. If U already has allFrozen set, a
      // helper finished freezing before r moved on, so U committed: finish
      // the commit phase below rather than return early. The mark stores,
      // the update CAS and the Committed store are all idempotent, and
      // this way detail_help returns only once U's state is decided —
      // which scx() relies on to release U's info_fields_ references.
      Stats::count_read();
      // acquire: pairs with the committer's release store of all_frozen_
      // (see the failure-order comment above for why it is visible).
      if (u->all_frozen_.load(mo::acquire)) {
        u->release();  // drop the speculative reference
        break;
      }
      Stats::count_write();
      // release: pairs with LLX's acquire state read — a reader that sees
      // Aborted is ordered after this helper's failed freeze attempt.
      u->state_.store(ScxRecord::kAborted, mo::release);
      // Speculative reference dropped only after the last write to u —
      // if it is the final one, u goes to the limbo list right here.
      u->release();
      return false;
    }
  }
  Stats::count_write();
  // release: orders the k winning/witnessed freezing CASes before the flag
  // — a helper that acquire-reads true may conclude "U committed".
  u->all_frozen_.store(true, mo::release);
  for (std::size_t i = 0; i < u->k_; ++i) {
    if (u->finalize_mask_ & (std::uint64_t{1} << i)) {
      Stats::count_write();
      // relaxed: the mark needs no edge of its own — it is ordered before
      // the Committed state store by that store's release, which is the
      // edge LLX's marked2 re-read consumes (Fig. 2's finalization gate).
      u->v_[i]->marked_.store(true, mo::relaxed);
    }
  }
  std::uint64_t expected = u->old_;
  Stats::count_cas();  // update CAS (the +1)
  // release success: publishes the fresh node's constructor writes before
  // its address becomes reachable (paired with the acquire traversal loads
  // in ds/ and LLX's acquire field loads). relaxed failure: a losing
  // helper learns nothing from fld's value.
  u->fld_->compare_exchange_strong(expected, u->new_, mo::release,
                                   mo::relaxed);
  Stats::count_write();
  // release: orders the R-set mark stores (and the update CAS) before the
  // state — LLX's acquire read of Committed therefore sees the marks
  // (the marked2 proof) and traversals that re-read fld see the update.
  u->state_.store(ScxRecord::kCommitted, mo::release);
  return true;
}

// LLX(r) — paper Fig. 2.
//
// Preconditions:
//   - The caller holds a reclamation Guard, and keeps holding it
//     (reentrant nesting is fine) until after any SCX/VLX that consumes
//     the returned link. The guard is what keeps both r and the witnessed
//     descriptor alive across that window.
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
  // descriptor's operation fields visible before rinfo is dereferenced.
  ScxRecord* rinfo = r->info_.load(mo::acquire);
  // acquire: a Committed read makes the R-set marks visible to marked2
  // below (they precede the state's release store); it also opens the
  // snapshot window — the field reads cannot move before it.
  const int state = rinfo->state_.load(mo::acquire);
  // Paper Fig. 2 reads the mark a SECOND time, after the state read, and
  // gates the snapshot on it. The re-read is load-bearing: Help() writes
  // the R-set marks after allFrozen but before state:=Committed, so a
  // single early mark read could see false, then observe Committed, and
  // hand out a snapshot of a record that is already finalized. A later
  // SCX could then re-freeze that finalized record (its info field never
  // changes again) and commit a change hanging off a removed subtree —
  // e.g. double-retiring a node a tree delete already retired.
  // relaxed: ordered after the state read by its acquire; visibility of
  // the marks comes from the state store's release (previous comment).
  const bool marked2 = r->marked_.load(mo::relaxed);

  if (state == ScxRecord::kAborted ||
      (state == ScxRecord::kCommitted && !marked2)) {
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
    // intervened — descriptor addresses cannot recur under our Guard, so
    // pointer equality is change-detection, not ABA roulette.
    if (r->info_.load(mo::relaxed) == rinfo) {
      return LlxResult<NumMut>::ok(
          f, LinkedLlx{const_cast<DataRecord<NumMut>*>(r), rinfo});
    }
  }

  // r is (or was) frozen. If its freezer finalized it, report FINALIZED;
  // otherwise help whoever holds it and report FAIL. FINALIZED uses the
  // FIRST mark read (Fig. 2 line 8): marked1 was set before rinfo was
  // read, so the finalizing descriptor is rinfo itself (or earlier) and
  // its commit is what justifies the verdict. The marked1-false/
  // marked2-true race therefore reports FAIL, and the caller's retry
  // sees FINALIZED.
  bool committed = state == ScxRecord::kCommitted;
  if (state == ScxRecord::kInProgress) {
    Stats::helped();
    committed = detail_help(rinfo);
  }
  if (committed && marked1) return LlxResult<NumMut>::finalized();

  // acquire ×2: same install/decide edges as above — the helper must see
  // the current freezer's operation fields before running Help on it.
  ScxRecord* cur = r->info_.load(mo::acquire);
  Stats::count_read(2);
  if (cur->state_.load(mo::acquire) == ScxRecord::kInProgress) {
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
// The Reclaim policy supplies the descriptor's storage and its eventual
// retirement path through its ordinary alloc/retire/dealloc
// (reclaim/record_manager.h).
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
  ScxRecord* u = Reclaim::template alloc<ScxRecord>();
  u->reclaim_retire_ = [](ScxRecord* d) {
    Reclaim::template retire<ScxRecord>(d);
  };
  u->k_ = k;
  u->finalize_mask_ = finalize_mask;
  u->fld_ = fld;
  u->old_ = old_val;
  u->new_ = new_val;
  for (std::size_t i = 0; i < k; ++i) {
    u->v_[i] = v[i].rec;
    u->info_fields_[i] = v[i].info;
    if (!v[i].info->try_acquire()) {
      // v[i].info already hit zero references, so v[i].rec has been
      // re-frozen since the LLX: this SCX must fail. u was never
      // published, so it can be reclaimed in place once the references
      // acquired so far are released.
      for (std::size_t j = 0; j < i; ++j) u->info_fields_[j]->release();
      Reclaim::template dealloc<ScxRecord>(u);
      Stats::scx_failed();
      return false;
    }
  }
  const bool ok = detail_help(u);
  // u is decided now (detail_help returns only then), so its expected
  // values are dead weight: release them, and a committed descriptor pins
  // no history. Helpers still inside detail_help(u) stay safe: each one
  // saw u in progress under its guard, before this release, so any
  // descriptor it releases is retired after that guard began and EBR
  // keeps its address from recurring until the guard drops (DESIGN.md §2).
  for (std::size_t i = 0; i < k; ++i) u->info_fields_[i]->release();
  u->release();  // creator's reference
  if (!ok) Stats::scx_failed();
  return ok;
}

// VLX(V) — k shared reads (claim C-C): each record is unchanged since its
// LLX iff its info field still names the linked descriptor. Same
// preconditions as scx(): same-thread links, one continuous Guard.
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
// (the tentpole seam: structures and the ScxOp builder go through this,
// so swapping EbrManager/LeakyManager touches no structure code). The
// llx/scx/vlx algorithms are policy-independent; what the domain routes is
// every allocation and every retirement: Data-records via
// make_record/retire_record/reclaim_now, descriptors inside scx().
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
