// Shared helpers for the test binaries: the stress-duration knob, the
// multi-thread locked-oracle scaffolding that every structure's stress
// test used to copy-paste (barrier + stop flag + worker pool + batched
// delta tally), and the typed-suite scaffolding the cross-engine suites
// (conformance, batch) share: the key-value engine list and its family
// traits. The per-structure tests supply only the op mix and the final
// verification.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/hashmap_llxscx.h"
#include "ds/multiset_llxscx.h"
#include "ds/patricia_llxscx.h"
#include "reclaim/epoch.h"
#include "service/sharded_map.h"
#include "util/barrier.h"
#include "util/random.h"

// __SANITIZE_ADDRESS__ first: sanitizer headers (pulled in by
// reclaim/record_manager.h under ASan) define a stub __has_feature(x) as 0
// for GCC, which would hide ASan from the __has_feature branch.
#if defined(__SANITIZE_ADDRESS__)
#define LLXSCX_TEST_HAS_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LLXSCX_TEST_HAS_LSAN 1
#endif
#endif
#ifdef LLXSCX_TEST_HAS_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace llxscx::testing {

// The LeakyManager drops retired nodes by design (the E8 ablation). Tests
// that exercise it wrap the structure's lifetime in this guard so LSan
// attributes the deliberate leak to the policy instead of failing the
// run; outside ASan builds it is a no-op.
class ScopedExpectedLeak {
 public:
  ScopedExpectedLeak() {
#ifdef LLXSCX_TEST_HAS_LSAN
    __lsan_disable();
#endif
  }
  ~ScopedExpectedLeak() {
#ifdef LLXSCX_TEST_HAS_LSAN
    __lsan_enable();
#endif
  }
  ScopedExpectedLeak(const ScopedExpectedLeak&) = delete;
  ScopedExpectedLeak& operator=(const ScopedExpectedLeak&) = delete;
};

// Stress-phase duration: follows LLXSCX_BENCH_MS (like the bench harness)
// so the sanitizer CI jobs can downscale, defaulting to 2 s.
inline int stress_millis() {
  if (const char* env = std::getenv("LLXSCX_BENCH_MS")) {
    return std::max(1, std::atoi(env));
  }
  return 2000;
}

// Runs `threads` workers behind a common start line for stress_millis(),
// then flips the stop flag and joins. worker(thread_index, rng, stop)
// returns its completed-op count; the sum is returned. The rng is seeded
// per-thread from seed_base so runs are reproducible.
template <typename WorkerFn>
std::uint64_t run_stress_workers(int threads, unsigned seed_base,
                                 WorkerFn worker) {
  SpinBarrier barrier(threads + 1);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Xoshiro256 rng(seed_base + static_cast<unsigned>(t));
      barrier.arrive_and_wait();
      total_ops.fetch_add(worker(t, rng, stop));
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(stress_millis()));
  stop.store(true);
  for (auto& th : pool) th.join();
  return total_ops.load();
}

// The VLL-microbenchmark contention idiom (SNIPPETS.md §2): most
// operations land on a small hot-key set, the rest spread over a larger
// key space. Keys are 1-based so 0 stays available as a sentinel.
inline std::uint64_t skewed_key(Xoshiro256& rng, std::uint64_t hot_keys,
                                std::uint64_t key_space) {
  return rng.percent(80) ? 1 + rng.below(hot_keys) : 1 + rng.below(key_space);
}

// Mutex-protected net-per-key tally. Workers record through a thread-local
// Recorder that batches deltas (flushing every 128, and on destruction) so
// the oracle lock never serializes the structure under test — the exact
// scheme the copy-pasted stresses used.
class KeyedOracle {
 public:
  class Recorder {
   public:
    explicit Recorder(KeyedOracle& oracle) : oracle_(oracle) {}
    ~Recorder() { flush(); }
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    void add(std::uint64_t key, std::int64_t delta) {
      deltas_.emplace_back(key, delta);
      if (deltas_.size() >= 128) flush();
    }
    void flush() {
      if (deltas_.empty()) return;
      std::lock_guard<std::mutex> lock(oracle_.mu_);
      for (const auto& [k, d] : deltas_) oracle_.net_[k] += d;
      deltas_.clear();
    }

   private:
    KeyedOracle& oracle_;
    std::vector<std::pair<std::uint64_t, std::int64_t>> deltas_;
  };

  // Workers must have joined (Recorders destroyed) before reading.
  std::int64_t net(std::uint64_t key) const {
    const auto it = net_.find(key);
    return it == net_.end() ? 0 : it->second;
  }

 private:
  std::mutex mu_;
  std::map<std::uint64_t, std::int64_t> net_;
};

// --- typed-suite scaffolding (DESIGN.md §9, §12) --------------------------

// Every key-value engine: the five structures and ShardedMap around each.
using KvEngines = ::testing::Types<
    LlxScxMultiset, LlxScxHashMap, LlxScxBst, LlxScxPatricia, LlxScxChromatic,
    ShardedMap<LlxScxMultiset>, ShardedMap<LlxScxHashMap>,
    ShardedMap<LlxScxBst>, ShardedMap<LlxScxPatricia>,
    ShardedMap<LlxScxChromatic>>;

// The engine behind a front-end: identity for bare structures, Engine for
// ShardedMap<Engine> — semantic traits follow the engine.
template <class C>
struct EngineOf {
  using type = C;
};
template <class E, class S>
struct EngineOf<ShardedMap<E, S>> {
  using type = E;
};
template <class C>
using engine_t = typename EngineOf<C>::type;

// The multiset (it exposes delete_one()) is the one bag: duplicate inserts
// add copies and return true, and erase removes one copy. Every other
// engine is a map: a duplicate insert returns false.
template <class C>
constexpr bool kIsBag = requires(engine_t<C> e) { e.delete_one(1ull); };

// Drain the domains the container retires into, then report what is still
// outstanding. ShardedMap owns per-shard domains; bare engines retire into
// the thread's current (default) domain.
template <class C>
std::uint64_t drained_outstanding(const C& c) {
  if constexpr (requires {
                  c.drain_all();
                  c.reclaim_outstanding();
                }) {
    c.drain_all();
    return c.reclaim_outstanding();
  } else {
    (void)c;
    Epoch::drain_all_for_testing();
    return Epoch::outstanding();
  }
}

}  // namespace llxscx::testing
