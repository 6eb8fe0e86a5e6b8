// Experiment E9 (extension) — the remaining LLX/SCX containers vs their
// default locked counterparts: stack, FIFO queue, and hash map.
//
// Not a table from the paper; it rounds out deliverable (d) for the
// structures built beyond the paper's multiset (stack, queue, hash map),
// using the same phase harness and the same single-core caveat as E2/E6.
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "bench/bench_common.h"
#include "ds/container_api.h"
#include "ds/hashmap_llxscx.h"
#include "ds/queue_llxscx.h"
#include "ds/stack_llxscx.h"
#include "util/random.h"

namespace llxscx {
namespace {

// The hash map is a key-value engine (DESIGN.md §9); the stack and queue
// are driven through their own push/pop and enqueue/dequeue verbs.
static_assert(LlxScxContainer<LlxScxHashMap>);

class LockedStack {
 public:
  void push(std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    d_.push_back(v);
  }
  std::optional<std::uint64_t> pop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (d_.empty()) return std::nullopt;
    const std::uint64_t v = d_.back();
    d_.pop_back();
    return v;
  }

 private:
  std::mutex mu_;
  std::deque<std::uint64_t> d_;
};

class LockedQueue {
 public:
  void enqueue(std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    d_.push_back(v);
  }
  std::optional<std::uint64_t> dequeue() {
    std::lock_guard<std::mutex> lock(mu_);
    if (d_.empty()) return std::nullopt;
    const std::uint64_t v = d_.front();
    d_.pop_front();
    return v;
  }

 private:
  std::mutex mu_;
  std::deque<std::uint64_t> d_;
};

class LockedHashMap {
 public:
  bool upsert(std::uint64_t k, std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    return m_.insert_or_assign(k, v).second;
  }
  bool erase(std::uint64_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    return m_.erase(k) > 0;
  }
  std::optional<std::uint64_t> get(std::uint64_t k) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = m_.find(k);
    if (it == m_.end()) return std::nullopt;
    return it->second;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> m_;
};

template <typename StackT>
double stack_cell(int threads) {
  StackT s;
  const auto r = bench::run_phase(
      threads, [&](int, const std::atomic<bool>& stop) -> std::uint64_t {
        std::uint64_t ops = 0, v = 1;
        while (!stop.load(std::memory_order_relaxed)) {
          s.push(v++);
          s.pop();
          ops += 2;
        }
        return ops;
      });
  return r.ops_per_sec();
}

template <typename QueueT>
double queue_cell(int threads) {
  QueueT q;
  const auto r = bench::run_phase(
      threads, [&](int, const std::atomic<bool>& stop) -> std::uint64_t {
        std::uint64_t ops = 0, v = 1;
        while (!stop.load(std::memory_order_relaxed)) {
          q.enqueue(v++);
          q.dequeue();
          ops += 2;
        }
        return ops;
      });
  return r.ops_per_sec();
}

template <typename MapT>
double map_cell(int threads, MapT& map) {
  const auto r = bench::run_phase(
      threads, [&](int t, const std::atomic<bool>& stop) -> std::uint64_t {
        Xoshiro256 rng(40 + t);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key = 1 + rng.below(512);
          const unsigned dice = static_cast<unsigned>(rng.below(100));
          if (dice < 15) {
            map.upsert(key, key);
          } else if (dice < 30) {
            map.erase(key);
          } else {
            map.get(key);
          }
          ++ops;
        }
        return ops;
      });
  return r.ops_per_sec();
}

void run() {
  std::printf("E9 (extension): stack / queue / hash map vs locked "
              "counterparts, %d ms per cell (ops/s)\n\n", bench::phase_millis());
  bench::Table t({"threads", "llxscx-stack", "locked-stack", "llxscx-queue",
                  "locked-queue", "llxscx-hashmap", "locked-hashmap"});
  for (int threads : bench::thread_grid({1, 2, 4})) {
    LlxScxHashMap lmap(1024);
    LockedHashMap kmap;
    t.add_row({std::to_string(threads),
               bench::fmt(stack_cell<LlxScxStack>(threads) / 1e6, 3) + "M",
               bench::fmt(stack_cell<LockedStack>(threads) / 1e6, 3) + "M",
               bench::fmt(queue_cell<LlxScxQueue>(threads) / 1e6, 3) + "M",
               bench::fmt(queue_cell<LockedQueue>(threads) / 1e6, 3) + "M",
               bench::fmt(map_cell(threads, lmap) / 1e6, 3) + "M",
               bench::fmt(map_cell(threads, kmap) / 1e6, 3) + "M"});
  }
  t.print();
  Epoch::drain_all_for_testing();
}

}  // namespace
}  // namespace llxscx

int main() {
  llxscx::run();
  return 0;
}
