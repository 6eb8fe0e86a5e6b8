// perfbench: closed-loop benchmark of the sharded KV front-end
// (ShardedMap, src/service/sharded_map.h). README.md in this directory
// describes the workloads, the metrics and the layer map; run.py builds
// this file three ways and turns its output into the benchmark's result:
//
//   perfbench_e2e    LLXSCX_COUNT_STEPS=0  end-to-end metrics
//   perfbench_trace  LLXSCX_COUNT_STEPS=1  + spans, per-op step snapshots,
//                                          per-window domain counters and
//                                          the calibration rungs
//   perfbench_fault  LLXSCX_COUNT_STEPS=0  engine wrapper that drops one
//                                          insert in PERFBENCH_FAULT_EVERY
//
// Usage: <binary> --workload <name> --seed <n> --seconds <s>
//                 [--rounds <n>] [--smoke] [--spans <file>]
//
// A run is the workload's rounds (set-up, then --seconds/rounds measured);
// --rounds n stops after the first n of them.
//
// Load is closed loop from 4 in-process client threads. Every thread's op
// and key sequence is generated from --seed before any timing starts. The
// binary prints human-readable lines, then as its LAST line one JSON
// object with the raw measurements. It exits 1 when an output check
// failed, 2 on a usage error.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ds/chromatic_llxscx.h"
#include "ds/hashmap_llxscx.h"
#include "llxscx/llx_scx.h"
#include "reclaim/epoch.h"
#include "reclaim/record_manager.h"
#include "service/batch.h"
#include "service/sharded_map.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/key_stream.h"
#include "workload/op_mix.h"

#ifndef PERFBENCH_TRACE
#define PERFBENCH_TRACE 0
#endif
#ifndef PERFBENCH_FAULT_EVERY
#define PERFBENCH_FAULT_EVERY 0
#endif

namespace {

using namespace llxscx;
using workload::OpType;

constexpr bool kTrace = PERFBENCH_TRACE != 0;
constexpr int kThreads = 4;
constexpr std::size_t kShards = 4;
constexpr std::uint64_t kScanSpan = 100;  // keys per range window
constexpr std::size_t kBatch = 8;         // ops per apply_batch call

// ---------------------------------------------------------------- workloads

enum class EngineKind { kChromatic, kHashMap };
// Latency classes: what one timed client call is.
enum Cls : unsigned { kRead, kUpdate, kScan, kBatchCall, kNumCls };
constexpr const char* kClsName[kNumCls] = {"read", "update", "scan", "batch"};

struct Workload {
  const char* name;
  EngineKind engine;
  unsigned space_bits;        // key space 2^bits; half of it is loaded
  unsigned smoke_space_bits;  // the same with --smoke
  bool zipf;                  // zipfian theta 0.99, else uniform
  unsigned read_pm, insert_pm, erase_pm, scan_pm;  // per mille, sum 1000
  bool batched;               // ops issued as kBatch-op apply_batch calls
  Cls primary;                // the call the p50/p99 metrics time
  int rounds;                 // maps measured per run; --seconds is split evenly
  int setups;                 // timed set-ups per round; the last is measured
  double mem_mops;            // resident memory is sampled after this many
                              // million ops since set-up (1/64 with --smoke)
};

// mem_mops is reached about halfway through a round at the throughput
// measured when these workloads were sized (README.md).
constexpr Workload kWorkloads[] = {
    {"read-zipf", EngineKind::kChromatic, 21, 14, true, 950, 25, 25, 0,
     false, kRead, 3, 1, 4},
    // Four shorter rounds: every update currently leaves ~0.7 KB resident
    // until its map is destroyed, and churn-small updates at ~1 Mops/s.
    // Its set-up takes only 40-150 ms, so five per round give setup_s
    // more samples.
    {"churn-small", EngineKind::kChromatic, 16, 12, false, 0, 500, 500, 0,
     false, kUpdate, 4, 5, 2},
    {"scan-window", EngineKind::kChromatic, 20, 14, false, 0, 25, 25, 950,
     false, kScan, 3, 1, 0.4},
    // Key space 2^17: at 2^21 (2.4 GB resident) runs spread 20-30% with
    // the DRAM contention of a shared host, and at 2^18 (~L3-sized) they
    // split into a fast and a slow mode. This workload is for the hash
    // engine and the batch layer; working-set size is read-zipf's job.
    {"batch-hash", EngineKind::kHashMap, 17, 14, false, 900, 50, 50, 0, true,
     kBatchCall, 3, 3, 20},
};

Cls cls_of(OpType t) {
  switch (t) {
    case OpType::kRead: return kRead;
    case OpType::kInsert:
    case OpType::kErase: return kUpdate;
    case OpType::kScan: return kScan;
  }
  return kRead;
}

// An op is a key in the low bits and its OpType in the top two bits, so a
// thread's whole sequence is one flat array streamed by the timed loop.
constexpr unsigned kTypeShift = 62;
std::uint64_t pack(OpType t, std::uint64_t key) {
  return key | (static_cast<std::uint64_t>(t) << kTypeShift);
}
OpType type_of(std::uint64_t op) {
  return static_cast<OpType>(op >> kTypeShift);
}
std::uint64_t key_of(std::uint64_t op) {
  return op & ((std::uint64_t{1} << kTypeShift) - 1);
}

std::uint64_t value_of(std::uint64_t key) { return key * 3 + 7; }

// Bijection on [0, 2^bits): spreads zipfian ranks over the key space, so
// hot keys are scattered through every shard's tree instead of packed
// into one corner of it (YCSB's scrambled zipfian).
std::uint64_t scramble(std::uint64_t x, unsigned bits) {
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const unsigned half = bits / 2;
  x = (x * 0x9E3779B97F4A7C15ull) & mask;
  x ^= x >> half;
  x = (x * 0xBF58476D1CE4E5B9ull) & mask;
  x ^= x >> half;
  return x;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return Xoshiro256(seed * 0x100000001B3ull + stream).next();
}

// ------------------------------------------------------------------ engines

#if PERFBENCH_FAULT_EVERY > 0
// Self-test engine: every PERFBENCH_FAULT_EVERY-th insert on a thread
// reports success without inserting. The conservation check must catch
// it and the run must fail.
template <class E>
class DropInserts {
 public:
  static constexpr const char* kName = E::kName;
  bool insert(std::uint64_t key, std::uint64_t value) {
    thread_local std::uint64_t calls = 0;
    if (++calls % PERFBENCH_FAULT_EVERY == 0) return true;
    return inner_.insert(key, value);
  }
  bool erase(std::uint64_t key) { return inner_.erase(key); }
  bool contains(std::uint64_t key) const { return inner_.contains(key); }
  std::size_t size() const { return inner_.size(); }
  void multi_get(const std::uint64_t* keys, std::size_t n, bool* out) const
    requires HasMultiGet<E>
  {
    inner_.multi_get(keys, n, out);
  }
  std::size_t range(std::uint64_t lo, std::uint64_t hi, RangeOut& out) const
    requires HasRange<E>
  {
    return inner_.range(lo, hi, out);
  }
  RangeOut items() const
    requires HasItems<E>
  {
    return inner_.items();
  }
  const E& inner() const { return inner_; }

 private:
  E inner_;
};
template <class E>
using Engine = DropInserts<E>;
template <class E>
const auto& base_engine(const DropInserts<E>& e) {
  return e.inner();
}
#else
template <class E>
using Engine = E;
template <class E>
const E& base_engine(const E& e) {
  return e;
}
#endif

template <class E>
using Map = ShardedMap<Engine<E>>;

// ------------------------------------------------------------------- timing

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) { return (now_ns() - t0) * 1e-9; }

std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// Client t runs on CPU t (when the host has that many), so the scheduler
// does not migrate clients between cores during a measured phase.
void pin_to_cpu(int cpu) {
  if (cpu >= static_cast<int>(std::thread::hardware_concurrency())) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

template <class Fn>
void run_threads(int n, Fn&& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ts.emplace_back(fn, i);
  for (auto& t : ts) t.join();
}

// Value at quantile q of v (nearest rank; v is reordered).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

// ------------------------------------------------------------------ tracing

// One span: a client call (root, parent 0) or the front-end call it made.
// Span ids carry the client in their top bits, so they are unique per run.
struct Span {
  std::uint64_t op_id;
  std::uint32_t id;
  std::uint32_t parent;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

const char* service_span_name(OpType t) {
  switch (t) {
    case OpType::kRead: return "service.contains";
    case OpType::kInsert: return "service.insert";
    case OpType::kErase: return "service.erase";
    case OpType::kScan: return "service.range";
  }
  return "?";
}

// -------------------------------------------------------------- the clients

enum Phase : int { kWarm = 0, kMeasure = 1, kStop = 2 };

struct alignas(64) Client {
  std::atomic<std::uint64_t> done{0};  // ops issued, read by the sampler
  std::uint64_t pos = 0;               // next op index; rounds continue
  std::vector<std::uint64_t> ops;      // pre-generated, power-of-two size
  double gen_seconds = 0;
  // This round's results (warm-up + measured), for conservation.
  std::uint64_t ins_true = 0, del_true = 0, scan_fail = 0;
  // Measured phases only.
  std::uint64_t n_type[workload::kNumOpTypes] = {};
  std::uint64_t scan_keys = 0;
  struct Sample {
    float ns;
    std::uint32_t window;  // the measured window it was taken in
  };
  std::vector<Sample> lat[kNumCls];
  StepCounts steps[workload::kNumOpTypes];  // traced: per op type
  StepCounts batch_steps;                   // traced: per batch call
  std::vector<Span> spans;                  // traced
};

struct Control {
  std::atomic<int> phase{kWarm};
  std::atomic<std::uint32_t> window{0};  // measured window in progress
  std::uint64_t span_stride = 1;  // set before the measured phase starts
  std::size_t span_cap = 0;
};

bool window_ok(const RangeOut& out, std::uint64_t lo) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto& [k, v] = out[i];
    if (k < lo || k > lo + (kScanSpan - 1)) return false;
    if (i > 0 && k <= prev) return false;  // unsorted or duplicate
    if (v != value_of(k)) return false;
    prev = k;
  }
  return true;
}

// Types whose share is at most 10% are timed on every call, the rest on
// one call in eight, so every percentile has thousands of samples.
struct SamplePolicy {
  bool always[workload::kNumOpTypes] = {};
  explicit SamplePolicy(const Workload& w) {
    const unsigned pm[] = {w.read_pm, w.insert_pm, w.erase_pm, w.scan_pm};
    for (unsigned t = 0; t < workload::kNumOpTypes; ++t) always[t] = pm[t] <= 100;
  }
};

template <class M>
void client_scalar(M& map, const Workload& w, const Control& ctl, Client& c,
                   int tid) {
  const SamplePolicy sp(w);
  const std::uint64_t* ops = c.ops.data();
  const std::uint64_t mask = c.ops.size() - 1;
  RangeOut out;
  out.reserve(kScanSpan);
  std::uint64_t sampled = 0;
  for (std::uint64_t i = c.pos;; ++i) {
    const int ph = ctl.phase.load(std::memory_order_acquire);
    if (ph == kStop) {
      c.pos = i;
      break;
    }
    const std::uint64_t t_root = kTrace ? now_ns() : 0;
    const std::uint64_t op = ops[i & mask];
    const OpType t = type_of(op);
    const std::uint64_t key = key_of(op);
    const bool meas = ph == kMeasure;
    const bool timed = meas && (sp.always[static_cast<unsigned>(t)] || (i & 7) == 0);
    StepCounts s0;
    if constexpr (kTrace) s0 = Stats::my_snapshot();
    const std::uint64_t t0 = timed ? now_ns() : 0;
    switch (t) {
      case OpType::kRead:
        (void)map.contains(key);
        break;
      case OpType::kInsert:
        c.ins_true += map.insert(key, value_of(key)) ? 1 : 0;
        break;
      case OpType::kErase:
        c.del_true += map.erase(key) ? 1 : 0;
        break;
      case OpType::kScan:
        out.clear();
        map.range(key, key + (kScanSpan - 1), out);
        break;
    }
    const std::uint64_t t1 = timed ? now_ns() : 0;
    if (t == OpType::kScan) {
      if (!window_ok(out, key)) ++c.scan_fail;
      if (meas) c.scan_keys += out.size();
    }
    if (meas) {
      ++c.n_type[static_cast<unsigned>(t)];
      if constexpr (kTrace) c.steps[static_cast<unsigned>(t)] += Stats::my_snapshot() - s0;
    }
    if (timed) {
      c.lat[cls_of(t)].push_back({static_cast<float>(t1 - t0), ctl.window.load(std::memory_order_relaxed)});
      if constexpr (kTrace) {
        if (sampled++ % ctl.span_stride == 0 && c.spans.size() + 2 <= ctl.span_cap) {
          const std::uint64_t op_id = (static_cast<std::uint64_t>(tid) << 40) | i;
          const auto id = (static_cast<std::uint32_t>(tid) << 28) + static_cast<std::uint32_t>(c.spans.size());
          c.spans.push_back({op_id, id + 1, 0, "client.call", t_root, now_ns()});
          c.spans.push_back({op_id, id + 2, id + 1, service_span_name(t), t0, t1});
        }
      }
    }
    c.done.store(i + 1, std::memory_order_relaxed);
  }
}

template <class M>
void client_batched(M& map, const Control& ctl, Client& c, int tid) {
  const std::uint64_t* ops = c.ops.data();
  const std::uint64_t mask = c.ops.size() - 1;
  BatchOp batch[kBatch];
  BatchResult res[kBatch];
  std::uint64_t sampled = 0;
  for (std::uint64_t call = c.pos / kBatch;; ++call) {
    const int ph = ctl.phase.load(std::memory_order_acquire);
    if (ph == kStop) {
      c.pos = call * kBatch;
      break;
    }
    const std::uint64_t t_root = kTrace ? now_ns() : 0;
    const std::uint64_t base = call * kBatch;
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::uint64_t op = ops[(base + j) & mask];
      const std::uint64_t key = key_of(op);
      switch (type_of(op)) {
        case OpType::kInsert: batch[j] = BatchOp::insert(key, value_of(key)); break;
        case OpType::kErase: batch[j] = BatchOp::erase(key); break;
        default: batch[j] = BatchOp::get(key); break;
      }
    }
    const bool meas = ph == kMeasure;
    const bool timed = meas && (call & 7) == 0;
    StepCounts s0;
    if constexpr (kTrace) s0 = Stats::my_snapshot();
    const std::uint64_t t0 = timed ? now_ns() : 0;
    map.apply_batch(batch, kBatch, res);
    const std::uint64_t t1 = timed ? now_ns() : 0;
    for (std::size_t j = 0; j < kBatch; ++j) {
      if (batch[j].kind == BatchOpKind::kInsert) c.ins_true += res[j].ok ? 1 : 0;
      if (batch[j].kind == BatchOpKind::kErase) c.del_true += res[j].ok ? 1 : 0;
      if (meas) ++c.n_type[static_cast<unsigned>(type_of(ops[(base + j) & mask]))];
    }
    if constexpr (kTrace) {
      if (meas) c.batch_steps += Stats::my_snapshot() - s0;
    }
    if (timed) {
      c.lat[kBatchCall].push_back({static_cast<float>(t1 - t0), ctl.window.load(std::memory_order_relaxed)});
      if constexpr (kTrace) {
        if (sampled++ % ctl.span_stride == 0 && c.spans.size() + 2 <= ctl.span_cap) {
          const std::uint64_t op_id = (static_cast<std::uint64_t>(tid) << 40) | call;
          const auto id = (static_cast<std::uint32_t>(tid) << 28) + static_cast<std::uint32_t>(c.spans.size());
          c.spans.push_back({op_id, id + 1, 0, "client.batch", t_root, now_ns()});
          c.spans.push_back({op_id, id + 2, id + 1, "service.apply_batch", t0, t1});
        }
      }
    }
    c.done.store(base + kBatch, std::memory_order_relaxed);
  }
}

// max/mean point ops per shard over every op the clients issued (scans
// touch all shards and are left out).
template <class M>
double shard_imbalance(const M& map, const std::vector<Client>& clients) {
  std::vector<double> per_shard(map.shard_count(), 0);
  for (const auto& c : clients) {
    const std::uint64_t mask = c.ops.size() - 1;
    for (std::uint64_t i = 0; i < c.pos; ++i) {
      const std::uint64_t op = c.ops[i & mask];
      if (type_of(op) != OpType::kScan) per_shard[map.shard_for(key_of(op))] += 1;
    }
  }
  double max = 0, sum = 0;
  for (double x : per_shard) {
    max = std::max(max, x);
    sum += x;
  }
  return sum > 0 ? max / (sum / static_cast<double>(per_shard.size())) : 0;
}

// ------------------------------------------------------ calibration rungs

// The public functions an update is built from, each timed alone on one
// thread (median of 5 repetitions). model.explained_frac multiplies these
// by the traced per-update step counts.
struct Calibration {
  double route_ns = 0, guard_ns = 0, alloc_ns = 0, retire_ns = 0;
  double llx_ns = 0, scx2_ns = 0, vlx_ns = 0;
};

struct CalNode : DataRecord<2> {};

template <class Fn>
double median_ns_per_iter(std::size_t iters, Fn&& body) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = now_ns();
    body(iters);
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(iters));
  }
  return quantile(reps, 0.5);
}

std::atomic<std::uint64_t> g_sink{0};

template <class M>
Calibration calibrate(const M& map, const std::vector<std::uint64_t>& keys) {
  Calibration cal;
  constexpr std::size_t kIters = 1 << 18;
  const std::uint64_t kmask = keys.size() - 1;  // keys.size() is a power of two
  cal.route_ns = median_ns_per_iter(kIters, [&](std::size_t n) {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < n; ++i) s += map.shard_for(key_of(keys[i & kmask]));
    g_sink.fetch_add(s, std::memory_order_relaxed);
  });

  Epoch::Domain domain;
  Epoch::DomainScope scope(domain);
  cal.guard_ns = median_ns_per_iter(kIters, [](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Epoch::Guard g;
    }
  });
  constexpr std::size_t kChunk = 4096;
  std::vector<CalNode*> nodes(kChunk);
  std::vector<double> alloc_reps, retire_reps;
  for (int r = 0; r < 5; ++r) {
    double alloc_total = 0, retire_total = 0;
    for (std::size_t done = 0; done < kIters; done += kChunk) {
      std::uint64_t t0 = now_ns();
      for (auto& p : nodes) p = EbrManager::alloc<CalNode>();
      std::uint64_t t1 = now_ns();
      for (auto* p : nodes) EbrManager::retire(p);
      alloc_total += static_cast<double>(t1 - t0);
      retire_total += static_cast<double>(now_ns() - t1);
    }
    alloc_reps.push_back(alloc_total / kIters);
    retire_reps.push_back(retire_total / kIters);
  }
  cal.alloc_ns = quantile(alloc_reps, 0.5);
  cal.retire_ns = quantile(retire_reps, 0.5);

  auto* a = EbrManager::alloc<CalNode>();
  auto* b = EbrManager::alloc<CalNode>();
  constexpr std::size_t kGuardChunk = 1024;  // lets retired descriptors drain
  cal.llx_ns = median_ns_per_iter(kIters, [&](std::size_t n) {
    std::uint64_t s = 0;
    Epoch::Guard g;
    for (std::size_t i = 0; i < n; ++i) s += llx(a).field(0);
    g_sink.fetch_add(s, std::memory_order_relaxed);
  });
  std::uint64_t fresh = 0;
  const double llx2_scx = median_ns_per_iter(kIters, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; i += kGuardChunk) {
      // A committed descriptor keeps its V-records' previous descriptors
      // alive until it is freed, so a record that SCXs keep updating pins
      // its whole history. Fresh records every chunk bound that history
      // to one chunk, which reclamation then frees.
      EbrManager::retire(a);
      EbrManager::retire(b);
      a = EbrManager::alloc<CalNode>();
      b = EbrManager::alloc<CalNode>();
      Epoch::Guard g;
      for (std::size_t j = i; j < std::min(n, i + kGuardChunk); ++j) {
        const auto la = llx(a);
        const auto lb = llx(b);
        const LinkedLlx v[2] = {la.link(), lb.link()};
        if (!scx<EbrManager>(v, 2, 0, &a->mut(0), la.field(0), ++fresh)) std::abort();
      }
    }
  });
  cal.scx2_ns = std::max(0.0, llx2_scx - 2 * cal.llx_ns);
  cal.vlx_ns = median_ns_per_iter(kIters, [&](std::size_t n) {
    Epoch::Guard g;
    const LinkedLlx v[2] = {llx(a).link(), llx(b).link()};
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < n; ++i) s += vlx(v, 2) ? 1 : 0;
    g_sink.fetch_add(s, std::memory_order_relaxed);
  });
  EbrManager::dealloc(a);
  EbrManager::dealloc(b);
  domain.drain();
  return cal;
}

// ------------------------------------------------------------------ output

struct Json {
  std::string s = "{";
  void sep() {
    if (s.size() > 1) s += ',';
  }
  Json& num(const char* k, double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\":%.17g", k, std::isfinite(v) ? v : 0.0);
    s += buf;
    return *this;
  }
  Json& str(const char* k, const std::string& v) {
    sep();
    s += '"';
    s += k;
    s += "\":\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') s += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) s += ch;
    }
    s += '"';
    return *this;
  }
  Json& raw(const char* k, const std::string& v) {
    sep();
    s += '"';
    s += k;
    s += "\":";
    s += v;
    return *this;
  }
  std::string done() const { return s + "}"; }
};

// -------------------------------------------------------------------- a run

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  int max_rounds = 9;  // run at most this many of the workload's rounds
  bool smoke = false;
  std::string spans_path;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t load_fail = 0;     // load/steady-state ops with a wrong result
  std::uint64_t scan_fail = 0;     // windows unsorted / out of range / bad value
  std::uint64_t conservation = 0;  // |expected size - size()|
  std::uint64_t audit_fail = 0;    // shards whose consistency_error() is set
  std::uint64_t occupancy = 0;     // |occupancy().items - size()|
  std::uint64_t residue = 0;       // reclaim_outstanding() after drain_all()
  std::uint64_t failed() const {
    return load_fail + scan_fail + conservation + audit_fail + occupancy + residue;
  }
};

std::uint64_t absdiff(std::uint64_t a, std::uint64_t b) { return a > b ? a - b : b - a; }

template <class E>
int run(const Options& o) {
  const Workload& w = *o.w;
  const unsigned bits = o.smoke ? w.smoke_space_bits : w.space_bits;
  const std::uint64_t space = std::uint64_t{1} << bits;
  const std::uint64_t load_n = space / 2;
  const std::size_t ops_per_thread = std::size_t{1} << (o.smoke ? 14 : 20);
  Checks ck;

  // --- inputs, from the seed alone --------------------------------------
  const std::uint64_t g0 = now_ns();
  std::vector<std::uint64_t> keys(space);
  for (std::uint64_t i = 0; i < space; ++i) keys[i] = i + 1;
  {
    Xoshiro256 rng(mix_seed(o.seed, 0));
    for (std::uint64_t i = space - 1; i > 0; --i) std::swap(keys[i], keys[rng.below(i + 1)]);
  }
  keys.resize(load_n);  // the loaded set, in its (shuffled) load order
  keys.shrink_to_fit();
  const workload::KeyStreamFactory factory(
      w.zipf ? workload::KeyStreamSpec::zipfian(space, 0.99)
             : workload::KeyStreamSpec::uniform(space));
  std::vector<Client> clients(kThreads);
  run_threads(kThreads, [&](int t) {
    Client& c = clients[static_cast<std::size_t>(t)];
    const std::uint64_t t0 = now_ns();
    Xoshiro256 dice(mix_seed(o.seed, 100 + static_cast<std::uint64_t>(t)));
    auto stream = factory.make(mix_seed(o.seed, 200 + static_cast<std::uint64_t>(t)));
    c.ops.resize(ops_per_thread);
    for (auto& op : c.ops) {
      const auto d = static_cast<unsigned>(dice.below(1000));
      const OpType type = d < w.read_pm ? OpType::kRead
                          : d < w.read_pm + w.insert_pm ? OpType::kInsert
                          : d < w.read_pm + w.insert_pm + w.erase_pm ? OpType::kErase
                                                                      : OpType::kScan;
      std::uint64_t key = stream->next();
      if (w.zipf) key = 1 + scramble(key - 1, bits);
      op = pack(type, key);
    }
    c.gen_seconds = seconds_since(t0);
  });
  double gen_ns_per_op = 0;
  for (const auto& c : clients) gen_ns_per_op += c.gen_seconds * 1e9 / static_cast<double>(ops_per_thread);
  gen_ns_per_op /= kThreads;
  std::printf("inputs: %" PRIu64 " keys loaded of %" PRIu64 ", %zu ops/thread, generated in %.3f s\n",
              load_n, space, ops_per_thread, seconds_since(g0));

  // --- rounds: set up (timed), measure, check, tear down -----------------
  // Each round builds a fresh map, so set-up is timed at least once per
  // round and the measured time is spread over the whole run.
  const double round_s = o.seconds / w.rounds;
  const int rounds = std::min(w.rounds, o.max_rounds);
  const int n_windows = std::max(4, static_cast<int>(std::lround(round_s / (o.smoke ? 0.1 : 0.25))));
  const double win_s = round_s / n_windows;
  const double warm_s = o.smoke ? 0.1 : 0.5;
  const auto mem_ops = static_cast<std::uint64_t>(w.mem_mops * (o.smoke ? 1e6 / 64 : 1e6));
  Control ctl;
  std::vector<double> setup_s, window_mops, limbo_samples, mem_per_key;
  std::uint64_t freed = 0, live = 0, expected = 0;
  double depth_avg = 0, load_factor = 0;
  std::size_t depth_max = 0, max_chain = 0;
  // The rungs run first, in a small clean process, so they time the
  // functions themselves rather than the heap and caches a round leaves.
  Calibration cal;
  if constexpr (kTrace) {
    const Map<E> probe(kShards);
    cal = calibrate(probe, clients[0].ops);
  }
  double imbalance = 0;
  std::atomic<std::uint64_t> setup_bad{0};
  // Loads a fresh map until it is steady and records the time it took.
  auto set_up = [&] {
    const std::uint64_t t0 = now_ns();
    auto map = std::make_unique<Map<E>>(kShards);
    run_threads(kThreads, [&](int t) {
      std::uint64_t bad = 0;
      for (std::uint64_t i = static_cast<std::uint64_t>(t); i < load_n; i += kThreads) {
        bad += map->insert(keys[i], value_of(keys[i])) ? 0 : 1;
      }
      setup_bad.fetch_add(bad);
    });
    ck.attempted += load_n;
    if constexpr (std::is_same_v<E, LlxScxHashMap>) {
      // Steady for the hash map means no resize pending or imminent. The
      // live set hovers at the loaded size, which sits right at a doubling
      // threshold, so grow now: overshoot by space/256 keys from outside
      // the key space and take them out again. Then erase absent keys in
      // passes of one op per bucket (eight times what finishing any
      // migration takes: each update helps a stride of 8 buckets) until a
      // pass leaves the bucket count unchanged.
      auto each_thread = [&](std::uint64_t n, std::uint64_t first, auto op) {
        run_threads(kThreads, [&](int t) {
          std::uint64_t bad = 0;
          for (std::uint64_t i = static_cast<std::uint64_t>(t); i < n; i += kThreads)
            bad += op(first + i) ? 0 : 1;
          setup_bad.fetch_add(bad);
        });
        ck.attempted += n;
      };
      const std::uint64_t extra = space / 256;
      each_thread(extra, space + 1, [&](std::uint64_t k) { return map->insert(k, value_of(k)); });
      each_thread(extra, space + 1, [&](std::uint64_t k) { return map->erase(k); });
      auto buckets = [&] {
        std::size_t b = 0;
        map->for_each_shard([&](std::size_t, const auto& e, DomainReclaimStats) {
          b += base_engine(e).bucket_count();
        });
        return b;
      };
      for (std::size_t pass = 0, before = buckets();; ++pass) {
        each_thread(before, 2 * space + 1, [&](std::uint64_t k) { return !map->erase(k); });
        const std::size_t after = buckets();
        if (after == before && pass > 0) break;
        before = after;
      }
    }
    // The loaders' retired records wait in limbo lists that the clients'
    // threads would otherwise inherit and free during the measured phase.
    map->drain_all();
    setup_s.push_back(seconds_since(t0));
    return map;
  };
  for (int round = 0; round < rounds; ++round) {
    // Extra set-ups only add setup_s samples; their maps are torn down.
    for (int i = 1; i < w.setups; ++i) set_up().reset();
    malloc_trim(0);
    const std::uint64_t rss_base = rss_bytes();
    auto map = set_up();

    // Measured phase: warm up, then fixed windows.
    for (auto& c : clients) c.ins_true = c.del_true = c.scan_fail = 0;
    auto sum_done = [&] {
      std::uint64_t s = 0;
      for (const auto& c : clients) s += c.done.load(std::memory_order_relaxed);
      return s;
    };
    auto freed_total = [&] {
      std::uint64_t f = 0;
      for (std::size_t i = 0; i < map->shard_count(); ++i) f += map->shard_domain(i).total_freed();
      return f;
    };
    const std::uint64_t done0 = sum_done();
    ctl.phase.store(kWarm, std::memory_order_release);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        pin_to_cpu(t);
        Client& c = clients[static_cast<std::size_t>(t)];
        if (w.batched) {
          client_batched(*map, ctl, c, t);
        } else {
          client_scalar(*map, w, ctl, c, t);
        }
      });
    }
    using clock = std::chrono::steady_clock;
    auto after = [](clock::time_point t, double sec) {
      return t + std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(sec));
    };
    // Resident memory is sampled once the clients have made mem_ops calls
    // since set-up, so the figure depends on the work done, not on how
    // fast it was done. wait() polls for that point until `until`; with
    // `early` it returns as soon as the sample is taken.
    std::uint64_t rss_mem = 0;
    bool mem_sampled = false;
    auto wait = [&](clock::time_point until, bool early) {
      while (!mem_sampled) {
        if (sum_done() - done0 >= mem_ops) {
          rss_mem = rss_bytes();
          mem_sampled = true;
        } else if (clock::now() >= until) {
          return;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      if (!early) std::this_thread::sleep_until(until);
    };
    wait(after(clock::now(), warm_s), false);
    if (round == 0) {
      // Size latency and span buffers from the warm-up rate, so the timed
      // loop does not reallocate and spans cover the whole run.
      const double expect_per_client =
          static_cast<double>(sum_done() - done0) / warm_s * round_s * rounds / kThreads / (w.batched ? kBatch : 1);
      const SamplePolicy sp(w);
      const unsigned pm[] = {w.read_pm, w.insert_pm, w.erase_pm, w.scan_pm};
      double per_cls[kNumCls] = {};
      for (unsigned t = 0; t < workload::kNumOpTypes; ++t) {
        const double share = w.batched || !sp.always[t] ? 1.0 / 8 : 1.0;
        per_cls[w.batched ? kBatchCall : cls_of(static_cast<OpType>(t))] += share * pm[t] / 1000.0;
      }
      for (auto& c : clients)
        for (unsigned k = 0; k < kNumCls; ++k)
          c.lat[k].reserve(static_cast<std::size_t>(1.5 * per_cls[k] * expect_per_client) + 64);
      if constexpr (kTrace) {
        ctl.span_cap = 2 * 16384;
        ctl.span_stride = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(expect_per_client / 8 / 16384));
        for (auto& c : clients) c.spans.reserve(ctl.span_cap);
      }
    }
    const std::uint64_t freed0 = freed_total();
    std::uint64_t prev = sum_done();
    auto prev_t = clock::now();
    const auto start = prev_t;
    ctl.window.store(static_cast<std::uint32_t>(window_mops.size()), std::memory_order_relaxed);
    ctl.phase.store(kMeasure, std::memory_order_release);
    for (int i = 1; i <= n_windows; ++i) {
      wait(after(start, win_s * i), false);
      const auto now = clock::now();
      const std::uint64_t cur = sum_done();
      window_mops.push_back(static_cast<double>(cur - prev) /
                            std::chrono::duration<double>(now - prev_t).count() / 1e6);
      prev = cur;
      prev_t = now;
      if (i < n_windows) ctl.window.store(static_cast<std::uint32_t>(window_mops.size()), std::memory_order_relaxed);
      if constexpr (kTrace) {
        std::uint64_t limbo = 0;
        for (std::size_t s = 0; s < map->shard_count(); ++s) limbo += map->shard_domain(s).outstanding();
        limbo_samples.push_back(static_cast<double>(limbo));
      }
    }
    if (!mem_sampled) {
      // Slower than the sample point assumes: run on, unmeasured, until
      // the clients reach it (for at most two more rounds' time).
      ctl.phase.store(kWarm, std::memory_order_release);
      wait(after(clock::now(), 2 * round_s), true);
      if (!mem_sampled) {
        std::printf("note: round %d sampled memory after %" PRIu64 " of %" PRIu64 " ops\n", round,
                    sum_done() - done0, mem_ops);
        rss_mem = rss_bytes();
      }
    }
    ctl.phase.store(kStop, std::memory_order_release);
    for (auto& t : ts) t.join();
    freed += freed_total() - freed0;

    // Checks, quiescent.
    expected = load_n;
    for (const auto& c : clients) {
      expected += c.ins_true;
      expected -= c.del_true;
      ck.scan_fail += c.scan_fail;
    }
    ck.attempted += sum_done() - done0;
    live = map->size();
    ck.conservation += absdiff(expected, live);
    std::size_t leaves = 0, items = 0, buckets = 0;
    depth_avg = 0;
    map->for_each_shard([&](std::size_t i, const auto& eng, DomainReclaimStats) {
      const auto& e = base_engine(eng);
      if constexpr (std::is_same_v<E, LlxScxChromatic>) {
        if (auto err = e.consistency_error()) {
          ++ck.audit_fail;
          std::printf("CHECK FAILED: shard %zu chromatic audit: %s\n", i, err->c_str());
        }
        if constexpr (kTrace) {
          const TreeDepthStats d = e.depth_stats();
          depth_avg += d.avg_depth * static_cast<double>(d.user_leaves);
          leaves += d.user_leaves;
          depth_max = std::max(depth_max, d.max_depth);
        }
      } else {
        const HashMapOccupancy occ = e.occupancy();
        items += occ.items;
        buckets += occ.buckets;
        max_chain = std::max(max_chain, occ.max_bucket);
      }
    });
    if (leaves > 0) depth_avg /= static_cast<double>(leaves);
    if constexpr (std::is_same_v<E, LlxScxHashMap>) {
      ck.occupancy += absdiff(items, live);
      load_factor = buckets > 0 ? static_cast<double>(items) / static_cast<double>(buckets) : 0;
    }
    if constexpr (kTrace) {
      if (round + 1 == rounds) {
        imbalance = shard_imbalance(*map, clients);
      }
    }
    map->drain_all();
    ck.residue += map->reclaim_outstanding();
    const double grown = static_cast<double>(rss_mem - std::min(rss_mem, rss_base));
    mem_per_key.push_back(live > 0 ? grown / static_cast<double>(live) : 0);
    std::printf("round %d: setup %.4f s, %zu live keys, rss +%.1f MiB after %" PRIu64 " ops, mem %.1f bytes/key\n",
                round, setup_s.back(), static_cast<std::size_t>(live), grown / 1048576.0, mem_ops,
                mem_per_key.back());
    std::fflush(stdout);
  }
  ck.load_fail = setup_bad.load();

  // --- results -----------------------------------------------------------
  std::vector<double> wm = window_mops;
  const double tput = quantile(wm, 0.5), tq1 = quantile(wm, 0.25), tq3 = quantile(wm, 0.75);
  std::vector<double> sv = setup_s;
  const double setup_med = quantile(sv, 0.5);
  std::vector<double> mv = mem_per_key;
  const double mem_med = quantile(mv, 0.5);
  const double failed_frac = static_cast<double>(ck.failed()) / static_cast<double>(ck.attempted);

  std::printf("throughput_mops %.4f Mops/s (windows: %zu x %.2f s, q1 %.4f, q3 %.4f)\n", tput,
              window_mops.size(), win_s, tq1, tq3);
  // Like throughput, latency percentiles are taken per measured window
  // and the median over windows is reported, so a passing disturbance on a
  // shared host moves them less. Only windows with at least 100 samples of
  // a call count; if none has that many, all samples form one group.
  Json lat;
  for (unsigned k = 0; k < kNumCls; ++k) {
    std::vector<std::vector<double>> per_window(window_mops.size());
    std::size_t n = 0;
    for (const auto& c : clients)
      for (const auto& smp : c.lat[k]) {
        per_window[smp.window].push_back(smp.ns);
        ++n;
      }
    if (n == 0) continue;
    std::vector<double> p50s, p99s;
    for (auto& v : per_window) {
      if (v.size() < 100) continue;
      p50s.push_back(quantile(v, 0.5));
      p99s.push_back(quantile(v, 0.99));
    }
    if (p50s.empty()) {
      std::vector<double> all;
      for (const auto& v : per_window) all.insert(all.end(), v.begin(), v.end());
      p50s.push_back(quantile(all, 0.5));
      p99s.push_back(quantile(all, 0.99));
    }
    const std::size_t groups = p50s.size();
    const double p50 = quantile(p50s, 0.5) / 1e3, p99 = quantile(p99s, 0.5) / 1e3;
    std::printf("%s_p50_us %.4f us, %s_p99_us %.4f us (samples %zu, median of %zu windows)%s\n", kClsName[k], p50,
                kClsName[k], p99, n, groups, k == w.primary ? "  <- primary call" : "");
    lat.raw(kClsName[k], Json().num("p50_us", p50).num("p99_us", p99).num("samples", static_cast<double>(n))
                             .num("windows", static_cast<double>(groups)).done());
  }
  std::printf("setup_s %.4f s (median of %zu)\n", setup_med, setup_s.size());
  std::printf("mem_bytes_per_key %.2f bytes (median of %zu)\n", mem_med, mem_per_key.size());
  std::printf("ops_failed_frac %.3g fraction (%" PRIu64 " of %" PRIu64 ")\n", failed_frac, ck.failed(),
              ck.attempted);
  if (ck.failed() > 0) {
    std::printf(
        "CHECK FAILED: load %" PRIu64 ", scan windows %" PRIu64 ", conservation %" PRIu64 " (expected %" PRIu64
        ", size %" PRIu64 "), audit %" PRIu64 ", occupancy %" PRIu64 ", reclaim residue %" PRIu64 "\n",
        ck.load_fail, ck.scan_fail, ck.conservation, expected, live, ck.audit_fail, ck.occupancy, ck.residue);
  }

  Json checks;
  checks.num("load", ck.load_fail).num("scan_windows", ck.scan_fail).num("conservation", ck.conservation)
      .num("chromatic_audit", ck.audit_fail).num("hash_occupancy", ck.occupancy).num("drain_residue", ck.residue);
  auto json_list = [](const std::vector<double>& v) {
    std::string r = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char b[40];
      std::snprintf(b, sizeof b, "%s%.17g", i ? "," : "", v[i]);
      r += b;
    }
    return r + "]";
  };
  Json out;
  out.str("workload", w.name).raw("seed", std::to_string(o.seed)).num("seconds", o.seconds)
      .num("smoke", o.smoke).num("count_steps", LLXSCX_COUNT_STEPS).num("relaxed_orders", LLXSCX_RELAXED_ORDERS)
      .num("fault_every", PERFBENCH_FAULT_EVERY).str("compiler", __VERSION__).num("threads", kThreads)
      .num("shards", kShards)
      .str("engine", Map<E>::kName).str("primary", kClsName[w.primary])
      .raw("throughput_mops",
           Json().num("median", tput).num("q1", tq1).num("q3", tq3).num("windows", window_mops.size())
               .num("window_s", win_s).raw("series", json_list(window_mops)).done())
      .raw("latency", lat.done()).num("setup_s", setup_med).raw("setup_rounds_s", json_list(setup_s))
      .num("mem_bytes_per_key", mem_med).num("live_keys", live).num("attempted", ck.attempted)
      .num("failed", ck.failed()).num("ops_failed_frac", failed_frac).raw("checks", checks.done());

  if constexpr (kTrace) {
    // Per-layer metrics: step snapshots per op type, span means, domain
    // counters, calibration rungs.
    StepCounts st[workload::kNumOpTypes], bst;
    std::uint64_t n[workload::kNumOpTypes] = {}, scan_keys = 0;
    for (const auto& c : clients) {
      for (unsigned t = 0; t < workload::kNumOpTypes; ++t) {
        st[t] += c.steps[t];
        n[t] += c.n_type[t];
      }
      bst += c.batch_steps;
      scan_keys += c.scan_keys;
    }
    StepCounts upd = st[1];
    upd += st[2];
    StepCounts all = upd;
    all += st[0];
    all += st[3];
    all += bst;
    if (w.batched) upd += bst;  // gets take no LLX/SCX/CAS/write/alloc
    const double n_upd = static_cast<double>(n[1] + n[2]);
    const double n_all = static_cast<double>(n[0] + n[1] + n[2] + n[3]);
    auto per = [](double x, double d) { return d > 0 ? x / d : 0.0; };
    // Span means by name.
    auto span_mean = [&](const char* name) {
      double sum = 0, cnt = 0;
      for (const auto& c : clients)
        for (const auto& s : c.spans)
          if (std::strcmp(s.name, name) == 0) {
            sum += static_cast<double>(s.end_ns - s.start_ns);
            cnt += 1;
          }
      return per(sum, cnt);
    };
    double upd_sum = 0, upd_cnt = 0;
    for (const auto& c : clients)
      for (const auto& s : c.spans)
        if (std::strcmp(s.name, "service.insert") == 0 || std::strcmp(s.name, "service.erase") == 0) {
          upd_sum += static_cast<double>(s.end_ns - s.start_ns);
          upd_cnt += 1;
        }
    const double update_span = per(upd_sum, upd_cnt);
    double limbo_peak = 0, limbo_mean = 0;
    for (double x : limbo_samples) {
      limbo_peak = std::max(limbo_peak, x);
      limbo_mean += x / static_cast<double>(limbo_samples.size());
    }
    const double llx_pu = per(static_cast<double>(upd.llx_calls), n_upd);
    const double scx_pu = per(static_cast<double>(upd.scx_calls), n_upd);
    const double alloc_pu = per(static_cast<double>(upd.allocations), n_upd);
    const double model = cal.route_ns + cal.guard_ns + llx_pu * cal.llx_ns + scx_pu * cal.scx2_ns +
                         std::max(0.0, alloc_pu - scx_pu) * (cal.alloc_ns + cal.retire_ns);
    // Reads per read on batch-hash: the snapshot brackets a whole batch,
    // so it is reads per batched op of any kind.
    const double reads_per_read = w.batched ? per(static_cast<double>(bst.shared_reads), n_all)
                                            : per(static_cast<double>(st[0].shared_reads), static_cast<double>(n[0]));
    Json L;
    L.num("driver.gen_ns", gen_ns_per_op)
        .num("service.route_ns", cal.route_ns)
        .num("service.read_ns", span_mean("service.contains"))
        .num("service.update_ns", update_span)
        .num("service.scan_ns", span_mean("service.range"))
        .num("service.batch_ns_per_op", span_mean("service.apply_batch") / kBatch)
        .num("service.shard_op_imbalance", imbalance)
        .num("ds.reads_per_read", reads_per_read)
        .num("ds.reads_per_update", w.batched ? 0.0 : per(static_cast<double>(upd.shared_reads), n_upd))
        .num("ds.reads_per_scan", per(static_cast<double>(st[3].shared_reads), static_cast<double>(n[3])))
        .num("ds.keys_per_scan", per(static_cast<double>(scan_keys), static_cast<double>(n[3])))
        .num("ds.depth_avg", depth_avg)
        .num("ds.depth_max", static_cast<double>(depth_max))
        .num("ds.max_chain", static_cast<double>(max_chain))
        .num("ds.load_factor", load_factor)
        .num("llxscx.llx_per_update", llx_pu)
        .num("llxscx.llx_fail_per_update", per(static_cast<double>(upd.llx_fail), n_upd))
        .num("llxscx.scx_per_update", scx_pu)
        .num("llxscx.scx_success_frac",
             per(static_cast<double>(upd.scx_calls - upd.scx_fail), static_cast<double>(upd.scx_calls)))
        .num("llxscx.cas_per_update", per(static_cast<double>(upd.cas), n_upd))
        .num("llxscx.writes_per_update", per(static_cast<double>(upd.shared_writes), n_upd))
        .num("llxscx.allocs_per_update", alloc_pu)
        .num("llxscx.helps_per_op", per(static_cast<double>(all.helps), n_all))
        .num("llxscx.llx_ns", cal.llx_ns)
        .num("llxscx.scx_k2_ns", cal.scx2_ns)
        .num("llxscx.vlx_ns", cal.vlx_ns)
        .num("reclaim.guard_ns", cal.guard_ns)
        .num("reclaim.alloc_ns", cal.alloc_ns)
        .num("reclaim.retire_ns", cal.retire_ns)
        .num("reclaim.limbo_peak", limbo_peak)
        .num("reclaim.limbo_mean", limbo_mean)
        .num("reclaim.freed_per_update", per(static_cast<double>(freed), n_upd))
        .num("reclaim.drain_residue", static_cast<double>(ck.residue))
        .num("model.explained_frac", per(model, update_span));
    out.raw("layers", L.done());
    std::size_t nspans = 0;
    for (const auto& c : clients) nspans += c.spans.size();
    out.num("spans", static_cast<double>(nspans));
    if (!o.spans_path.empty()) {
      std::FILE* f = std::fopen(o.spans_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", o.spans_path.c_str());
        return 2;
      }
      std::fprintf(f, "op_id,span_id,parent_id,name,start_ns,end_ns\n");
      for (const auto& c : clients)
        for (const auto& s : c.spans)
          std::fprintf(f, "%" PRIu64 ",%u,%u,%s,%" PRIu64 ",%" PRIu64 "\n", s.op_id, s.id, s.parent, s.name,
                       s.start_ns, s.end_ns);
      if (std::fclose(f) != 0) return 2;
    }
  }
  std::printf("%s\n", out.done().c_str());
  std::fflush(stdout);
  return ck.failed() == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "[--rounds <n>] [--smoke] [--spans <file>]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      const char* name = val();
      for (const auto& w : kWorkloads)
        if (std::strcmp(w.name, name) == 0) o.w = &w;
      if (o.w == nullptr) usage("unknown workload");
    } else if (a == "--seed") {
      const char* v = val();
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      const char* v = val();
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600) usage("bad --seconds");
    } else if (a == "--rounds") {
      const char* v = val();
      o.max_rounds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || o.max_rounds < 1) usage("bad --rounds");
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--spans") {
      o.spans_path = val();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.w == nullptr) usage("--workload is required");
  return o.w->engine == EngineKind::kChromatic ? run<LlxScxChromatic>(o) : run<LlxScxHashMap>(o);
}
