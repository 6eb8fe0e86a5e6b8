// Experiment E6 — tree data structures on LLX/SCX (claim C-H, §6; the
// chromatic tree extends it with PPoPP'14-style balance, DESIGN.md §11).
//
// Four workloads per structure:
//   uniform  — key range × update ratio × threads, random keys (the
//              original E6 grid; the container a C++ user gets by default,
//              a coarse-locked std::map, is the baseline)
//   seq      — sequential ascending inserts from a shared counter: the
//              adversarial stream that degenerates the unbalanced BST into
//              a linear chain while the chromatic tree's rebalancing keeps
//              O(log n) depth (the Patricia trie is bit-bounded either
//              way). Each cell also reports the quiescent leaf-depth
//              profile, which is the balance claim as a number.
//   seq-bulk — the same ascending stream, but each worker claims 64-key
//              sorted runs and drives them through insert_all (DESIGN.md
//              §15): one SCX per leaf group instead of one per key. The
//              seq vs seq-bulk row pair is the committed grow-phase
//              comparison E13 pins.
//   scan     — VLX-validated 100-key range() windows over a dense prefill
//              inserted in shuffled order (0 LLX / 0 CAS / 0 writes per
//              clean attempt) — the E13 ordered-scan column.
//
// --json=<file> emits the grid as machine-readable JSON (one object per
// cell plus the build configuration) so successive PRs can track the
// BENCH_bst.json balance/throughput trajectory, mirroring bench_reclaim.
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "ds/bst_llxscx.h"
#include "ds/chromatic_llxscx.h"
#include "ds/patricia_llxscx.h"
#include "util/random.h"

namespace llxscx {
namespace {

// Default-container baseline.
class LockedStdMap {
 public:
  std::optional<std::uint64_t> get(std::uint64_t k) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(k);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  bool insert(std::uint64_t k, std::uint64_t v) {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.emplace(k, v).second;
  }
  bool erase(std::uint64_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.erase(k) > 0;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> map_;
};

struct CellResult {
  const char* structure = "";
  const char* stream = "";
  int threads = 0;
  unsigned update_pct = 0;
  std::uint64_t key_range = 0;
  double ops_per_sec = 0;
  double avg_depth = 0;
  std::uint64_t max_depth = 0;
};

template <typename MapT>
void capture_depth(const MapT& map, CellResult& res) {
  if constexpr (requires { map.depth_stats(); }) {
    const TreeDepthStats d = map.depth_stats();
    res.avg_depth = d.avg_depth;
    res.max_depth = d.max_depth;
  }
}

template <typename MapT>
CellResult run_uniform(const char* name, int threads, unsigned update_pct,
                       std::uint64_t key_range) {
  CellResult res;
  res.structure = name;
  res.stream = "uniform";
  res.threads = threads;
  res.update_pct = update_pct;
  res.key_range = key_range;
  MapT map;
  {
    Xoshiro256 rng(1);
    for (std::uint64_t i = 0; i < key_range / 2; ++i) {
      map.insert(1 + rng.below(key_range), i);
    }
  }
  const auto r = bench::run_phase(
      threads, [&](int t, const std::atomic<bool>& stop) -> std::uint64_t {
        Xoshiro256 rng(200 + t);
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key = 1 + rng.below(key_range);
          const unsigned dice = static_cast<unsigned>(rng.below(100));
          if (dice < update_pct / 2) {
            map.insert(key, key);
          } else if (dice < update_pct) {
            map.erase(key);
          } else {
            map.get(key);
          }
          ++ops;
        }
        return ops;
      });
  res.ops_per_sec = r.ops_per_sec();
  capture_depth(map, res);
  return res;
}

template <typename MapT>
CellResult run_seq(const char* name, int threads) {
  CellResult res;
  res.structure = name;
  res.stream = "seq";
  res.threads = threads;
  res.update_pct = 100;
  MapT map;
  std::atomic<std::uint64_t> next{1};
  const auto r = bench::run_phase(
      threads, [&](int, const std::atomic<bool>& stop) -> std::uint64_t {
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t key = next.fetch_add(1, std::memory_order_relaxed);
          map.insert(key, key);
          ++ops;
        }
        return ops;
      });
  res.ops_per_sec = r.ops_per_sec();
  res.key_range = next.load() - 1;  // how far the stream got
  capture_depth(map, res);
  return res;
}

// The ascending stream again, but in 64-key sorted runs through the §15
// bulk path: one SCX per leaf group. ops counts KEYS (not calls), so the
// seq-bulk row divides directly by the scalar seq row.
template <typename MapT>
CellResult run_seq_bulk(const char* name, int threads) {
  constexpr std::uint64_t kRun = 64;
  CellResult res;
  res.structure = name;
  res.stream = "seq-bulk";
  res.threads = threads;
  res.update_pct = 100;
  MapT map;
  std::atomic<std::uint64_t> next{1};
  const auto r = bench::run_phase(
      threads, [&](int, const std::atomic<bool>& stop) -> std::uint64_t {
        std::uint64_t keys[kRun];
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t base =
              next.fetch_add(kRun, std::memory_order_relaxed);
          for (std::uint64_t i = 0; i < kRun; ++i) keys[i] = base + i;
          map.insert_all(keys, kRun, base);
          ops += kRun;
        }
        return ops;
      });
  res.ops_per_sec = r.ops_per_sec();
  res.key_range = next.load() - 1;  // how far the stream got
  capture_depth(map, res);
  return res;
}

// VLX-validated range scans over a dense prefill: every window returns
// 100 elements, so ops/s is whole-window scans per second. The prefill
// inserts 1..key_range in a seeded shuffled order, so the unbalanced BST
// gets its expected O(log n) depth instead of the ascending-order chain
// (the seq rows measure that chain on purpose; a scan row should not).
template <typename MapT>
CellResult run_scan(const char* name, int threads, std::uint64_t key_range) {
  constexpr std::uint64_t kSpan = 100;
  CellResult res;
  res.structure = name;
  res.stream = "scan";
  res.threads = threads;
  res.update_pct = 0;
  res.key_range = key_range;
  MapT map;
  {
    std::vector<std::uint64_t> keys(key_range);
    for (std::uint64_t i = 0; i < key_range; ++i) keys[i] = i + 1;
    Xoshiro256 rng(0x5CA7);
    for (std::uint64_t i = key_range - 1; i > 0; --i) {  // Fisher–Yates
      std::swap(keys[i], keys[rng.below(i + 1)]);
    }
    for (const std::uint64_t k : keys) map.insert(k, k);
  }
  const auto r = bench::run_phase(
      threads, [&](int t, const std::atomic<bool>& stop) -> std::uint64_t {
        Xoshiro256 rng(300 + t);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        std::uint64_t ops = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t lo = 1 + rng.below(key_range);
          out.clear();
          map.range(lo, lo + kSpan - 1, out);
          ++ops;
        }
        return ops;
      });
  res.ops_per_sec = r.ops_per_sec();
  capture_depth(map, res);
  return res;
}

bool emit_json(const char* path, const std::vector<CellResult>& cells) {
  return bench::emit_json_envelope(
      path, "bench_bst", cells.size(), [&](std::FILE* f, std::size_t i) {
        const CellResult& c = cells[i];
        std::fprintf(
            f,
            "{\"structure\": \"%s\", \"stream\": \"%s\", \"threads\": %d, "
            "\"update_pct\": %u, \"key_range\": %llu, \"ops_per_sec\": %.0f, "
            "\"avg_depth\": %.2f, \"max_depth\": %llu}",
            c.structure, c.stream, c.threads, c.update_pct,
            static_cast<unsigned long long>(c.key_range), c.ops_per_sec,
            c.avg_depth, static_cast<unsigned long long>(c.max_depth));
      });
}

bool run(const char* json_path) {
  std::printf("E6: trees on LLX/SCX (BST, Patricia, chromatic) vs locked "
              "std::map, %d ms per cell\n\n", bench::phase_millis());
  std::vector<CellResult> cells;

  for (std::uint64_t range : {std::uint64_t{1000}, std::uint64_t{100000}}) {
    std::printf("uniform stream, key range = %llu\n",
                static_cast<unsigned long long>(range));
    bench::Table t({"threads", "upd%", "llxscx-bst", "llxscx-patricia",
                    "llxscx-chromatic", "locked std::map"});
    for (int threads : bench::thread_grid({1, 2, 4})) {
      for (unsigned upd : {10u, 50u}) {
        const CellResult b =
            run_uniform<LlxScxBst>("bst", threads, upd, range);
        const CellResult p =
            run_uniform<LlxScxPatricia>("patricia", threads, upd, range);
        const CellResult c =
            run_uniform<LlxScxChromatic>("chromatic", threads, upd, range);
        const CellResult m =
            run_uniform<LockedStdMap>("locked-map", threads, upd, range);
        t.add_row({std::to_string(threads), std::to_string(upd),
                   bench::fmt(b.ops_per_sec / 1e6, 3) + "M",
                   bench::fmt(p.ops_per_sec / 1e6, 3) + "M",
                   bench::fmt(c.ops_per_sec / 1e6, 3) + "M",
                   bench::fmt(m.ops_per_sec / 1e6, 3) + "M"});
        cells.push_back(b);
        cells.push_back(p);
        cells.push_back(c);
        cells.push_back(m);
      }
    }
    t.print();
    std::printf("\n");
  }

  std::printf("sequential-insert stream (ascending keys; depth measured "
              "after the phase). 'seq-bulk' rows drive the same stream in "
              "64-key sorted runs through insert_all — one SCX per leaf "
              "group (DESIGN.md §15)\n");
  bench::Table st({"threads", "structure", "stream", "ops/s", "keys",
                   "avg depth", "max depth"});
  for (int threads : bench::thread_grid({1, 4})) {
    const CellResult row[] = {
        run_seq<LlxScxBst>("bst", threads),
        run_seq_bulk<LlxScxBst>("bst", threads),
        run_seq<LlxScxPatricia>("patricia", threads),
        run_seq_bulk<LlxScxPatricia>("patricia", threads),
        run_seq<LlxScxChromatic>("chromatic", threads),
        run_seq_bulk<LlxScxChromatic>("chromatic", threads),
    };
    for (const CellResult& r : row) {
      st.add_row({std::to_string(threads), r.structure, r.stream,
                  bench::fmt(r.ops_per_sec / 1e6, 3) + "M",
                  bench::fmt_u64(r.key_range), bench::fmt(r.avg_depth, 1),
                  bench::fmt_u64(r.max_depth)});
      cells.push_back(r);
    }
  }
  st.print();
  std::printf("\nnote: the BST's seq rows are the adversarial case — its "
              "max depth grows with every key while the chromatic tree "
              "stays at the red-black bound (test_chromatic pins the same "
              "numbers). seq-bulk ops/s counts KEYS, so the seq-bulk/seq "
              "ratio is the bulk-build speedup. The chromatic tree's "
              "single-thread seq-bulk rows are its degenerate case: the "
              "ramp's insertion parent is almost always red, so the "
              "≤1-violation rule shrinks every group to one key "
              "(chromatic_llxscx.h group_cap) and only the grouping-walk "
              "overhead remains; its win shows up under parallel grow.\n");

  std::printf("\nrange-scan stream: VLX-validated 100-key windows over a "
              "dense 100k-key prefill inserted in shuffled order — 0 LLX / "
              "0 CAS / 0 shared writes per clean attempt (test_range pins "
              "the step counts)\n");
  bench::Table sct({"threads", "structure", "scans/s", "keys", "avg depth",
                    "max depth"});
  for (int threads : bench::thread_grid({1, 4})) {
    const CellResult row[] = {
        run_scan<LlxScxBst>("bst", threads, 100000),
        run_scan<LlxScxPatricia>("patricia", threads, 100000),
        run_scan<LlxScxChromatic>("chromatic", threads, 100000),
    };
    for (const CellResult& r : row) {
      sct.add_row({std::to_string(threads), r.structure,
                   bench::fmt(r.ops_per_sec / 1e3, 1) + "K",
                   bench::fmt_u64(r.key_range), bench::fmt(r.avg_depth, 1),
                   bench::fmt_u64(r.max_depth)});
      cells.push_back(r);
    }
  }
  sct.print();

  Epoch::drain_all_for_testing();
  return json_path == nullptr || emit_json(json_path, cells);
}

}  // namespace
}  // namespace llxscx

int main(int argc, char** argv) {
  return llxscx::run(llxscx::bench::parse_json_flag(argc, argv)) ? 0 : 1;
}
