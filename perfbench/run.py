#!/usr/bin/env python3
"""Sharded KV front-end benchmark: build the driver, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. It builds perfbench/kvbench.cpp (three
binaries, see CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the workload and
prints human-readable lines followed by, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. The exit code is 0
only when every output check passed.

--selftest runs every workload at smoke size, once as built, once with
the fault-injecting engine and once traced, and checks that the first
passes, the second fails and the third reports every per-layer metric.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The workloads and metrics, with their units, are the ones BENCHMARK.json names.
try:
    SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
except (OSError, json.JSONDecodeError) as e:
    print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
    sys.exit(2)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, flush=True)


def fail(msg, code=2):
    print(f"error: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not d.is_absolute():
        d = ROOT / d
    return d / "perfbench"


def build(targets):
    """Configure once, then build the targets; output goes to stderr."""
    if not (ROOT / "src" / "service" / "sharded_map.h").is_file():
        fail(f"{ROOT}/src is missing: run from the root of a full checkout")
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        cache.unlink()  # configured from another checkout
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "2", "--target", *targets])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)} exited {r.returncode}")
    return bdir


def run_binary(path, args, echo=True):
    """Run one driver binary; return (exit code, its result object or None)."""
    try:
        r = subprocess.run([str(path), *args], capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{path.name}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = r.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            log(f"  {line}")
    if r.stderr.strip():
        print(r.stderr.strip(), file=sys.stderr, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        log(f"{path.name}: no result line (exit {r.returncode})")
    return r.returncode, result


def envelope(seed, results):
    cache = {}
    cache_file = build_dir() / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, val = line.partition("=")
                cache[key.split(":")[0]] = val
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for f in sorted(top.rglob("*")):
            if f.is_file() and f.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', '?')} {results[0].get('compiler', '?')}",
        "flags": " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                      cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if x),
        "build_type": build_type,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "binaries": [{k: r.get(k) for k in ("binary", "count_steps", "relaxed_orders", "fault_every")}
                     for r in results],
    }


def metric(name, value, table):
    return name, {"value": float(value), "unit": table[name]}


def run_workload(args):
    bdir = build(["perfbench_e2e", "perfbench_trace"])
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    runs = []  # (exit code, result)
    if args.trace == 0:
        runs.append(run_binary(bdir / "perfbench_e2e", common))
    else:
        # The first round of the traced build, bracketed by the first round
        # of the untraced one: the throughput ratio is the tracing overhead,
        # and the bracket cancels drift of the host's speed.
        one = common + ["--rounds", "1"]
        spans = bdir / "spans" / f"{args.workload}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        runs.append(run_binary(bdir / "perfbench_e2e", one))
        runs.append(run_binary(bdir / "perfbench_trace", one + ["--spans", str(spans)]))
        runs.append(run_binary(bdir / "perfbench_e2e", one))
    for (_, res), name in zip(runs, ["perfbench_e2e", "perfbench_trace", "perfbench_e2e"]):
        if res is not None:
            res["binary"] = name
    if any(res is None for _, res in runs):
        fail("a driver binary produced no result", 1)
    results = [res for _, res in runs]
    correct = all(rc == 0 for rc, _ in runs) and all(res["failed"] == 0 for res in results)
    attempted = sum(int(res["attempted"]) for res in results)
    failed = sum(int(res["failed"]) for res in results)

    e2e = results[0]
    if args.trace == 0:
        lat = e2e["latency"][e2e["primary"]]
        metrics = dict([
            metric("throughput_mops", e2e["throughput_mops"]["median"], END_TO_END),
            metric("p50_us", lat["p50_us"], END_TO_END),
            metric("p99_us", lat["p99_us"], END_TO_END),
            metric("setup_s", e2e["setup_s"], END_TO_END),
            metric("mem_bytes_per_key", e2e["mem_bytes_per_key"], END_TO_END),
        ])
    else:
        traced = results[1]
        layers = dict(traced["layers"])
        untraced = (e2e["throughput_mops"]["median"] + results[2]["throughput_mops"]["median"]) / 2
        layers["trace.overhead_frac"] = 1.0 - traced["throughput_mops"]["median"] / untraced
        metrics = dict(metric(name, layers[name], PER_LAYER) for name in PER_LAYER)

    env = envelope(args.seed, results)
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "envelope": env, "runs": results, "metrics": metrics}
    reports = bdir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    report_path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    t = e2e["throughput_mops"]
    log(f"envelope: seed {args.seed}, nproc {env['nproc']}, cpu {env['cpu_model']}, "
        f"compiler {env['compiler']}, flags '{env['flags']}', git {env['git_sha']}, "
        f"source sha256 {env['source_sha256'][:16]}")
    for b in env["binaries"]:
        log(f"  {b['binary']}: COUNT_STEPS={b['count_steps']} RELAXED_ORDERS={b['relaxed_orders']}")
    log(f"throughput windows: {t['windows']} x {t['window_s']:.3f} s, "
        f"q1 {t['q1']:.4f} median {t['median']:.4f} q3 {t['q3']:.4f} Mops/s")
    for cls, lat in e2e["latency"].items():
        log(f"{cls} latency: p50 {lat['p50_us']:.4f} us, p99 {lat['p99_us']:.4f} us, "
            f"medians over {int(lat['windows'])} windows of {int(lat['samples'])} samples"
            + ("  (primary call)" if cls == e2e["primary"] else ""))
    log(f"ops_failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")
    for name, m in metrics.items():
        log(f"{name} {m['value']:.6g} {m['unit']}")
    log(f"report: {report_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def selftest():
    """Smoke every workload, then check the fault-injecting engine is caught."""
    bdir = build(["perfbench_e2e", "perfbench_trace", "perfbench_fault"])
    problems = []
    layer_map = json.loads((HERE / "layer_map.json").read_text())["metrics"]
    if set(layer_map) != set(PER_LAYER):
        problems.append("layer_map.json does not name the per-layer metrics of BENCHMARK.json")
    for name, entry in layer_map.items():
        for e2e, workload in entry["moves"]:
            if e2e not in END_TO_END or workload not in WORKLOADS:
                problems.append(f"layer_map.json: {name} moves unknown {e2e} on {workload}")
    for w in WORKLOADS:
        args = ["--workload", w, "--seed", "7", "--seconds", "1", "--smoke", "--rounds", "2"]
        rc, res = run_binary(bdir / "perfbench_e2e", args, echo=False)
        ok = rc == 0 and res is not None and res["failed"] == 0 and res["throughput_mops"]["median"] > 0
        log(f"smoke {w}: exit {rc}, ops_failed_frac {res and res['ops_failed_frac']} -> "
            f"{'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"smoke {w} failed")
        rc, res = run_binary(bdir / "perfbench_fault", args, echo=False)
        caught = rc != 0 and res is not None and res["ops_failed_frac"] > 0
        log(f"fault {w}: exit {rc}, ops_failed_frac {res and res['ops_failed_frac']} -> "
            f"{'caught' if caught else 'NOT CAUGHT'}")
        if not caught:
            problems.append(f"fault injection on {w} not caught")
        rc, res = run_binary(bdir / "perfbench_trace", args, echo=False)
        missing = [] if res is None else [m for m in PER_LAYER if m not in res["layers"]
                                          and m != "trace.overhead_frac"]
        ok = rc == 0 and res is not None and not missing
        log(f"trace {w}: exit {rc}, missing per-layer metrics {missing} -> {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"trace {w} failed")
    for p in problems:
        log(f"SELFTEST PROBLEM: {p}")
    log("selftest " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
