#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --counters [--write]

Run from anywhere inside a checkout that holds src/ and benchmark/. The
build goes to .bench_build/ at the checkout root (Release, both binaries).

--trace 0 runs the untraced binary and reports the end-to-end metrics.
--trace 1 first runs the untraced binary on the same inputs (its output
fingerprint and host time are the reference), then the traced binary, and
reports the per-layer metrics plus bench.trace_overhead_frac. The traced
run's spans go to .bench_build/traces/.

Every run writes its full record (all metrics, checks, counters and build
provenance) to .bench_build/results/, which benchmark/compare.py reads.
The last line of standard output is the summary:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--counters runs the traced binary in counters mode on every workload and on
the ladder, and prints how the deterministic counts differ from
benchmark/counters.json (--write re-baselines that file). It never fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
# Environment overrides the library reads at testbed construction; a
# benchmark run must not inherit them from the caller's shell.
SCRUBBED_ENV = ("MEMCA_CLIENT_MODE", "MEMCA_SERVICE_QUANTUM", "MEMCA_SWEEP_THREADS",
                "MEMCA_SWEEP_AFFINITY")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "2"])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the summary line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def child_env():
    env = dict(os.environ)
    for key in SCRUBBED_ENV:
        env.pop(key, None)
    return env


def run_binary(binary, args):
    """Runs a benchmark binary, echoes its report, returns its final JSON record."""
    cmd = [str(BUILD_DIR / binary)] + [str(a) for a in args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          env=child_env(), cwd=ROOT)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"{binary} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    if not (ROOT / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_hash():
    """SHA-256 over the library and benchmark sources (works without git)."""
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def load_json(name):
    with open(BENCH_DIR / name) as f:
        return json.load(f)


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    build()
    common = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds]
    expected = load_json("expected.json")
    reference = None
    if args.seed == expected["seed"] and args.workload in expected["fingerprints"]:
        reference = expected["fingerprints"][args.workload]

    record = {"provenance": {"git_commit": git_commit(), "source_hash": source_hash(),
                             "nproc": os.cpu_count(), "seed": args.seed}}
    untraced = run_binary("memca_bench", common + (
        ["--expect-fingerprint", reference] if reference else []))
    record["untraced"] = untraced
    final = untraced["result"]
    wanted = spec["end_to_end"]
    metrics = dict(final["metrics"])
    correct, attempted, failed = final["correct"], final["attempted"], final["failed"]

    if args.trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}.seed{args.seed}.trace.json"
        traced = run_binary("memca_bench_traced", common + [
            "--expect-fingerprint", final["fingerprint"], "--trace-out", trace_path])
        record["traced"] = traced
        final = traced["result"]
        metrics = dict(final["metrics"])
        host = untraced["result"]["metrics"]["host_ms_per_sim_s"]["value"]
        traced_host = metrics["host_ms_per_sim_s"]["value"]
        metrics["bench.trace_overhead_frac"] = {"value": (traced_host - host) / host,
                                                "unit": "ratio"}
        wanted = spec["per_layer"]
        correct = correct and final["correct"]
        attempted = final["attempted"]
        failed = min(attempted, failed + final["failed"])

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("binary did not report: " + ", ".join(missing))
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                           for m in wanted}}
    record["summary"] = summary
    results = BUILD_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}.seed{args.seed}.trace{int(args.trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"result record: {out}", file=sys.stderr)
    print(json.dumps(summary))


def run_counters(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    seed = load_json("expected.json")["seed"]
    measured = {}
    for name in [w["name"] for w in spec["workloads"]] + ["ladder"]:
        record = run_binary("memca_bench_traced",
                            ["--workload", name, "--seed", seed, "--counters"])
        measured[name] = record["result"]["counters"]
        if not record["result"]["correct"]:
            print(f"counters: {name} failed an output check", file=sys.stderr)
    baseline_path = BENCH_DIR / "counters.json"
    baseline = json.loads(baseline_path.read_text()).get("counters", {})
    diffs = 0
    for name, counts in measured.items():
        old = baseline.get(name, {})
        for key in sorted(set(counts) | set(old)):
            if counts.get(key) != old.get(key):
                diffs += 1
                print(f"{name}.{key}: {old.get(key)} -> {counts.get(key)}")
    print(f"counters: {diffs} difference(s) from benchmark/counters.json")
    if args.write:
        baseline_path.write_text(json.dumps({"seed": seed, "counters": measured}, indent=1,
                                            sort_keys=True) + "\n")
        print("counters: benchmark/counters.json rewritten")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counters", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    if args.counters:
        run_counters(args)
    elif args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
