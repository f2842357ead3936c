#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (CMake, Release) under $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed. The last line of
stdout is the JSON result; its metric names and units are checked
against BENCHMARK.json. Any build failure, oracle mismatch or schema
drift exits nonzero without printing a result.

    python3 perfbench/run.py --check-determinism --workload <name> --seed <n>

runs the workload twice with one seed and fails unless every
deterministic counter line ("counters...") is identical.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-thm1", "federate-zipf", "churn-durable", "deepk-parallel")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build():
    out = build_root() / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(out), "-j", jobs], "build")
    return out / "perfbench"


def step(cmd, what):
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail(f"{what} failed")


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its stdout lines (result last)."""
    tmp = build_root() / "perfbench-tmp" / f"{workload}-{os.getpid()}"
    traces = build_root() / "perfbench-traces"
    tmp.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp-dir", str(tmp),
           "--trace-out", str(traces / f"{workload}.json")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"{workload} exited with code {r.returncode}", r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        fail("no result line")
    return lines


def check_schema(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {[n for n in got if n in want and got[n] != want[n]]}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-determinism", action="store_true")
    a = p.parse_args()
    binary = build()

    if a.check_determinism:
        seconds = min(a.seconds, 3)
        runs = [[l for l in run_binary(binary, a.workload, a.seed, seconds, 0)
                 if l.startswith("counters")] for _ in range(2)]
        for line in runs[0]:
            print(line)
        if runs[0] != runs[1] or not runs[0]:
            print("\n".join(runs[1]), file=sys.stderr)
            fail("deterministic counters differ between two runs")
        print(f"deterministic counters identical across two runs "
              f"({len(runs[0])} lines)")
        return

    lines = run_binary(binary, a.workload, a.seed, a.seconds, a.trace)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("result line is not JSON")
    check_schema(result, a.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
