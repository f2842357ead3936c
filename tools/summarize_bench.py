#!/usr/bin/env python3
"""Summarizes a bench_output.txt run into the EXPERIMENTS.md headline tables.

Usage: tools/summarize_bench.py [bench_output.txt]

Extracts, per experiment binary, the google-benchmark rows (name, CPU
time, counters) or passes through the plain-text tables of the
measurement binaries (E4/E6/E12/E13/E15/E19/E20/E22-E24/E26), so a
fresh run can be diffed against the numbers recorded in EXPERIMENTS.md.
The serving stacks are measured by perfbench/run.py, not here.

Exits nonzero, naming the section, when a `=== bench_x` section yields
no row or line: a binary that registered or printed nothing would
otherwise pass as a clean run.
"""

import re
import signal
import sys


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"summarize_bench.py: cannot read {path}: {e.strerror}",
              file=sys.stderr)
        return 1

    section = None
    gbench_row = re.compile(
        r"^(\S+)\s+(\d+(?:\.\d+)?) ns\s+(\d+(?:\.\d+)?) ns\s+\d+(.*)$")
    passthrough = False
    rows = {}  # section -> rows or lines it yielded
    for line in lines:
        if line.startswith("=== "):
            section = line.strip("= ").strip()
            rows.setdefault(section, 0)
            # Plain-table binaries are passed through verbatim.
            passthrough = section in {
                "bench_space", "bench_lemmas", "bench_em", "bench_rounds",
                "bench_ablation", "bench_build", "bench_selectivity",
                "bench_chaos", "bench_trace", "bench_perf", "bench_persist",
            }
            print(f"\n## {section}")
            continue
        if section is None:
            continue
        if passthrough:
            if line.strip():
                print(f"  {line}")
                rows[section] += 1
            continue
        m = gbench_row.match(line.strip())
        if m:
            name, _, cpu, counters = m.groups()
            extras = " ".join(
                tok for tok in counters.split()
                if "=" in tok and not tok.startswith("bytes_per_second"))
            cpu_us = float(cpu) / 1000.0
            print(f"  {name:<32} {cpu_us:>10.2f} us  {extras}")
            rows[section] += 1
    empty = [name for name, count in rows.items() if count == 0]
    for name in empty:
        print(f"summarize_bench.py: section {name} yielded no row or line",
              file=sys.stderr)
    return 1 if empty else 0


if __name__ == "__main__":
    # Behave under `| head`.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
