#!/usr/bin/env python3
"""Summarizes a bench_output.txt run into the EXPERIMENTS.md headline tables.

Usage: tools/summarize_bench.py [bench_output.txt]

Extracts, per experiment binary, the google-benchmark rows (name, CPU
time, counters) or passes through the plain-text tables of the
measurement binaries (E4/E6/E12/E13/E15/E19/E20), so a fresh run can be
diffed against the numbers recorded in EXPERIMENTS.md. bench_serve's
(E21) `metrics_json` lines are parsed and re-rendered as compact rows:
queries served, aggregate QueryStats counters of note, and latency
percentiles from the serving layer's own histogram export.
"""

import json
import re
import signal
import sys


class MetricsError(Exception):
    """A metrics_json line that cannot be summarized faithfully."""


def render_serve_metrics(line: str, lineno: int) -> str:
    """'metrics_json structure=X threads=N {json}' -> one compact row.

    Raises MetricsError on malformed JSON or missing keys: a silently
    dropped or half-rendered row would be mistaken for a clean run when
    diffing against EXPERIMENTS.md.
    """
    head, brace, payload = line.partition("{")
    if not brace:
        raise MetricsError(f"line {lineno}: metrics_json without a "
                           f"JSON payload: {line!r}")
    try:
        m = json.loads("{" + payload)
    except json.JSONDecodeError as e:
        raise MetricsError(
            f"line {lineno}: malformed metrics JSON ({e}): {line!r}") from e
    tags = " ".join(tok for tok in head.split() if "=" in tok)
    try:
        lat = m["latency_ns"]
        row = (
            f"  {tags:<32} queries={m['queries']} "
            f"p50={lat['p50'] / 1e3:.1f}us p95={lat['p95'] / 1e3:.1f}us "
            f"p99={lat['p99'] / 1e3:.1f}us max={lat['max'] / 1e3:.1f}us "
        )
        stats = m["stats"]
    except (KeyError, TypeError) as e:
        raise MetricsError(
            f"line {lineno}: metrics JSON missing expected key {e}: "
            f"{line!r}") from e
    # Degradation outcomes (serve/result.h); absent in pre-ResultStatus
    # captures, rendered only when any request did not come back ok.
    results = m.get("results", {})
    degraded = {k: v for k, v in results.items() if k != "ok" and v}
    if degraded:
        row += " ".join(f"{k}={v}" for k, v in sorted(degraded.items())) + " "
    interesting = {k: v for k, v in stats.items() if v}
    row += " ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
    # Slow-query log (bounded, descending latency); absent when no query
    # crossed the engine's slow_query_ns threshold.
    for q in m.get("slow_queries", []):
        try:
            row += (
                f"\n  {'':<32} slow: {q['latency_ns'] / 1e3:.1f}us "
                f"batch={q['batch']} slot={q['slot']} work={q['work']} "
                f"status={q['status']}"
            )
        except (KeyError, TypeError) as e:
            raise MetricsError(
                f"line {lineno}: slow_queries entry missing key {e}: "
                f"{line!r}") from e
    return row


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
    for lineno, line in enumerate(lines, 1):
        if line.startswith("=== "):
            section = line.strip("= ").strip()
            # Plain-table binaries are passed through verbatim.
            passthrough = section in {
                "bench_space", "bench_lemmas", "bench_em", "bench_rounds",
                "bench_ablation", "bench_build", "bench_selectivity",
                "bench_serve", "bench_chaos", "bench_trace", "bench_perf",
                "bench_dynamic", "bench_persist", "bench_parallel",
                "bench_federate",
            }
            print(f"\n## {section}")
            continue
        if section is None:
            continue
        if passthrough:
            if line.startswith("metrics_json "):
                try:
                    print(render_serve_metrics(line, lineno))
                except MetricsError as e:
                    print(f"summarize_bench.py: {path}: {e}",
                          file=sys.stderr)
                    return 1
            elif line.strip():
                print(f"  {line}")
            continue
        m = gbench_row.match(line.strip())
        if m:
            name, _, cpu, counters = m.groups()
            extras = " ".join(
                tok for tok in counters.split()
                if "=" in tok and not tok.startswith("bytes_per_second"))
            cpu_us = float(cpu) / 1000.0
            print(f"  {name:<32} {cpu_us:>10.2f} us  {extras}")
    return 0


if __name__ == "__main__":
    # Behave under `| head`.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
