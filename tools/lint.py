#!/usr/bin/env python3
"""Repo-specific lint for src/ headers and sources.

Usage: tools/lint.py <dir-or-file>...

Checks (see CLAUDE.md conventions):
  guard        .h files carry an include guard named TOPK_<PATH>_H_
               derived from the path under src/, opened within the first
               30 lines and closed by a matching `#endif  // ...` tail;
               `#pragma once` is banned.
  namespace    every header declares `namespace topk` (possibly nested,
               e.g. `namespace topk::range1d`).
  assert       bare `assert(` is banned — use TOPK_CHECK (always on) or
               TOPK_DCHECK (debug only). static_assert is fine.
  random       direct RNG use (`rand(`, `srand(`, `std::mt19937`,
               `std::random_device`, `random_shuffle`) is banned outside
               common/random.h — all randomness flows through topk::Rng
               with explicit seeds so builds stay deterministic.
  sleep        `sleep_for` / `sleep_until` is banned outside src/fault/
               (simulated latency spikes and retry backoff, off by
               default) — a sleep anywhere else either hides a missing
               synchronization primitive or wrecks benchmark
               determinism. Suppress a justified use with
               `// lint: sleep-ok <reason>`.
  tracer       a raw `trace::Tracer*` is null whenever tracing is
               disabled (the production default), so dereferencing one
               with `->` outside src/trace/ bypasses the null-safe
               entry points (trace::Span, trace::Count, trace::Instant)
               and crashes the untraced path. The rule flags any
               identifier containing "tracer" followed by `->`; code
               that has genuinely established non-null (e.g. behind the
               engine's tracing_enabled() gate) suppresses with
               `// lint: tracer-ok <reason>`.
  function     `std::function` is banned under src/core/ and src/serve/:
               owning type-erasure may heap-allocate on construction,
               which silently breaks the zero-allocation steady-state
               contract (DESIGN.md "scratch memory contract"). Use a
               template parameter for stored callables or
               topk::FunctionRef (common/function_ref.h) for borrowed
               ones. Suppress a justified use with
               `// lint: function-ok <reason>`.
  epoch        a type marked `// epoch-published` (the unit of
               publication in serve/epoch.h's epoch/snapshot rotation)
               is shared const across reader threads while a writer
               retires and frees instances; every non-atomic data
               member must therefore declare its thread-safety posture
               with a `// epoch:` comment on the declaration line (who
               writes it, when it becomes immutable). std::atomic
               members are exempt. Suppress a justified bare member
               with `// lint: epoch-ok <reason>`.
  io           raw file I/O (`open`/`fopen`, `pread`/`pwrite`,
               `fsync`/`fdatasync`, `ftruncate`, `fread`/`fwrite`/
               `fclose`, std::filesystem, std::fstream) is banned
               outside src/em/ — every byte that reaches a disk must
               flow through ByteStorage / BlockDevice so it stays
               countable (the I/O counters ARE the experiment),
               fault-injectable, and crash-testable (DESIGN.md
               "durability contract"). Suppress a justified use with
               `// lint: io-ok <reason>`.

A finding prints `path:line: [rule] message`; exit status is the number
of findings (0 = clean). Suppress any rule on one line with
`// lint: <rule>-ok`.
"""

import re
import sys
from pathlib import Path

RULES = ("guard", "namespace", "assert", "random", "sleep", "tracer",
         "function", "epoch", "io")

RANDOM_RE = re.compile(
    r"(?<![\w:])(rand|srand)\s*\(|std::mt19937|std::random_device"
    r"|random_shuffle")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")
SLEEP_RE = re.compile(r"\bsleep_(for|until)\s*\(")
TRACER_DEREF_RE = re.compile(r"\b\w*[Tt]racer\w*\s*->")
FUNCTION_RE = re.compile(r"\bstd::function\s*<")
# Raw-file-I/O surface: POSIX fd calls, stdio, and the std::filesystem /
# std::fstream families. The lookbehind (no word char or `.`) admits
# `::open(` and bare `open(` but not member calls like `is_open(` or
# identifiers like `reopen(`.
IO_RE = re.compile(
    r"std::filesystem|std::[io]?fstream"
    r"|(?<![\w.])(f?open|fsync|fdatasync|pread|pwrite|ftruncate"
    r"|fread|fwrite|fclose)\s*\(")
# Lines inside an epoch-published type that are NOT member declarations
# needing an `// epoch:` posture: functions/ctors (anything with parens
# is skipped separately), type aliases, static members, access
# specifiers, nested type heads, and friend declarations.
EPOCH_NONMEMBER_RE = re.compile(
    r"^\s*(using\s|typedef\s|static\s|friend\s|public:|private:|"
    r"protected:|struct\s|class\s|enum\s|template\s*<)")


def sleep_sanctioned(path: Path) -> bool:
    """The one home where a real sleep is part of the contract."""
    return "fault" in path.parts


def io_sanctioned(path: Path) -> bool:
    """The one home where raw file I/O is the module's whole job."""
    return "em" in path.parts


def function_banned(path: Path) -> bool:
    """Where owning type-erasure would sit on the zero-alloc hot path."""
    return "core" in path.parts or "serve" in path.parts


def suppressed(line: str, rule: str) -> bool:
    return f"lint: {rule}-ok" in line


def expected_guard(path: Path, root: Path) -> str:
    path, root = path.resolve(), root.resolve()
    rel = path.relative_to(root) if path.is_relative_to(root) else path
    parts = [p.upper() for p in rel.with_suffix("").parts]
    if parts and parts[0] == "SRC":
        parts = parts[1:]
    return "TOPK_" + "_".join(re.sub(r"[^A-Z0-9]", "_", p) for p in parts) \
        + "_H_"


def check_file(path: Path, root: Path, findings: list) -> None:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    def report(lineno: int, rule: str, msg: str) -> None:
        if lineno <= len(lines) and suppressed(lines[lineno - 1], rule):
            return
        findings.append(f"{path}:{lineno}: [{rule}] {msg}")

    is_header = path.suffix == ".h"
    if is_header:
        guard = expected_guard(path, root)
        ifndef_at = next((i for i, ln in enumerate(lines)
                          if ln.strip() == f"#ifndef {guard}"), None)
        if ifndef_at is None:
            report(1, "guard", f"missing `#ifndef {guard}`")
        elif not (ifndef_at + 1 < len(lines)
                  and lines[ifndef_at + 1].strip() == f"#define {guard}"):
            report(ifndef_at + 1, "guard",
                   f"`#define {guard}` must follow the #ifndef")
        elif not any(f"#endif  // {guard}" in ln for ln in lines[-3:]):
            report(len(lines), "guard",
                   f"missing trailing `#endif  // {guard}`")
        for i, ln in enumerate(lines, 1):
            if "#pragma once" in ln:
                report(i, "guard", "`#pragma once` is banned; use the "
                                   "TOPK_..._H_ guard")
        if not re.search(r"^namespace topk\b", text, re.M):
            report(1, "namespace", "header does not open `namespace topk`")

    in_block_comment = False
    # epoch rule state: brace depth inside the most recent type marked
    # `// epoch-published` (-1 = not inside one; the marker arms
    # epoch_pending until the type's opening brace is seen).
    epoch_depth = -1
    epoch_pending = False
    for i, ln in enumerate(lines, 1):
        code = ln
        if in_block_comment:
            if "*/" in code:
                code = code.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        code = code.split("//", 1)[0]
        if "/*" in code:
            code = code.split("/*", 1)[0]
            in_block_comment = "*/" not in ln.split("/*", 1)[1]

        # The marker must be a dedicated comment line (prose that merely
        # mentions the phrase must not arm the rule on the next brace).
        if epoch_depth < 0 and ln.strip().startswith("// epoch-published"):
            epoch_pending = True
        opens, closes = code.count("{"), code.count("}")
        if epoch_depth >= 0 or (epoch_pending and opens):
            if epoch_pending:
                epoch_depth = 0
                epoch_pending = False
            stripped = code.strip()
            if (epoch_depth == 1 and opens == 0 and closes == 0
                    and stripped.endswith(";") and "(" not in stripped
                    and not EPOCH_NONMEMBER_RE.match(stripped)
                    and "std::atomic" not in stripped
                    and "// epoch:" not in ln):
                report(i, "epoch",
                       "member of an epoch-published type without a "
                       "thread-safety posture: non-atomic state shared "
                       "const across reader threads needs an "
                       "`// epoch: <who writes it, when immutable>` "
                       "comment (or `// lint: epoch-ok <reason>`)")
            epoch_depth += opens - closes
            if epoch_depth <= 0:
                epoch_depth = -1

        if not code.strip():
            continue

        if ASSERT_RE.search(code) and "static_assert" not in code:
            report(i, "assert", "bare assert(); use TOPK_CHECK / TOPK_DCHECK")
        if path.name != "random.h" and RANDOM_RE.search(code):
            report(i, "random", "direct RNG use; draw from topk::Rng "
                                "(common/random.h) with an explicit seed")
        if not sleep_sanctioned(path) and SLEEP_RE.search(code):
            report(i, "sleep", "sleep_for/sleep_until outside src/fault/; "
                               "a sleep hides a missing sync primitive or "
                               "wrecks benchmark determinism")
        if not io_sanctioned(path) and IO_RE.search(code):
            report(i, "io",
                   "raw file I/O outside src/em/; route bytes through "
                   "ByteStorage / BlockDevice so they stay countable, "
                   "fault-injectable, and crash-testable, or annotate "
                   "`// lint: io-ok <reason>`")
        if function_banned(path) and FUNCTION_RE.search(code):
            report(i, "function",
                   "std::function in src/core/ or src/serve/ may "
                   "heap-allocate and breaks the zero-allocation "
                   "steady-state contract; use a template parameter or "
                   "topk::FunctionRef, or annotate "
                   "`// lint: function-ok <reason>`")
        if "trace" not in path.parts and TRACER_DEREF_RE.search(code):
            report(i, "tracer",
                   "raw Tracer* dereference outside src/trace/; a tracer "
                   "pointer is null when tracing is off — go through the "
                   "null-safe trace::Span / trace::Count / trace::Instant "
                   "or annotate `// lint: tracer-ok <reason>`")


def file_root(path: Path) -> Path:
    """Guard-derivation root for a file passed directly on the command
    line: the nearest ancestor directory named `src` (so
    `lint.py /abs/path/src/core/sink.h` expects TOPK_CORE_SINK_H_, the
    same guard the directory sweep expects), falling back to the file's
    parent. The old behavior fell back to Path(".") and derived guards
    from the full invocation path — a clean header linted singly got a
    spurious prefix and a bogus [guard] finding."""
    for ancestor in path.resolve().parents:
        if ancestor.name == "src":
            return ancestor
    return path.parent


def main(argv: list) -> int:
    if not argv:
        print("usage: lint.py <dir-or-file>...", file=sys.stderr)
        return 2
    files = []  # (path, guard root) — the root travels per file, so a
    #             mixed dir+file invocation derives every guard locally.
    for arg in argv:
        p = Path(arg)
        if p.is_dir():
            files += [(f, p) for f in
                      sorted(p.rglob("*.h")) + sorted(p.rglob("*.cc"))]
        elif p.exists():
            files.append((p, file_root(p)))
        else:
            print(f"lint.py: no such path: {p}", file=sys.stderr)
            return 2
    findings = []
    for f, root in files:
        check_file(f, root, findings)
    for f in findings:
        print(f)
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
    else:
        print(f"lint.py: {len(files)} files clean")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
