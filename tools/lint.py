#!/usr/bin/env python3
"""Project lint: the static half of TangoAudit.

Stdlib-only (the container has no third-party Python packages) and
degrades gracefully when optional external tools are missing:

  hot-path        no node-based std:: containers (map/set/list/unordered_*)
                  in the allocation-free hot paths (src/sim, src/flow, the
                  DSS-LC round in src/sched/dss_lc.* and the state storage
                  in src/metrics/state_storage.*).
  raw-new         no raw `new`/`delete` outside the event pool's SBO
                  callback; annotate deliberate uses with
                  `// tango-lint: allow(raw-new)`.
  rng             no unseeded/global randomness (std::random_device,
                  std::mt19937, rand, srand) — determinism is a test
                  contract; use common/rng.h's seeded Rng.
  stats-struct    no new ad-hoc `struct FooStats`/`FooCounters` bookkeeping
                  outside src/scope — register counters/gauges/histograms
                  with scope::MetricRegistry instead. Pre-TangoScope
                  structs are grandfathered; annotate deliberate new ones
                  with `// tango-lint: allow(stats-struct)`.
  shard-isolation in src/shard, scheduling calls (ScheduleAt/ScheduleAfter/
                  StartPeriodic/SchedulePeriodic) may only target the
                  caller's own simulator (`sim_->...` in ClusterModel,
                  `sh.sim....` in the engine's epoch driver) — reaching into
                  another shard's simulator bypasses the mailbox protocol
                  and silently breaks byte-identity across shard counts.
                  Annotate deliberate uses with
                  `// tango-lint: allow(shard-isolation)`.
  inference-tape  the GEMM kernel files (src/nn/gemm.h/.cpp) must stay off
                  the autograd tape: no include of nn/autograd.h and no
                  Var/Node/MakeNode/Backward references. The tape runs on
                  the kernel (MatMul, SoftmaxProbs), so a reverse edge
                  would be an include cycle, and a kernel that allocated
                  tape nodes would break its write-into-caller-sized-output
                  contract.
  storm-stream    src/storm generators are pull-based: no materialized
                  request vectors (std::vector<...Request...>) and no
                  push_back/emplace_back inside Next* paths — batches
                  defeat the zero-allocation streaming contract. Annotate
                  a deliberate materialization boundary (e.g. Drain) with
                  `// tango-lint: allow(storm-stream)` on the same or the
                  preceding line.
  headers         every header under src/ must be self-contained
                  (compiles alone with `g++ -fsyntax-only`).
  format          clang-format --dry-run over src/tests/bench/examples;
                  skipped with a notice when clang-format is absent.
  changelog       with --base REF: the diff against REF must touch
                  CHANGES.md (every PR appends one line).

Exit status 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Path prefixes whose code runs on the simulator's per-event hot path or in
# every DSS-LC round and state sync: the steady state must not allocate, so
# node-based containers are banned.
HOT_PATH_DIRS = ("src/sim", "src/flow", "src/sched/dss_lc.",
                 "src/metrics/state_storage.")

HOT_PATH_BAN = re.compile(
    r"std::(map|multimap|set|multiset|list|unordered_map|unordered_set"
    r"|unordered_multimap|unordered_multiset)\s*<")

# Raw allocation outside a pool. Placement new (`::new (ptr)` / `new (ptr)`)
# is pool machinery and allowed; `new Foo` / `delete p` are not.
RAW_NEW = re.compile(r"(?<![:\w])new\s+[A-Za-z_:]")
PLACEMENT_NEW = re.compile(r"new\s*\(")
RAW_DELETE = re.compile(r"(?<![\w.>])delete(\[\])?\s+[A-Za-z_:*(]")
ALLOW_RAW_NEW = "tango-lint: allow(raw-new)"

UNSEEDED_RNG = re.compile(
    r"std::random_device|std::mt19937|(?<![\w.>:])s?rand\s*\(")

# Ad-hoc metric bookkeeping: new `struct FooStats` / `struct FooCounters`
# outside src/scope should be scope::MetricRegistry metrics instead.
STATS_STRUCT = re.compile(r"^\s*struct\s+(\w*(?:Stats|Counters))\b")
ALLOW_STATS_STRUCT = "tango-lint: allow(stats-struct)"
# Structs that predate TangoScope (kept as plain views/aggregates).
GRANDFATHERED_STATS = {
    "PeriodStats", "LcRoundStats", "TraceStats",
}

# Scheduling inside src/shard must go through the owner's own simulator;
# any other receiver is a cross-shard schedule that must ride the mailbox.
SCHEDULE_CALL = re.compile(
    r"([A-Za-z_][\w.\[\]()*>-]*\s*(?:->|\.)\s*)?"
    r"(ScheduleAt|ScheduleAfter|StartPeriodic|SchedulePeriodic)\s*\(")
SHARD_OK_RECEIVERS = re.compile(r"^(sim_\s*->|sh\.sim\s*\.)\s*$")
ALLOW_SHARD_ISOLATION = "tango-lint: allow(shard-isolation)"

# The GEMM kernel sits under the tape: autograd.cpp calls its MatMul and
# SoftmaxProbs, so any autograd reference here is an include cycle and a
# way for the kernel to start allocating Nodes.
INFERENCE_TAPE_FILES = ("src/nn/gemm.h", "src/nn/gemm.cpp")
INFERENCE_TAPE_INCLUDE = re.compile(r'#\s*include\s*"nn/autograd\.h"')
INFERENCE_TAPE_BAN = re.compile(
    r"\b(?:nn::)?(Var|MakeNode|Backward|ZeroGrad)\b|\bstruct\s+Node\b"
    r"|\bNode\s*\*")

# Streaming generators (src/storm) must never materialize request batches:
# a request vector, or any container append reachable from a Next* path,
# breaks the zero-allocation pull contract. Drain is the one deliberate
# boundary and carries the allow annotation.
STORM_DIR = "src/storm"
ALLOW_STORM_STREAM = "tango-lint: allow(storm-stream)"
STORM_NEXT_DEF = re.compile(r"\bNext\w*\s*\(")
STORM_REQUEST_VECTOR = re.compile(r"std::vector\s*<[^>]*\bRequest\b")
STORM_MATERIALIZE = re.compile(r"\b(?:push_back|emplace_back)\s*\(")

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")


def source_files(*exts: str) -> list[str]:
    out = []
    for d in SOURCE_DIRS:
        root = os.path.join(REPO, d)
        for dirpath, dirnames, names in os.walk(root):
            # Analyzer fixtures are deliberately non-conforming; both
            # tools/vet/testdata and tools/testdata hold seeded violations.
            dirnames[:] = [dn for dn in sorted(dirnames) if dn != "testdata"]
            for n in sorted(names):
                if n.endswith(tuple(exts)):
                    out.append(os.path.join(dirpath, n))
    return out


def rel(path: str) -> str:
    return os.path.relpath(path, REPO)


def strip_comments_and_strings(line: str) -> str:
    """Crude single-line scrub so bans don't fire inside comments/strings."""
    line = re.sub(r'"([^"\\]|\\.)*"', '""', line)
    line = re.sub(r"'([^'\\]|\\.)*'", "''", line)
    return line.split("//", 1)[0]


def check_hot_path(findings: list[str]) -> None:
    for path in source_files(".h", ".cpp"):
        r = rel(path)
        if not r.startswith(HOT_PATH_DIRS):
            continue
        with open(path, encoding="utf-8") as f:
            for i, raw in enumerate(f, 1):
                if ALLOW_RAW_NEW in raw or "tango-lint: allow(container)" in raw:
                    continue
                line = strip_comments_and_strings(raw)
                if HOT_PATH_BAN.search(line):
                    findings.append(
                        f"{r}:{i}: [hot-path] node-based std:: container in "
                        f"an allocation-free path: {raw.strip()}")


def check_raw_new(findings: list[str]) -> None:
    for path in source_files(".h", ".cpp"):
        r = rel(path)
        if not r.startswith("src/"):
            continue
        with open(path, encoding="utf-8") as f:
            for i, raw in enumerate(f, 1):
                if ALLOW_RAW_NEW in raw:
                    continue
                line = strip_comments_and_strings(raw)
                if PLACEMENT_NEW.search(line):
                    continue
                if RAW_NEW.search(line) or RAW_DELETE.search(line):
                    findings.append(
                        f"{r}:{i}: [raw-new] raw new/delete outside a pool "
                        f"(annotate with `// {ALLOW_RAW_NEW}` if deliberate): "
                        f"{raw.strip()}")


def check_rng(findings: list[str]) -> None:
    for path in source_files(".h", ".cpp"):
        r = rel(path)
        with open(path, encoding="utf-8") as f:
            for i, raw in enumerate(f, 1):
                if "tango-lint: allow(rng)" in raw:
                    continue
                line = strip_comments_and_strings(raw)
                if UNSEEDED_RNG.search(line):
                    findings.append(
                        f"{r}:{i}: [rng] non-deterministic randomness "
                        f"(use common/rng.h with an explicit seed): "
                        f"{raw.strip()}")


def check_stats_struct(findings: list[str]) -> None:
    for path in source_files(".h", ".cpp"):
        r = rel(path)
        if not r.startswith("src/") or r.startswith("src/scope"):
            continue
        with open(path, encoding="utf-8") as f:
            for i, raw in enumerate(f, 1):
                if ALLOW_STATS_STRUCT in raw:
                    continue
                m = STATS_STRUCT.match(strip_comments_and_strings(raw))
                if m and m.group(1) not in GRANDFATHERED_STATS:
                    findings.append(
                        f"{r}:{i}: [stats-struct] ad-hoc counter struct "
                        f"{m.group(1)!r} outside src/scope — use "
                        f"scope::MetricRegistry (or annotate with "
                        f"`// {ALLOW_STATS_STRUCT}`)")


def check_shard_isolation(findings: list[str]) -> None:
    for path in source_files(".h", ".cpp"):
        r = rel(path)
        if not r.startswith("src/shard"):
            continue
        with open(path, encoding="utf-8") as f:
            for i, raw in enumerate(f, 1):
                if ALLOW_SHARD_ISOLATION in raw:
                    continue
                line = strip_comments_and_strings(raw)
                for m in SCHEDULE_CALL.finditer(line):
                    receiver = m.group(1) or ""
                    if SHARD_OK_RECEIVERS.match(receiver):
                        continue
                    findings.append(
                        f"{r}:{i}: [shard-isolation] {m.group(2)} on "
                        f"receiver {receiver.strip() or '<free call>'!r} — "
                        f"cross-shard effects must use the mailbox API "
                        f"(MailboxGrid::Send), not another shard's "
                        f"simulator: {raw.strip()}")


def check_inference_tape(findings: list[str]) -> None:
    for r in INFERENCE_TAPE_FILES:
        path = os.path.join(REPO, r)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as f:
            for i, raw in enumerate(f, 1):
                if INFERENCE_TAPE_INCLUDE.search(raw):
                    findings.append(
                        f"{r}:{i}: [inference-tape] the GEMM kernel must "
                        f"not include nn/autograd.h: {raw.strip()}")
                    continue
                line = strip_comments_and_strings(raw)
                if INFERENCE_TAPE_BAN.search(line):
                    findings.append(
                        f"{r}:{i}: [inference-tape] autograd reference in "
                        f"the tape-free GEMM kernel: {raw.strip()}")


def check_storm_stream(findings: list[str]) -> None:
    for path in source_files(".h", ".cpp"):
        r = rel(path)
        if not r.startswith(STORM_DIR):
            continue
        # Tiny state machine: 0 = outside any Next* path, 1 = saw a Next*
        # signature and await its opening brace, 2 = inside a Next* body or
        # a loop driven by a Next* call (brace-depth tracked).
        state = 0
        depth = 0
        prev_allow = False
        with open(path, encoding="utf-8") as f:
            for i, raw in enumerate(f, 1):
                allowed = ALLOW_STORM_STREAM in raw or prev_allow
                prev_allow = ALLOW_STORM_STREAM in raw
                line = strip_comments_and_strings(raw)
                if state == 0 and STORM_NEXT_DEF.search(line):
                    brace = line.find("{")
                    semi = line.find(";")
                    if brace >= 0 and (semi < 0 or brace < semi):
                        state, depth = 2, 0
                    elif semi < 0:
                        state = 1
                elif state == 1:
                    if "{" in line:
                        state, depth = 2, 0
                    elif ";" in line:
                        state = 0
                if not allowed and STORM_REQUEST_VECTOR.search(line):
                    findings.append(
                        f"{r}:{i}: [storm-stream] materialized request "
                        f"vector in a streaming generator — sources stay "
                        f"pull-based (annotate a deliberate boundary with "
                        f"`// {ALLOW_STORM_STREAM}`): {raw.strip()}")
                elif state == 2 and not allowed and \
                        STORM_MATERIALIZE.search(line):
                    findings.append(
                        f"{r}:{i}: [storm-stream] container append on a "
                        f"Next* path — streaming generators must not "
                        f"materialize batches (annotate with "
                        f"`// {ALLOW_STORM_STREAM}` if deliberate): "
                        f"{raw.strip()}")
                if state == 2:
                    depth += line.count("{") - line.count("}")
                    if depth <= 0:
                        state = 0


def check_headers(findings: list[str]) -> None:
    gxx = shutil.which("g++") or shutil.which("c++")
    if gxx is None:
        print("lint: [headers] skipped (no g++ on PATH)")
        return
    headers = [p for p in source_files(".h") if rel(p).startswith("src/")]
    for path in headers:
        proc = subprocess.run(
            [gxx, "-std=c++20", "-fsyntax-only", "-x", "c++",
             "-I", os.path.join(REPO, "src"), path],
            capture_output=True, text=True)
        if proc.returncode != 0:
            first = proc.stderr.strip().splitlines()
            findings.append(
                f"{rel(path)}: [headers] not self-contained: "
                f"{first[0] if first else 'compile failed'}")


def check_format(findings: list[str]) -> None:
    cf = shutil.which("clang-format")
    if cf is None:
        print("lint: [format] skipped (no clang-format on PATH)")
        return
    files = source_files(".h", ".cpp")
    proc = subprocess.run(
        [cf, "--dry-run", "-Werror", *files], capture_output=True, text=True)
    if proc.returncode != 0:
        for line in proc.stderr.strip().splitlines():
            if "error:" in line:
                findings.append(f"[format] {line}")


def check_changelog(findings: list[str], base: str) -> None:
    proc = subprocess.run(
        ["git", "-C", REPO, "diff", "--name-only", f"{base}...HEAD"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        findings.append(f"[changelog] git diff against {base!r} failed: "
                        f"{proc.stderr.strip()}")
        return
    touched = proc.stdout.split()
    if touched and "CHANGES.md" not in touched:
        findings.append(
            "[changelog] the change does not append to CHANGES.md "
            "(every PR records one line there)")


def main() -> int:
    global REPO
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", metavar="DIR", default=REPO,
                        help="tree to lint (default: this repo; the lint "
                             "test suite points it at seeded fixtures)")
    parser.add_argument("--base", metavar="REF", default=None,
                        help="also require CHANGES.md to differ from REF")
    parser.add_argument("--skip", action="append", default=[],
                        choices=["hot-path", "raw-new", "rng", "stats-struct",
                                 "shard-isolation", "inference-tape",
                                 "storm-stream", "headers", "format"],
                        help="disable one check (repeatable)")
    args = parser.parse_args()

    REPO = os.path.abspath(args.root)
    if not os.path.isdir(REPO):
        print(f"lint: error: no such root {REPO!r}", file=sys.stderr)
        return 2

    findings: list[str] = []
    checks = {
        "hot-path": check_hot_path,
        "raw-new": check_raw_new,
        "rng": check_rng,
        "stats-struct": check_stats_struct,
        "shard-isolation": check_shard_isolation,
        "inference-tape": check_inference_tape,
        "storm-stream": check_storm_stream,
        "headers": check_headers,
        "format": check_format,
    }
    for name, fn in checks.items():
        if name in args.skip:
            continue
        fn(findings)
    if args.base:
        check_changelog(findings, args.base)

    for f in findings:
        print(f"lint: {f}")
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
