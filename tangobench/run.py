#!/usr/bin/env python3
"""Build and run the Tango benchmark.

    python3 tangobench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 tangobench/run.py --test      # the benchmark's own tests

Configures tangobench/CMakeLists.txt in Release mode into .bench_build/ at
the repository root (incrementally; the first build compiles the Tango
libraries from src/), runs the benchmark binary, and checks that its last
stdout line is a result whose metrics are exactly the ones BENCHMARK.json
declares for the mode. Exits non-zero, without a result, if the build
fails or the output does not match.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def fail(msg):
    print(f"tangobench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed (needs the repository's src/)")
        cmd = ["cmake", "--build", BUILD, "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail("build failed")


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {k: v.get("unit") for k, v in result["metrics"].items()}
    if printed != declared:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(printed) ^ set(declared))}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()
    if not args.test and not args.workload:
        ap.error("--workload is required")

    build()
    if args.test:
        sys.exit(subprocess.run([os.path.join(BUILD, "tangobench_test")]).returncode)

    cmd = [os.path.join(BUILD, "tangobench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
           "--out", os.path.join(ROOT, ".bench_build", "traces")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    check_result(lines[-1], args.trace == "1")
    print(lines[-1])
    if proc.returncode != 0:
        fail(f"a correctness gate failed (exit code {proc.returncode})")


if __name__ == "__main__":
    main()
