#!/usr/bin/env python3
"""Builds and runs the end-to-end and per-layer benchmark of faasflow::System.

    python3 perfbench/run.py --workload montage --seed 1 --seconds 10 --trace 0

The simulator is compiled from the repository's src/ together with the
benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench, in
Release. Build output goes to stderr; standard output is the benchmark's
report, whose last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The spans the benchmark recorded are written to
.bench_build/perfbench/spans/. Exits non-zero, without a result, when the
sources are missing, the build fails, or the benchmark does not finish.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "faasflow_perfbench"
# The benchmark stops starting and running windows after 150 s; this only
# catches a program that hangs inside one simulated event.
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 2)],
        stdout=sys.stderr, check=True)


def source_digest():
    """sha256 over src/: identifies the program under test where git
    metadata is absent."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    return out.stdout.strip() or "none"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end" if trace == 0 else
                                    "per_layer"]]


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return False
    return sorted(result["metrics"]) == sorted(expected_metrics(trace))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        log(f"error: no simulator sources at {ROOT / 'src'}")
        return 1
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"error: build failed: {err}")
        return 1

    spans = BUILD / "spans" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    spans.parent.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--spans", str(spans),
               "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1],
                                                            args.trace):
        sys.stderr.write(proc.stdout)
        log(f"error: benchmark exited {proc.returncode} without a valid "
            "result line")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
