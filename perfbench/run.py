#!/usr/bin/env python3
"""Builds and runs the Circus real-runtime benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the repository root. The first form builds the `perfbench`
binary from the repository's sources (CMake; build tree in
$CARGO_TARGET_DIR, default .bench_build) and runs one workload; its last
line of output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The second form prints
every metric of every workload, untraced then traced.

Workloads (perfbench/main.cc has the details):
  echo1-seq   troupe of 1, one sequential caller, 16-byte echoes
  echo3-4k    troupe of 3, four callers, 4 KiB echoes
  replfs3-rw  replfs troupe of 3, four callers: one write transaction
              then three unanimous reads per cycle
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["echo1-seq", "echo3-4k", "replfs3-rw"]
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for needed in ("src/CMakeLists.txt", "bench/bench_util.cc"):
        if not (ROOT / needed).is_file():
            fail(f"missing {needed}: run from a full source checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                fail(f"configure failed, see {log_path}")
        jobs = str(min(3, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", str(build_dir), "--target",
                           "perfbench", "-j", jobs],
                          stdout=log, stderr=log).returncode:
            fail(f"build failed, see {log_path}")
    return build_dir / "perfbench"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this trace mode."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in spec[key]]


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, output lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} printed no result (exit {proc.returncode})")
    declared = declared_metrics(trace)
    if declared is not None and list(result["metrics"]) != declared:
        fail(f"{workload} reported {sorted(result['metrics'])}, "
             f"BENCHMARK.json declares {sorted(declared)}")
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    binary = build()
    if args.workload is not None:
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        print("\n".join(lines), flush=True)
        sys.exit(code)

    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.monotonic()
            code, lines = run_one(binary, workload, args.seed, args.seconds,
                                  trace)
            # The table only; the JSON line is for machines.
            print("\n".join(lines[:-1]))
            print(f"  (exit {code}, {time.monotonic() - start:.1f} s)\n",
                  flush=True)
            worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
