#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the library sources
under src/ and the benchmark program (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build. Build
output and the program's diagnostics go to stderr. The last line of stdout
is the result object {"correct", "attempted", "failed", "metrics"}; with
--trace 1 the metrics are the per-layer ones and the spans are written
under .bench_out/. Exits non-zero, printing no result, when the sources are
missing, the build fails or the run does not finish.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            die(f"build step {cmd[:2]} exited with {proc.returncode}")
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(ROOT / ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{args.workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"{args.workload} printed a malformed result: {lines[-1][:200]}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])


if __name__ == "__main__":
    main()
