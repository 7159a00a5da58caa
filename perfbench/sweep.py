#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b] [--seeds 1-10]
                               [--trace 0|1]

Runs perfbench/run.py once per (workload, seed) with BENCHMARK.json's
run_seconds, appends {"workload", "seed", "trace", "result"} lines to
--out, then prints per (workload, metric) the median, the quartile
distance as a share of the median, and for end-to-end metrics whether
that spread is within the metric's bound (and within a third of it).
Two --out files feed perfbench/compare.py.
"""
import argparse
import json
import pathlib
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    for workload in args.workloads.split(","):
        for seed in seeds(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with out.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "trace": int(args.trace),
                                    "result": result}) + "\n")
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)

    specs = compare.metric_specs()
    runs = compare.load_runs(out)
    print(f"{'workload':<10} {'metric':<36} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}  check")
    for (workload, name), values in sorted(runs.items()):
        spec = specs.get(name, {})
        s = compare.spread(values)
        check = "-"
        if "bound" in spec and name != "setup_s":
            check = "ok" if s <= spec["bound"] / 3 else ("within bound" if s <= spec["bound"] else "TOO WIDE")
        bound = f"{spec['bound']:.2f}" if "bound" in spec else "-"
        print(f"{workload:<10} {name:<36} {len(values):>3} {compare.quartiles(values)[1]:>12.5g} "
              f"{s:>8.3f} {bound:>6}  {check}")


if __name__ == "__main__":
    main()
