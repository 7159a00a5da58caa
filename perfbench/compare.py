#!/usr/bin/env python3
"""Compare two sets of benchmark runs, per (workload, metric).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON object per line, {"workload", "seed", "trace",
"result"}, as perfbench/sweep.py writes them. For every (workload, metric)
pair present in both sets the tool prints each side's median and
quartiles, the change of the median, and a verdict against the metric's
bound from BENCHMARK.json:

  ok          the new median is not worse than the base by more than the bound
  worse       it is
  unresolved  a side's spread (quartile distance / median) exceeds the bound,
              and not every new run beats every base run
  better      every new run beats every base run
  -           per-layer metric (no bound; shown for the trace)

The tool only reports; it gates nothing and always exits 0.
"""
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_runs(path):
    runs = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            runs.setdefault((rec["workload"], name), []).append(float(m["value"]))
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 when every value is 0)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(q2)


def metric_specs():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        specs.setdefault(m["name"], m)
    return specs


def verdict(spec, base, new):
    if "bound" not in spec:
        return "-"
    lower = spec["better"] == "lower"
    beats = (max(new) < min(base)) if lower else (min(new) > max(base))
    if beats:
        return "better"
    bound = spec["bound"]
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (n - b) / abs(b) if lower else (b - n) / abs(b)
    return "worse" if worse_by > bound else "ok"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    base, new = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    specs = metric_specs()
    print(f"{'workload':<10} {'metric':<36} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'change':>8} {'bound':>6}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec = specs.get(name, {})
        b1, b2, b3 = quartiles(base[key])
        n1, n2, n3 = quartiles(new[key])
        change = f"{(n2 - b2) / abs(b2) * 100:+.1f}%" if b2 else "-"
        bound = f"{spec['bound']:.2f}" if "bound" in spec else "-"
        base_s = f"{b2:.5g} [{b1:.5g}, {b3:.5g}]"
        new_s = f"{n2:.5g} [{n1:.5g}, {n3:.5g}]"
        print(f"{workload:<10} {name:<36} {base_s:<34} {new_s:<34} {change:>8} {bound:>6}  "
              f"{verdict(spec, base[key], new[key])}")


if __name__ == "__main__":
    main()
