#!/usr/bin/env python3
"""Collects benchmark result sets and compares them against BENCHMARK.json's bounds.

    python3 perfbench/compare.py collect --out A.jsonl [--workload NAME ...] [--seeds 1-10]
                                         [--trace 0|1] [--seconds S]
    python3 perfbench/compare.py diff A.jsonl B.jsonl

`collect` runs `perfbench/run.py` once per workload and seed (default: every workload,
seeds 1-10, the `run_seconds` of BENCHMARK.json) and appends one JSON line per run to the
output file, then prints the set's spread. `diff` prints two result sets side by side per
workload and metric (median and quartiles of each), the change of the medians, and flags:

* `WORSE`  — the second median is worse than the first by more than the metric's bound;
* `NOISY`  — a side's quartile spread, as a share of its median, exceeds the bound;
* `WIDE`   — a side's spread exceeds a third of the bound (steady enough to pass, but not
             by the margin the benchmark aims for).

`setup_s` is exempt from the spread flags (its spread is not gated), never from `WORSE`.
Run from the repository root.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# A metric line of the human-readable report: `# name = value unit (n=samples)`.
REPORTED = re.compile(r"^# ([a-z][a-z0-9_.]*) = ([-+0-9.eE]+) \S+ \(n=\d+\)$")


def metric_specs(trace):
    """name -> spec dict for the metrics a run with this trace flag reports."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in SPEC[key]}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seconds = args.seconds or SPEC["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in seeds(args.seeds):
                command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: run failed (exit {done.returncode})")
                    print("\n".join(lines[-20:]))
                    return 1
                result = json.loads(lines[-1])
                # Metrics the report prints but the JSON result does not carry (the ungated
                # latencies), kept for side-by-side reading.
                reported = {m[1]: float(m[2]) for m in map(REPORTED.match, lines) if m}
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "result": result, "reported": reported}
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    report([load(args.out)], [args.out])
    return 0


def load(path):
    """workload -> metric -> list of values, from a JSON-lines result file."""
    sets = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            metrics = sets.setdefault(record["workload"], {})
            for name, metric in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            for name, value in record.get("reported", {}).items():
                if name not in record["result"]["metrics"]:
                    metrics.setdefault(name, []).append(value)
    return sets


def summary(values):
    """(median, q1, q3, spread) where spread is (q3 - q1) / |median|."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf") if q3 > q1 else 0.0
    return median, q1, q3, spread


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base` (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def flags(name, spec, spread):
    if spec is None or "bound" not in spec or name == "setup_s":
        return []
    if spread > spec["bound"]:
        return ["NOISY"]
    if spread > spec["bound"] / 3:
        return ["WIDE"]
    return []


def report(sets, labels):
    """Prints every workload x metric of one or two result sets side by side."""
    specs = {**metric_specs(True), **metric_specs(False)}
    workloads = sorted({w for s in sets for w in s})
    for workload in workloads:
        print(f"\n== {workload}")
        header = f"{'metric':28}" + "".join(f"{label[-36:]:>40}" for label in labels)
        print(header + ("   change  bound  flags" if len(sets) == 2 else "  flags"))
        names = sorted({n for s in sets for n in s.get(workload, {})})
        for name in names:
            spec = specs.get(name)
            cells, marks, medians = [], [], []
            for result_set in sets:
                values = result_set.get(workload, {}).get(name)
                if not values:
                    cells.append(f"{'-':>40}")
                    continue
                median, q1, q3, spread = summary(values)
                medians.append(median)
                cells.append(f"{median:>14.6g} [{q1:.4g}, {q3:.4g}] {spread:6.1%}".rjust(40))
                marks += flags(name, spec, spread)
            line = f"{name:28}" + "".join(cells)
            if len(sets) == 2 and len(medians) == 2 and spec and "bound" in spec:
                if worse_by(medians[0], medians[1], spec["better"]) > spec["bound"]:
                    marks.append("WORSE")
                change = worse_by(medians[0], medians[1], "lower")
                line += f" {change:+8.1%} {spec['bound']:5.2f}"
            print(line + ("  " + ",".join(sorted(set(marks))) if marks else ""))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("collect")
    run.add_argument("--out", required=True)
    run.add_argument("--workload", action="append")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", default="0", choices=["0", "1"])
    run.add_argument("--seconds", type=int)
    diff = sub.add_parser("diff")
    diff.add_argument("first")
    diff.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args)
    report([load(args.first), load(args.second)], [args.first, args.second])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
