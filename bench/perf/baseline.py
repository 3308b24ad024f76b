#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and write a baseline file.

    python3 bench/perf/baseline.py --out bench/perf/results/baseline.json

Runs every workload of BENCHMARK.json RUNS times per set, each run with
another seed, for SETS independent sets (set k uses seeds FIRST_SEED +
k*RUNS ..). Within a set the workloads take turns, so slow spells on the
host hit all of them. For each end-to-end metric it reports the median and
the spread, (Q3 - Q1) / median with statistics.quantiles(n=4), and how far
each later set's median moved from the first set's in the metric's worse
direction. Both are judged against the bounds in BENCHMARK.json, setup_s
included: FAIL when a spread or a drift exceeds the bound, "unresolved"
when a spread exceeds a third of it. Ends with one traced run per workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1
run_wall_s = defaultdict(list)  # seconds per run.py call, to check the run-time budget
slowdowns = defaultdict(list)  # each untraced run's host slowdown, as run.py prints it


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "bench/perf/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    run_wall_s[workload + (" traced" if trace else "")].append(time.monotonic() - start)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"baseline.py: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    host = next((line for line in lines if line.startswith("host: ")), "")
    return result, host, lines[:-1]


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def verdict(v):
    if not v["spread_ok"] or not v["drift_ok"]:
        return "FAIL"
    return "ok" if v["spread_below_third"] else "unresolved (spread above bound/3)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    host = ""
    sets = []
    for k in range(SETS):
        raw = {w: {m: [] for m in bounds} for w in workloads}
        seeds = [FIRST_SEED + k * RUNS + i for i in range(RUNS)]
        for seed in seeds:
            for workload in workloads:
                result, host, lines = run(workload, seed, seconds, 0)
                slowdowns[workload].append(next(
                    float(line.split()[2]) for line in lines if line.startswith("host slowdown")))
                if not result["correct"] or result["failed"]:
                    sys.exit(f"baseline.py: {workload} seed {seed} failed: {result}")
                for name in bounds:
                    raw[workload][name].append(result["metrics"][name]["value"])
                print(f"set {k} seed {seed} {workload}: " + ", ".join(
                    f"{n} {v['value']:.6g}" for n, v in result["metrics"].items()), flush=True)
        sets.append({"seeds": seeds, "workloads": {
            w: {m: summarise(v) for m, v in raw[w].items()} for w in workloads}})

    verdicts = []
    for workload in workloads:
        for name, spec in bounds.items():
            first = sets[0]["workloads"][workload][name]
            spreads = [s["workloads"][workload][name]["spread"] for s in sets]
            sign = 1 if spec["better"] == "lower" else -1
            drifts = [sign * (s["workloads"][workload][name]["median"] - first["median"]) /
                      first["median"] for s in sets[1:]]
            verdicts.append({
                "workload": workload, "metric": name, "bound": spec["bound"],
                "spreads": spreads, "worse_drift": drifts,
                "spread_ok": max(spreads) <= spec["bound"],
                "spread_below_third": max(spreads) <= spec["bound"] / 3,
                "drift_ok": all(d <= spec["bound"] for d in drifts)})

    traced = {}
    for workload in workloads:
        result, _, lines = run(workload, FIRST_SEED, seconds, 1)
        traced[workload] = {"seed": FIRST_SEED, "correct": result["correct"],
                            "metrics": {n: v["value"] for n, v in result["metrics"].items()},
                            "output": lines}

    out = {"host": host, "run_seconds": seconds, "runs_per_set": RUNS,
           "run_wall_s": run_wall_s, "host_slowdown": slowdowns,
           "sets": sets, "verdicts": verdicts, "traced": traced}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")

    print(f"{'workload':<14} {'metric':<16} {'bound':>6} {'spreads':>18} {'drift':>8}  verdict")
    for v in verdicts:
        spreads = "/".join(f"{s:.3f}" for s in v["spreads"])
        drift = "/".join(f"{d:+.3f}" for d in v["worse_drift"])
        print(f"{v['workload']:<14} {v['metric']:<16} {v['bound']:>6} {spreads:>18} "
              f"{drift:>8}  {verdict(v)}")


if __name__ == "__main__":
    main()
