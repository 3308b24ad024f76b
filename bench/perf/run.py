#!/usr/bin/env python3
"""Build and run the repository benchmark (bench/perf/README.md).

    python3 bench/perf/run.py --workload cell_par --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
build-perf/ (RelAssert); later calls only rebuild what changed. A run starts
perf_driver processes one after another until --seconds have passed: each
unit process is preceded by PROBES_PER_PROCESS set-up probes and
REFERENCES_PER_PROCESS timings of the reference work, each a process of its
own. It checks the outputs and reduces the samples of all of them. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every process records spans
under build-perf/trace/, and the metrics are the per-layer ones reduced from
them, printed after the layer table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-perf"
DRIVER = BUILD / "bin" / "perf_driver"

# The seed whose outputs golden_seed1.txt pins.
GOLDEN_SEED = 1
# Set-ups timed before each unit process, each in a fresh process of its
# own; setup_s is their median. Host speed drifts over seconds, so probes
# spread over the run agree better from run to run than one burst does. A
# probe call takes about 12 ms, so 16 of them cost under a tenth of a cycle.
PROBES_PER_PROCESS = 16
# The reference work's usual time, in ms, on the 4-vCPU VM that made the
# committed baseline. The whole host slows and speeds up by 10 to 50 % for
# minutes at a time, and the reference work follows it, but less steeply.
# Times are divided, and rates multiplied, by the run's slowdown: its median
# reference time over REFERENCE_MS, raised to SLOWDOWN_EXPONENT. In four
# baselines of 80 runs each on that VM, a run's log events_per_s and log
# setup_s moved 1.2 to 3.2 times as far as its log reference time
# (|correlation| 0.79 to 0.96), every workload alike. Re-applied to those
# runs, exponent 2 left the smallest worst-case ten-run spread of 1, 1.5, 2
# and 2.5 (README, "Noise").
REFERENCE_MS = 110.0
SLOWDOWN_EXPONENT = 2.0
# The exponent multiplies the reference's own sampling noise too, so each
# cycle times the reference work this many times, each in its own process.
REFERENCES_PER_PROCESS = 3
# These switch the library's parallelism and storage paths behind the
# benchmark's back; a run under any of them would not measure the workload.
FORBIDDEN_ENV = ("DFSIM_JOBS", "DFSIM_CELL_THREADS", "DFSIM_NO_ARENA", "DFSIM_NO_BLUEPRINT")

sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark directory
sys.path.insert(0, str(HERE))
import reduce_spans  # noqa: E402


def build():
    """Configure and build the driver and the daemon binary (a no-op when current)."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelAssert"],
             ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perf_driver", "dflysim"]]
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"run.py: build failed, see {log_path}")


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def call(args, spans):
    """Run perf_driver once; return its host line and its JSON result."""
    cmd = [str(DRIVER), *args]
    if spans is not None:
        cmd.append(f"--spans={spans.relative_to(ROOT)}")
    # The driver's paths are relative to the root, which keeps the daemon's
    # unix-socket path short. A call that finishes no unit of work (a daemon
    # whose every client failed) exits non-zero, so the run cannot spin on it.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit(f"run.py: perf_driver exited {proc.returncode} without a result")
    return lines[0], json.loads(lines[-1])


def load_golden(workload):
    golden = {}
    for line in (HERE / "golden_seed1.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            name, slot, digest = line.split()
            if name == workload:
                golden[int(slot)] = digest
    return golden


def check(workload, seed, units, errors):
    """Mark the cells of units whose output fails a check as failed, and
    return each input slot's digest. Every unit of one slot must give the
    same bytes, and at the golden seed the bytes golden_seed1.txt pins."""
    digests = {}
    for unit in units:
        if digests.setdefault(unit["slot"], unit["digest"]) != unit["digest"]:
            errors.append(f"input slot {unit['slot']} gave different output in two units")
            unit["failed"] = unit["cells"]
    if seed == GOLDEN_SEED:
        golden = load_golden(workload)
        for slot, digest in digests.items():
            if golden.get(slot) != digest:
                errors.append(f"input slot {slot} digest {digest} does not match "
                              "golden_seed1.txt")
                for unit in units:
                    if unit["slot"] == slot:
                        unit["failed"] = unit["cells"]
    return digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for name in FORBIDDEN_ENV:
        if name in os.environ:
            sys.exit(f"run.py: refusing to run with {name} set; unset it")

    build()
    base = [f"--workload={args.workload}", f"--seed={args.seed}", f"--git-sha={git_sha()}"]
    trace_dir = BUILD / "trace" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)

    def spans(name):
        return trace_dir / f"{name}.jsonl" if args.trace else None

    setup_ms, reference_ms, units, errors, peak_rss = [], [], [], [], []
    deadline = time.monotonic() + args.seconds
    while not units or time.monotonic() < deadline:
        for _ in range(PROBES_PER_PROCESS):
            host, result = call(base + ["--probe", f"--cpu={len(setup_ms)}"],
                                spans(f"setup{len(setup_ms):03d}"))
            setup_ms.append(result["setup_ms"])
        for _ in range(REFERENCES_PER_PROCESS):
            reference_ms.append(call(base + ["--reference", f"--cpu={len(reference_ms)}"],
                                     None)[1]["reference_ms"])
        remaining = max(deadline - time.monotonic(), 0.0)
        _, result = call(base + [f"--cpu={len(peak_rss)}", f"--seconds={remaining:.3f}"],
                         spans(f"run{len(peak_rss):03d}"))
        units += result["units"]
        errors += result["errors"]
        peak_rss.append(result["peak_rss_mb"])

    digests = check(args.workload, args.seed, units, errors)
    print(host)
    for slot, digest in sorted(digests.items()):
        print(f"digest {args.workload} slot {slot} {digest}")
    for error in errors:
        print(f"run.py: {error}", file=sys.stderr)
    attempted = sum(unit["cells"] for unit in units)
    failed = sum(unit["failed"] for unit in units)
    correct = not errors and failed == 0
    print(f"{args.workload}: {len(peak_rss)} processes, {len(units)} units, {attempted} cells, "
          f"{failed} failed, seed {args.seed}" + (", traced" if args.trace else ""))

    unit_ms = statistics.median(unit["ms"] for unit in units)
    rate = statistics.median(unit["events"] / (unit["ms"] / 1000) for unit in units)
    setup_s = statistics.median(setup_ms) / 1000
    slowdown = (statistics.median(reference_ms) / REFERENCE_MS) ** SLOWDOWN_EXPONENT
    print(f"host slowdown {slowdown:.4f} (reference {statistics.median(reference_ms):.3f} ms "
          f"over {len(reference_ms)} timings); as measured: unit_p50_ms {unit_ms:.3f}, "
          f"events_per_s {rate:.0f}, setup_s {setup_s:.6f}")
    metrics = {
        "unit_p50_ms": (unit_ms / slowdown, "ms"),
        "events_per_s": (rate * slowdown, "1/s"),
        "setup_s": (setup_s / slowdown, "s"),
        "peak_rss_mb": (max(peak_rss), "MB"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    last = BUILD / "last" / f"{args.workload}.json"
    if not args.trace:
        if correct:
            last.parent.mkdir(exist_ok=True)
            last.write_text(json.dumps({"seed": args.seed, "metrics": metrics}) + "\n")
    else:
        per_layer, table = reduce_spans.reduce(reduce_spans.load(trace_dir))
        print("\n".join(table))
        traced = metrics["unit_p50_ms"]["value"]
        if last.exists():
            untraced = json.loads(last.read_text())
            base_ms = untraced["metrics"]["unit_p50_ms"]["value"]
            print(f"tracing overhead: unit_p50_ms {traced:.3f} traced - {base_ms:.3f} untraced "
                  f"(seed {untraced['seed']}) = {traced - base_ms:+.3f} ms "
                  f"({100 * (traced - base_ms) / base_ms:+.1f}%)")
        else:
            print(f"tracing overhead: unit_p50_ms {traced:.3f} traced; run --trace 0 on "
                  f"{args.workload} first to compare")
        metrics = per_layer
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
