#!/usr/bin/env python3
"""Reduce a traced run's span files to the per-layer table and metrics.

    python3 bench/perf/reduce_spans.py build-perf/trace/cell_par-seed1

run.py calls reduce() after every --trace 1 run. Each perf_driver process
of the run writes one span file into the directory. Span names are
"<layer>.<call>"; span layout and metric meanings are in README.md.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

# Counters summed over the cells of one unit (peaks take the maximum).
SUMMED = ("events", "events.arrive", "events.try_send", "events.credit",
          "events.send_done", "packets", "route_decisions", "nonminimal_packets",
          "makespan_ms", "mpi_messages", "mpi_bytes", "json_bytes", "allocations")
PEAKS = ("peak_queued", "pool_peak_packets")
PHASES = ("construct", "run", "report", "probe", "teardown")


def load(directory):
    """Every span of every file in `directory`. Ids, parents and traces are
    prefixed with the file's name, so the processes' spans stay apart."""
    spans = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                span = json.loads(line)
                for key in ("id", "parent", "trace"):
                    span[key] = f"{path.stem}:{span[key]}"
                spans.append(span)
    return spans


def duration(span):
    return span["end_ms"] - span["start_ms"]


def self_ms(span, children):
    """Duration minus the part of it that child spans cover."""
    covered, end = 0.0, span["start_ms"]
    for child in sorted(children, key=lambda c: c["start_ms"]):
        lo, hi = max(child["start_ms"], end), min(child["end_ms"], span["end_ms"])
        if hi > lo:
            covered += hi - lo
            end = hi
    return duration(span) - covered


def tail(values):
    """(label, value) of the highest percentile with ten samples beyond it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 11
    return f"p{100 * (rank + 1) / len(ordered):.0f}", ordered[rank]


def unit_totals(cells, children):
    """Sum the phase times and counters of the cells of one unit."""
    totals = defaultdict(float)
    for cell in cells:
        phase = {c["name"].rsplit(".", 1)[1]: duration(c) for c in children[cell["id"]]}
        for name in PHASES + ("serialise",):
            totals[name] += phase.get(name, 0.0)
        totals["simulate"] += max(0.0, phase["run"] - phase["probe"] - phase["report"])
        for key in SUMMED:
            totals[key] += cell["attrs"][key]
        for key in PEAKS:
            totals[key] = max(totals[key], cell["attrs"][key])
        totals["cells"] += 1
    return totals


def reduce(spans):
    """Return ({metric: {"value", "unit"}}, [table lines])."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def median_ms(name):
        return statistics.median(duration(s) for s in by_name[name]) if by_name[name] else 0.0

    # Study-level layers: the cells of each unit (the cell of a cell
    # workload's process, or the replayed unit of the others); median over
    # units.
    groups = defaultdict(list)
    for cell in by_name["core.study.cell"]:
        groups[cell["trace"]].append(cell)
    units = [unit_totals(cells, children) for cells in groups.values()]

    def per_unit(key):
        return statistics.median(u[key] for u in units) if units else 0.0

    runs = by_name["bench.run"]

    def total(key):
        """Sum of a count over the processes' windows, or else their replays."""
        owners = [s for s in runs if key in s["attrs"]] or by_name["bench.replay"]
        return sum(s["attrs"].get(key, 0) for s in owners)

    hits, misses = total("cache_hits"), total("cache_misses")
    reuses, builds = total("arena_reuses"), total("arena_builds")
    window_s = sum(duration(s) for s in runs) / 1000
    cpu_s = total("cpu_s")
    cpu_util = cpu_s / sum(duration(s) / 1000 * s["attrs"]["jobs"] for s in runs)
    events, cells = per_unit("events"), per_unit("cells")
    messages, packets = per_unit("mpi_messages"), per_unit("packets")
    builds_spans = by_name["core.blueprint.build"]

    values = {
        "core.blueprint.build_ms": median_ms("core.blueprint.build"),
        "core.blueprint.footprint_kb":
            builds_spans[0]["attrs"]["footprint_kb"] if builds_spans else 0.0,
        "core.blueprint.cache_hits": hits,
        "core.blueprint.cache_misses": misses,
        "core.study.setup_ms": median_ms("core.study.setup"),
        "core.study.wire_ms": median_ms("core.study.wire"),
        "core.study.simulate_ms": per_unit("simulate"),
        "core.study.report_ms": per_unit("report"),
        "core.study.teardown_ms": per_unit("teardown"),
        "core.json_report.serialise_ms": per_unit("serialise"),
        "core.json_report.bytes": per_unit("json_bytes"),
        "core.arena.allocs_per_cell": per_unit("allocations") / cells if cells else 0.0,
        "core.arena.reuse_ratio": reuses / (reuses + builds) if reuses + builds else 0.0,
        "core.plan.cpu_util": cpu_util,
        "sim.engine.events": events,
        "sim.engine.events.arrive": per_unit("events.arrive"),
        "sim.engine.events.try_send": per_unit("events.try_send"),
        "sim.engine.events.credit": per_unit("events.credit"),
        "sim.engine.events.send_done": per_unit("events.send_done"),
        "sim.engine.ns_per_event": per_unit("simulate") * 1e6 / events if events else 0.0,
        "sim.engine.peak_queued": per_unit("peak_queued"),
        "sim.makespan_ms": per_unit("makespan_ms"),
        "net.packets": packets,
        "net.pool_peak_packets": per_unit("pool_peak_packets"),
        "routing.decisions": per_unit("route_decisions"),
        "routing.nonminimal_fraction": per_unit("nonminimal_packets") / packets if packets else 0.0,
        "mpi.messages": messages,
        "mpi.bytes": per_unit("mpi_bytes"),
        "mpi.bytes_per_message": per_unit("mpi_bytes") / messages if messages else 0.0,
    }
    per_layer = [(m["name"], m["unit"]) for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer}

    # --- the table ---------------------------------------------------------
    table = ["trace: self time by layer (duration minus child-span coverage)",
             f"  {'layer':<18} {'spans':>7} {'total ms':>12} {'self ms':>12} {'self %':>7}"]
    layers = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        row = layers[span["name"].rsplit(".", 1)[0]]
        row[0] += 1
        row[1] += duration(span)
        row[2] += self_ms(span, children[span["id"]])
    all_self = sum(row[2] for row in layers.values()) or 1.0
    for layer, (count, span_ms, own) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
        table.append(f"  {layer:<18} {count:>7} {span_ms:>12.3f} {own:>12.3f} "
                     f"{100 * own / all_self:>6.1f}%")

    table.append(f"trace: per-layer metrics (median over {len(units)} explained unit(s) "
                 f"of {cells:.0f} cell(s); Study layers of campaign and daemon units come "
                 "from the in-process replay)")
    bases = {
        "core.blueprint.cache_hits": f"of {hits + misses:.0f} lookups",
        "core.arena.allocs_per_cell": f"over {cells:.0f} cells",
        "core.arena.reuse_ratio": f"{reuses:.0f} reused of {reuses + builds:.0f} objects",
        "core.plan.cpu_util": f"{cpu_s:.2f} cpu s over {window_s:.2f} s in {len(runs)} "
                              f"window(s) at {runs[0]['attrs']['jobs']:.0f} job(s)",
        "sim.engine.ns_per_event": f"over {events:.0f} events",
        "routing.nonminimal_fraction": f"of {packets:.0f} packets",
        "mpi.bytes_per_message": f"over {messages:.0f} messages",
    }
    for name, unit in per_layer:
        base = f"  ({bases[name]})" if name in bases else ""
        table.append(f"  {name:<32} {values[name]:>16.6g} {unit}{base}")

    extra = []
    plans = by_name["core.plan.run_plan"]
    if plans:
        sinks = [duration(s) for s in by_name["core.plan.sink"]]
        extra += [
            f"  core.plan.load_plan_ms p50 {median_ms('core.plan.load_plan'):.3f}",
            f"  core.plan.cells {sum(p['attrs']['cells'] for p in plans):.0f}, "
            f"core.plan.cells_failed {sum(p['attrs']['failed'] for p in plans):.0f}, "
            f"core.plan.attempts {sum(p['attrs']['attempts'] for p in plans):.0f} "
            f"over {len(plans)} campaign(s)",
            f"  core.plan.first_cell_ms p50 "
            f"{statistics.median(p['attrs']['first_cell_ms'] for p in plans):.3f}",
            f"  core.plan.sink_ms p50 {statistics.median(sinks):.4f} per cell "
            f"({len(sinks)} cells)",
        ]
    submissions = by_name["serve.submission"]
    if submissions:
        latencies = [duration(s) for s in submissions]
        high = tail(latencies)
        extra += [
            f"  serve.startup_ms p50 {median_ms('serve.startup'):.3f}",
            f"  serve.accept_ms p50 {median_ms('serve.accept'):.3f}",
            f"  serve.first_cell_ms p50 {median_ms('serve.first_cell'):.3f}",
            f"  serve.tail_ms p50 {median_ms('serve.tail'):.3f}",
            f"  serve.submission_ms p50 {statistics.median(latencies):.3f}"
            + (f", {high[0]} {high[1]:.3f}" if high else "")
            + f" (n = {len(latencies)})",
            f"  serve.daemon_cpu_s {cpu_s:.3f}, serve.spool_bytes "
            f"{total('spool_bytes'):.0f} over {len(runs)} daemon(s)",
        ]
    if extra:
        table.append("trace: workload-specific layers")
        table += extra
    return metrics, table


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: reduce_spans.py SPAN_DIRECTORY")
    metrics, table = reduce(load(sys.argv[1]))
    print("\n".join(table))
    print(json.dumps(metrics))


if __name__ == "__main__":
    main()
