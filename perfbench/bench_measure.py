"""Measurement and reporting for one workload run (see run.py for the CLI).

Imported only after run.py has checked the checkout and capped the
thread pools, because importing the workloads imports numpy and repro.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_speed
import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE.parent / ".perfbench"
MIN_ROUNDS = 2
SETUP_PROBES = 3

# The set-up probe: a fresh interpreter that imports, loads the registry
# and expands the workload's specs, then reports ready.
PROBE = (
    "import sys, pathlib; sys.path[:0] = sys.argv[1:3]; import bench_workloads; "
    "bench_workloads.build(sys.argv[3], int(sys.argv[4]), pathlib.Path(sys.argv[5])); print('ready', flush=True)"
)

LEG_SLOTS = ("leg1_per_s", "leg2_per_s", "leg3_per_s")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "leg1_per_s": "1/s",
    "leg2_per_s": "1/s",
    "leg3_per_s": "1/s",
    "op_p50_ms": "ms",
}
PER_LAYER = {
    "runner.overhead_ms_p50": "ms",
    "runner.driver_ms_total": "ms",
    "op_p99_ms": "ms",
    "cas.source_hash_calls": "count",
    "cas.source_hash_ms": "ms",
    "store.append_ms": "ms",
    "store.bytes_written": "bytes",
    "store.merge_ms": "ms",
    "store.merge_docs": "count",
    "store.resume_scan_ms": "ms",
    "store.resume_hit_ratio": "ratio",
    "result.to_dict_ms": "ms",
    "result.from_dict_ms": "ms",
    "heap.events": "count",
    "heap.events_per_s": "1/s",
    "heap.build_ms": "ms",
    "medium.transmissions": "count",
    "epoch.large.us_per_epoch": "us",
    "epoch.large.resolved": "count",
    "epoch.density.us_per_epoch": "us",
    "epoch.density.epochs": "count",
    "epoch.build_ms": "ms",
    "la.tables_built": "count",
    "la.table_build_ms": "ms",
    "la.lookups": "count",
    "viterbi.codewords": "count",
    "viterbi.hard.us_per_codeword": "us",
    "viterbi.soft.us_per_codeword": "us",
    "sweep.kernel_ms": "ms",
    "kernels.demap_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "speed.probe_ms": "ms",
}


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Interpreter start to inputs built, once per fresh probe process."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, str(SRC), str(HERE), workload, str(seed), str(workdir)],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        samples.append(elapsed)
    return samples


def traced_round(workload, tracer):
    """One round with the tracer's wrappers installed for exactly its length."""
    tracer.reset()
    tracer.install()
    try:
        return workload.run_round(tracer)
    finally:
        tracer.uninstall()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile *q* of *values*."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))]


def layer_metrics(result, nodes: list[dict], inclusive: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced round (see README.md for each)."""

    def ms(*names: str) -> float:
        return sum(inclusive.get(name, 0.0) for name in names) * 1e3

    def count(name: str, leg: str | None = None) -> float:
        return sum(v for (where, what), v in result.counts.items() if what == name and leg in (None, where))

    def leg_ms(name: str, leg: str) -> float:
        intervals = [(start, end) for where, start, end in result.leg_intervals if where == leg]
        return sum(n["end"] - n["start"] for n in nodes
                   if n["name"] == name and any(start <= n["start"] <= end for start, end in intervals)) * 1e3

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    # The resume scan is the store reads run_batch does before executing
    # anything; merge reads the same generator but is timed as merge.
    scan_ms = sum(n["end"] - n["start"] for i, n in enumerate(nodes)
                  if n["name"] in ("store.scan", "store.content_key")
                  and bench_trace.has_ancestor(nodes, i, "runner.run_batch")) * 1e3
    tables_built, lookups = result.la_tallies
    hard, soft = count("viterbi.hard.codewords"), count("viterbi.soft.codewords")
    return {
        "runner.overhead_ms_p50": statistics.median(result.overhead_ms),
        "runner.driver_ms_total": result.driver_s * 1e3,
        "op_p99_ms": percentile(result.gaps_ms, 99),
        "cas.source_hash_calls": count("cas.source_hash_calls"),
        "cas.source_hash_ms": ms("cas.source_hash"),
        "store.append_ms": ms("store.append"),
        "store.bytes_written": result.extra.get("store.bytes_written", 0),
        "store.merge_ms": ms("store.merge"),
        "store.merge_docs": count("store.merge_docs"),
        "store.resume_scan_ms": scan_ms,
        "store.resume_hit_ratio": result.extra.get("store.resume_hit_ratio", 0.0),
        "result.to_dict_ms": ms("result.to_dict"),
        "result.from_dict_ms": ms("result.from_dict"),
        "heap.events": count("heap.events"),
        "heap.events_per_s": ratio(count("heap.events"), ms("heap.run") / 1e3),
        "heap.build_ms": ms("heap.build"),
        "medium.transmissions": count("medium.transmissions"),
        "epoch.large.us_per_epoch": ratio(leg_ms("epoch.run", "large") * 1e3, count("epoch.epochs", "large")),
        "epoch.large.resolved": count("epoch.resolved", "large"),
        "epoch.density.us_per_epoch": ratio(leg_ms("epoch.run", "density") * 1e3, count("epoch.epochs", "density")),
        "epoch.density.epochs": count("epoch.epochs", "density"),
        "epoch.build_ms": ms("epoch.build"),
        "la.tables_built": tables_built,
        "la.table_build_ms": ms("la.table_build"),
        "la.lookups": lookups,
        "viterbi.codewords": hard + soft,
        "viterbi.hard.us_per_codeword": ratio(ms("viterbi.hard") * 1e3, hard),
        "viterbi.soft.us_per_codeword": ratio(ms("viterbi.soft") * 1e3, soft),
        "sweep.kernel_ms": ms("sweep.run_batch") - ms("viterbi.hard", "viterbi.soft"),
        "kernels.demap_ms": ms("kernels.demap_batch", "kernels.demap_soft_batch"),
        "trace.unattributed_ms": sum(n["self"] for n in nodes if n["name"] == bench_trace.ROOT) * 1e3,
        "speed.probe_ms": statistics.median(result.probes) * 1e3,
    }


def measure(workload, args) -> tuple[list, list, list]:
    """``(all rounds, untraced measured rounds, traced rounds)`` of one run.

    Measured rounds continue while the next would still end before
    ``--seconds`` have passed.  Traced runs alternate untraced and traced
    rounds, so a drift in machine speed over the run shifts both sides of
    ``trace.overhead_ratio`` alike.
    """
    deadline = time.perf_counter() + args.seconds
    remove_audit = workload.install_audit()
    untraced, traced = [], []
    tracer = bench_trace.Tracer() if args.trace else None
    try:
        # The first round pays lazy imports and first-call costs and runs
        # the costliest checks; it is checked but not measured.
        warmup = workload.run_round(None)
        while True:
            if len(untraced) >= (1 if tracer else MIN_ROUNDS):
                cycle = statistics.median(r.wall_s for r in untraced)
                cycle += statistics.median(r.wall_s for r in traced) if tracer else 0.0
                if time.perf_counter() + cycle > deadline:
                    return [warmup] + untraced + traced, untraced, traced
            untraced.append(workload.run_round(None))
            if tracer is not None:
                traced.append(traced_round(workload, tracer))
    finally:
        remove_audit()


def leg_seconds(rounds: list, leg: str) -> float:
    """Time of *leg* in one typical round, at reference speed: per
    operation kind, the median of its scaled durations over all *rounds*
    times its count in one round.

    A burst of machine contention slows the few operations it overlaps;
    unless it covers most operations of a kind, no median moves.
    """
    samples: dict = {}
    for result in rounds:
        for kind, seconds in result.ops[leg].items():
            samples.setdefault(kind, []).extend(seconds)
    return sum(len(seconds) / len(rounds) * statistics.median(seconds) for seconds in samples.values())


def end_to_end(workload, setup: list[float], untraced: list) -> tuple[dict, list[str]]:
    """End-to-end metrics of the untraced rounds, and their report lines.

    Every timing of a pass is at reference speed (see bench_speed.py);
    the report lines also give it as measured, with the run's median
    probe time.  ``setup_s`` is wall clock.
    """
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": statistics.median(ms for r in untraced for ms in r.op_ms),
    }
    raw = {
        "op_p50_ms": statistics.median(ms for r in untraced for ms in r.gaps_ms),
    }
    for slot, leg in zip(LEG_SLOTS, workload.LEGS, strict=True):
        values[slot] = untraced[0].work[leg] / leg_seconds(untraced, leg)
        raw[slot] = untraced[0].work[leg] / statistics.median(r.raw_s[leg] for r in untraced)
    count = sum(len(r.op_ms) for r in untraced)
    labels = {"setup_s": f"median of {len(setup)} fresh interpreters",
              "op_p50_ms": f"{workload.LABELS[3][0]} (n={count})"}
    for slot, (name, unit) in zip(LEG_SLOTS, workload.LABELS, strict=False):
        labels[slot] = f"{name} [{unit}]"
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    probe_ms = statistics.median(p for r in untraced for p in r.probes) * 1e3
    lines = [f"  speed probe: median {probe_ms:.3f} ms this run, reference {bench_speed.REFERENCE_S * 1e3:g} ms; "
             f"'measured' is wall clock, unscaled"]
    for name, m in metrics.items():
        measured = f"(measured {raw[name]:.6g}) " if name in raw else ""
        lines.append(f"  {name:14s} {m['value']:14.6g} {m['unit']:5s} {measured}{labels.get(name, '')}")
    return metrics, lines


def per_layer(args, untraced: list, traced: list, failures: list[str]) -> tuple[dict, list[str]]:
    """Per-layer medians of the traced rounds, the self-time table, the trace file."""
    per_round, trees, self_tables = [], [], []
    for index, result in enumerate(traced):
        nodes = bench_trace.build_tree(result.spans)
        summary = bench_trace.summarize(nodes)
        per_round.append(layer_metrics(result, nodes, summary["inclusive"]))
        trees.append(nodes)
        self_tables.append(bench_trace.layer_self_ms(summary))
        root_ms = summary["inclusive"][bench_trace.ROOT] * 1e3
        accounted = sum(self_tables[-1].values())
        if abs(accounted - root_ms) > 1e-6 * root_ms:
            failures.append(f"traced round {index}: self times sum to {accounted} ms, root span is {root_ms} ms")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced)
        else:
            value = statistics.median(values[name] for values in per_round)
        metrics[name] = {"value": value, "unit": unit}
    lines = [f"  {len(untraced)} untraced and {len(traced)} traced rounds; per-layer medians of the traced ones:"]
    lines += [f"  {name:30s} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
    table = self_tables[-1]
    lines.append(f"  self time by layer, last traced round (root span {traced[-1].wall_s * 1e3:.1f} ms wall):")
    lines += [f"    {layer:32s} {ms:12.3f} ms" for layer, ms in sorted(table.items(), key=lambda item: -item[1])]
    lines.append(f"    {'sum':32s} {sum(table.values()):12.3f} ms")
    bench_trace.write_trace(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", trees)
    return metrics, lines


def run_workload(args: argparse.Namespace) -> int:
    """Set up, measure and check one workload; print the report and the result line."""
    workdir = WORK / f"work-{os.getpid()}"
    failures: list[str] = []
    attempted = 0
    metrics: dict[str, dict[str, float | str]] = {}
    lines: list[str] = []
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        workload = bench_workloads.build(args.workload, args.seed, workdir)
        rounds, untraced, traced = measure(workload, args)
        for index, result in enumerate(rounds):
            attempted += result.attempted
            failures.extend(f"round {index}: {message}" for message in result.failures)
        lines.append(f"workload {args.workload}: seed {args.seed}, {len(workload.specs)} specs a round, "
                     f"1 warm-up + {len(rounds) - 1} measured rounds ({attempted} spec runs)")
        if args.trace:
            metrics, report = per_layer(args, untraced, traced, failures)
        else:
            metrics, report = end_to_end(workload, setup, untraced)
        lines += report
    except Exception:  # a spec that raised: report it as a failed run, never as a result
        traceback.print_exc()
        failures.append("the workload raised")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = max(attempted, 1)
    failed = min(len(failures), attempted)
    lines.append(f"  {'failed_ratio':14s} {failed / attempted:14.6g} ratio ({failed} of {attempted} failed)")
    print("\n".join(lines))
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failures else 0
