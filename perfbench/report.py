"""Metric names and their computation from timed phases and traced spans.

End-to-end metrics come from the untraced timed phase.  Per-layer metrics
come from a run that first measures untraced (per-stage medians) and then
traced (span self times, calls and work counts, per unit).  A layer a
workload never runs reports 0.
"""

from __future__ import annotations

import gc
import os
import platform
import tracemalloc
from collections import defaultdict

import numpy as np

from perfbench import tracer as tr

# (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

ENTRY_POINTS = (
    "nonlocal_block.nonlocal_forward",
    "layer.simple_repgraph_forward",
    "layer.bottleneck_repgraph_forward",
    "variants.grid_repgraph_forward",
    "variants.group_repgraph_forward",
)
STAGES = ENTRY_POINTS + (
    "train.toy_model_logits",
    "autograd.backward",
    "toytask.make_batch",
    "step.sgd_update",
)
SPANS = (
    "ops.project_node",
    "ops.add_channel_bias",
    "ops.bilinear_node",
    "ops.softmax_node",
    "ops.relu_node",
    "ops.batch_norm_node",
    "ops.avg_pool_node",
    "autograd.einsum2",
    tr.STRUCTURAL,
    "train.conv3x3_node",
    "train.softmax_xent_node",
)
MAC_SPANS = ("autograd.einsum2", "train.conv3x3_node", "ops.bilinear_node")

# (name, unit, better) of every per-layer metric.
PER_LAYER = (
    [(f"{s}.ms", "ms", "lower") for s in STAGES]
    + [(f"{e}.gmacs_per_s", "GMAC/s", "higher") for e in ENTRY_POINTS]
    + [m for s in SPANS for m in ((f"{s}.self_ms", "ms", "lower"),
                                  (f"{s}.calls", "count", "lower"))]
    + [(f"{s}.macs", "count", "lower") for s in MAC_SPANS]
    + [(f"autograd.backward.{op}.ms", "ms", "lower") for op in tr.BACKWARD_LABELS]
    + [
        ("ops.bilinear_node.inmap_share", "ratio", "higher"),
        ("autograd.tape.nodes", "count", "lower"),
        ("autograd.tape.mib", "MiB", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.self_share", "ratio", "higher"),
    ]
)


def tail(latencies_ms) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With n samples that is the (n - 10)-th smallest, percentile 100 (n - 10) / n.
    Below 11 samples no percentile qualifies; the maximum is returned as p100.
    """
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_mib(workload) -> tuple[float, bool]:
    """tracemalloc peak over one unit, and whether that unit passed its check."""
    gc.collect()
    tracemalloc.start()
    try:
        output = workload.run_unit({})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, workload.check(output)


def end_to_end(phase, setup_s: float, peak: float) -> dict:
    value, _ = tail(phase.latencies_ms)
    return {
        "latency_ms_p50": float(np.median(phase.latencies_ms)),
        "latency_ms_tail": value,
        "throughput_per_s": phase.attempted / phase.seconds,
        "peak_mib": peak,
        "setup_s": setup_s,
    }


def mac_check(tracer, entries: dict) -> dict:
    """Traced MACs per entry-point call against ``count_flops``.

    Every MAC-carrying span is charged to its outermost enclosing span; each
    top-level call of an entry point must carry exactly the closed-form total.
    """
    per_root: dict = defaultdict(int)
    for i, macs in enumerate(tracer.macs):
        if macs:
            per_root[tracer.root_of(i)] += macs
    out = {}
    for name, report in entries.items():
        roots = [i for i, n in enumerate(tracer.names)
                 if n == name and tracer.parents[i] is None]
        traced = sorted({per_root[r] for r in roots})
        out[name] = {"traced": traced, "count_flops": report.total_macs,
                     "ok": traced == [report.total_macs]}
    return out


def per_layer(workload, untraced, traced, tracer) -> dict:
    """Every PER_LAYER metric, as a median over units."""
    n = traced.attempted
    per_unit: dict = defaultdict(lambda: np.zeros(n))
    covered = np.zeros(n)
    for i, (name, u, self_s) in enumerate(zip(tracer.names, tracer.units, tracer.self_times())):
        per_unit[f"{name}.self_ms"][u] += self_s * 1e3
        per_unit[f"{name}.calls"][u] += 1
        per_unit[f"{name}.macs"][u] += tracer.macs[i]
        covered[u] += self_s
    for (u, key), value in tracer.counters.items():
        per_unit[key][u] += value

    def med(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    metrics = {}
    for stage in STAGES:
        metrics[f"{stage}.ms"] = med(untraced.stages.get(stage, []))
    for entry in ENTRY_POINTS:
        ms = metrics[f"{entry}.ms"]
        macs = workload.entries[entry].total_macs if entry in workload.entries else 0
        metrics[f"{entry}.gmacs_per_s"] = macs / ms / 1e6 if ms else 0.0
    for s in SPANS:
        metrics[f"{s}.self_ms"] = med(per_unit[f"{s}.self_ms"])
        metrics[f"{s}.calls"] = med(per_unit[f"{s}.calls"])
    for s in MAC_SPANS:
        metrics[f"{s}.macs"] = med(per_unit[f"{s}.macs"])
    for op in tr.BACKWARD_LABELS:
        metrics[f"autograd.backward.{op}.ms"] = med(per_unit[f"autograd.backward.{op}.self_ms"])
    reads = per_unit["bilinear.reads"].sum()
    metrics["ops.bilinear_node.inmap_share"] = (
        float(per_unit["bilinear.inmap_reads"].sum() / reads) if reads else 0.0)
    metrics["autograd.tape.nodes"] = med(per_unit["tape.nodes"])
    metrics["autograd.tape.mib"] = med(per_unit["tape.bytes"]) / 2**20
    metrics["trace.overhead_ms"] = (float(np.median(traced.latencies_ms))
                                    - float(np.median(untraced.latencies_ms)))
    metrics["trace.self_share"] = med(covered * 1e3 / np.asarray(traced.latencies_ms))
    return metrics


def machine_facts(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
    }
