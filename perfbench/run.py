"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense_fwd --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  One caller drives a closed loop: the next unit starts only after
the previous one has finished and been checked.  BLAS is pinned to
``BLAS_THREADS`` threads before numpy is imported.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` alternates untraced units with units run under the outside-in
tracer for ``--seconds`` and prints the per-layer metrics.  Each run
prints one line per metric, a ``{"meta": ...}`` line with the run's facts,
and, last, the result object.  The same lines, and the spans of a traced run,
are written under ``perfbench/runs/``.  The exit code is 0 only when every
unit and every gate passed; it is 2 when the library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

T0 = time.perf_counter()

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated up to SETUP_REPEATS times, stopping once SETUP_BUDGET_S
# seconds have gone to it, and its median is reported, to steady setup_s.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.5
# A tail percentile needs at least 10 units beyond it.
MIN_UNITS = 11

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dense_fwd", "sparse_fwd", "train_step"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(make, seed: int, repeats: int):
    """Build and warm up ``make(seed)`` once, then again up to ``repeats`` times
    in all while less than SETUP_BUDGET_S seconds have gone to it.

    Returns the last workload built and the time of every set-up.
    """
    times = []
    while not times or (len(times) < repeats and sum(times) < SETUP_BUDGET_S):
        t = time.perf_counter()
        workload = make(seed)
        workload.warmup()
        times.append(time.perf_counter() - t)
    return workload, times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repgraph", "__init__.py")):
        print(f"perfbench: no library source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import report, tracer, workloads

    import_s = time.perf_counter() - T0
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **report.machine_facts(BLAS_THREADS)}

    make = workloads.WORKLOADS[args.workload]
    try:
        workload, setups = set_up(make, args.seed, 1 if args.trace else SETUP_REPEATS)
    except workloads.GateError as exc:
        print(f"perfbench: set-up gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if hasattr(workload, "dtypes"):
        meta["output_dtypes"] = workload.dtypes

    os.makedirs(os.path.join(ROOT, "perfbench", "runs"), exist_ok=True)
    stem = os.path.join(ROOT, "perfbench", "runs",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    gates_ok = True
    if args.trace:
        spans = tracer.Tracer(workloads.SPAN_TARGETS)
        untraced, traced = workloads.run_interleaved(workload, args.seconds, MIN_UNITS, spans)
        spans.write_csv(stem + "-spans.csv")
        phases = [untraced, traced]
        values = report.per_layer(workload, untraced, traced, spans)
        units = report.PER_LAYER
        meta["mac_check"] = report.mac_check(spans, workload.entries)
        gates_ok = all(v["ok"] for v in meta["mac_check"].values())
        meta["units"] = {"untraced": untraced.attempted, "traced": traced.attempted}
        peak_failed = 0
    else:
        timed = workloads.run_phase(workload, args.seconds, MIN_UNITS)
        peak, peak_ok = report.peak_mib(workload)
        setup_s = import_s + statistics.median(setups)
        phases = [timed]
        values = report.end_to_end(timed, setup_s, peak)
        units = report.END_TO_END
        _, pct = report.tail(timed.latencies_ms)
        meta["latency_ms_tail"] = {"percentile": pct, "samples": timed.attempted}
        meta["units"] = {"timed": timed.attempted, "peak_pass": 1}
        peak_failed = int(not peak_ok)

    meta.update(import_s=import_s, setup_runs_s=setups)
    run_ok = workload.check_run()
    attempted = sum(p.attempted for p in phases) + (0 if args.trace else 1)
    failed = sum(p.failed for p in phases) + peak_failed
    meta.update(failed_ratio=failed / attempted, run_gate_ok=bool(run_ok),
                work_gates_ok=gates_ok)
    correct = failed == 0 and run_ok and gates_ok
    for broken, what in ((failed, f"{failed} of {attempted} units failed their output check"),
                         (not run_ok, f"whole-run check failed: {workload.check_run.__doc__}"),
                         (not gates_ok, "traced MACs differ from count_flops")):
        if broken:
            print(f"perfbench: {args.workload}: {what}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in units}

    lines = [f"{args.workload} {name} = {m['value']:.6g} {m['unit']}"
             for name, m in metrics.items()]
    lines.append(f"{args.workload} failed_ratio = {meta['failed_ratio']:.6g} ratio")
    lines.append(json.dumps({"meta": meta}))
    lines.append(json.dumps({"correct": bool(correct), "attempted": attempted,
                             "failed": failed, "metrics": metrics}))
    with open(stem + ".txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.exit(main())
