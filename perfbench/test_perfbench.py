"""Tests of the benchmark's own code, on small geometries."""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from repgraph import autograd, toytask, train  # noqa: E402
from repgraph.tensor import Tensor4  # noqa: E402

from perfbench import report, tracer, workloads  # noqa: E402

SMALL = {
    "dense_fwd": dict(h=8, w=6, c=16, cp=8),
    "sparse_fwd": dict(h=8, w=6, c=16, cp=8, s=4, oracle_nodes=16),
    "train_step": dict(width=4, cp=4, batch=2, iters=20,
                       task=toytask.ToyTaskConfig(size=16, min_side=4, max_side=8)),
}


def small(name: str, seed: int = 3):
    return workloads.WORKLOADS[name](seed, **SMALL[name])


def arrays(obj) -> list:
    """Every array reachable from a workload's inputs and parameters."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, Tensor4):
        return [obj.data]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in arrays(item)]
    if isinstance(obj, dict):
        return [a for key in sorted(obj) for a in arrays(obj[key])]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in arrays(getattr(obj, f.name))]
    return []


def inputs(w) -> list:
    if isinstance(w, workloads.TrainStep):
        batch = toytask.make_batch(w.data_rng, w.cfg.batch, w.cfg.task)
        return arrays(w.params) + arrays(batch)
    return arrays(w.x) + arrays(w.params)


def repgraph_names() -> dict:
    names = {(k, attr): value for k, m in sys.modules.items()
             if k == "repgraph" or k.startswith("repgraph.")
             for attr, value in vars(m).items()}
    names[("Tape", "record")] = autograd.Tape.record
    return names


def traced_unit(w) -> tracer.Tracer:
    spans = tracer.Tracer(workloads.SPAN_TARGETS)
    with spans.installed():
        w.run_unit({})
    return spans


def test_tracer_restores_every_patched_name():
    before = repgraph_names()
    spans = tracer.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with spans.installed():
            import repgraph
            from repgraph import ops, train

            assert ops.project_node is not before[("repgraph.ops", "project_node")]
            # from-import copies and package re-exports are patched too
            assert train.backward is autograd.backward
            assert train.backward is not before[("repgraph.train", "backward")]
            assert repgraph.nonlocal_forward is not before[("repgraph", "nonlocal_forward")]
            assert autograd.Tape.record is not before[("Tape", "record")]
            raise RuntimeError("boom")
    after = repgraph_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [3, 6], which overlap; a holds c [1, 2].
    starts = [0.0, 1.0, 3.0, 1.0]
    ends = [10.0, 4.0, 6.0, 2.0]
    parents = [None, 0, 0, 1]
    assert tracer.self_times(starts, ends, parents) == [5.0, 2.0, 3.0, 1.0]


def test_traced_macs_match_count_flops_for_every_inference_block():
    for name in ("dense_fwd", "sparse_fwd"):
        w = small(name)
        checked = report.mac_check(traced_unit(w), w.entries)
        assert set(checked) == set(w.entries)
        for entry, result in checked.items():
            assert result["ok"], (entry, result)
    assert len(small("sparse_fwd").entries) == 4


def test_same_seed_gives_bit_identical_inputs():
    for name in SMALL:
        a, b, other = small(name, 5), small(name, 5), small(name, 6)
        xs, ys, zs = inputs(a), inputs(b), inputs(other)
        assert len(xs) == len(ys) > 0
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(xs, ys))
        assert not all(np.array_equal(x, z) for x, z in zip(xs, zs))


def test_gate_counts_a_corrupted_output_as_failed():
    w = small("dense_fwd")
    w.warmup()
    good = workloads.run_phase(w, 0.0, 3)
    assert (good.attempted, good.failed) == (3, 0)
    clean = w.run_unit
    w.run_unit = lambda times: clean(times) + np.float32(1e-2)
    bad = workloads.run_phase(w, 0.0, 3)
    assert (bad.attempted, bad.failed) == (3, 3)

    s = small("sparse_fwd")
    out = s.run_unit({})
    assert s.check(out)
    out[2] = out[2].copy()
    out[2].flat[0] = np.nextafter(out[2].flat[0], np.inf)
    assert not s.check(out)

    t = small("train_step")
    assert t.check(t.run_unit({})) and not t.check(float("nan"))
    t.losses = [1.0, 1.1, 1.2]
    assert not t.check_run()


def test_training_keeps_every_default_but_the_learning_rate():
    cfg = workloads.TrainStep(5).cfg
    assert cfg.lr == workloads.TrainStep.LR
    assert dataclasses.replace(cfg, lr=train.TrainConfig().lr) == train.TrainConfig(seed=5)


def test_training_loss_falls_and_restarts_repeat_the_run():
    t = small("train_step")
    t.warmup()
    phase = workloads.run_phase(t, 0.0, 2 * t.cfg.iters)
    assert phase.failed == 0 and t.check_run()
    # a restart after cfg.iters steps repeats the first run exactly
    assert t.losses[:t.cfg.iters] == t.losses[t.cfg.iters:]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = list(range(30, 0, -1))
    assert report.tail(samples) == (20, 100.0 * 20 / 30)
    assert report.tail([3.0, 1.0]) == (3.0, 100.0)


def test_per_layer_metrics_are_complete_and_self_time_covers_the_unit():
    for name in SMALL:
        w = small(name)
        w.warmup()
        spans = tracer.Tracer(workloads.SPAN_TARGETS)
        untraced, traced = workloads.run_interleaved(w, 0.0, 2, spans)
        assert untraced.attempted == traced.attempted == 2
        metrics = report.per_layer(w, untraced, traced, spans)
        assert set(metrics) == {m for m, _, _ in report.PER_LAYER}
        assert all(np.isfinite(v) for v in metrics.values())
        assert 0.5 < metrics["trace.self_share"] <= 1.0
        assert metrics["autograd.tape.nodes"] > 0


def test_benchmark_json_names_the_reported_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == report.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == report.PER_LAYER
