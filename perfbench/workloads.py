"""The benchmark's three closed-loop workloads and their correctness gates.

Each workload builds its inputs and parameters from a seed with the
library's public constructors, runs one *unit* per call to ``run_unit`` and
checks every unit's output.  Stage times are taken here, around the calls
into the library, so the untraced run yields per-entry-point times as well.

* ``dense_fwd``:  one dense non-local forward, checked against an f64
  reference built from ``project_1x1`` and ``affinity_matrix``.
* ``sparse_fwd``: one forward each of the simple, bottleneck, grid and group
  layers, checked bit for bit against the first call, which itself must match
  an f64 run of the same block.
* ``train_step``: one SGD step of the toy model; every loss must be finite
  and the loss must fall over the run.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import time

import numpy as np

from repgraph import (
    autograd,
    flops,
    layer,
    nonlocal_block,
    ops,
    oracle,
    toytask,
    train,
    variants,
)
from repgraph.tensor import Rng, Tensor4

# Allowed f32 deviation from an f64 run, relative to max(1, max |reference|).
F32_TOL = 1e3 * float(np.finfo(np.float32).eps)
# Dense-equivalence oracle threshold, run once in the sparse workload's setup.
ORACLE_TOL = 1e-6


class GateError(Exception):
    """A correctness check made during set-up failed."""


def upcast(obj):
    """Copy of a parameter record with every array cast to f64."""
    if isinstance(obj, np.ndarray):
        return obj.astype(np.float64)
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{
            f.name: upcast(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.init
        })
    return obj


def stage(times: dict, name: str, fn, *args, **kwargs):
    """Call ``fn`` and append its wall time in ms to ``times[name]``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times.setdefault(name, []).append((time.perf_counter() - t0) * 1e3)
    return out


def close_to(out: np.ndarray, ref: np.ndarray) -> bool:
    """f32 output against its f64 reference, within F32_TOL."""
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    scale = max(1.0, float(np.abs(ref).max()))
    return float(np.abs(out - ref).max()) <= F32_TOL * scale


class Workload:
    """Base: subclasses set ``name`` and ``entries`` and implement the unit."""

    name = ""
    # Entry-point span name -> FlopsReport of one call, for the MAC check.
    entries: dict = {}

    def warmup(self) -> None:
        pass

    def run_unit(self, times: dict):
        raise NotImplementedError

    def check(self, output) -> bool:
        raise NotImplementedError

    def check_run(self) -> bool:
        """Gate over the whole run, after every unit has been checked."""
        return True


def dense_reference(x: Tensor4, params) -> np.ndarray:
    """f64 non-local output through an independent ``@`` path."""
    p = upcast(params)
    x64 = Tensor4(x.data.astype(np.float64))
    n, c, h, w = x.shape
    cp = p.theta.c_out

    def flat(proj):
        return ops.project_1x1(x64, proj).data[0].reshape(cp, h * w).T

    a = nonlocal_block.affinity_matrix(flat(p.theta), flat(p.phi))
    y = (a @ flat(p.g)).T.reshape(1, cp, h, w)
    return ops.project_1x1(Tensor4(y), p.w_out).data + x64.data


class DenseForward(Workload):
    name = "dense_fwd"

    def __init__(self, seed: int, h: int = 64, w: int = 32, c: int = 256, cp: int = 64):
        rng = Rng(seed)
        self.x = rng.tensor((1, c, h, w), dtype=np.float32)
        self.params = nonlocal_block.init_nonlocal_params(c, cp, rng=rng, dtype=np.float32)
        self.reference = dense_reference(self.x, self.params)
        self.entries = {
            "nonlocal_block.nonlocal_forward": flops.count_flops("nl", h, w, c, cp),
        }

    def warmup(self) -> None:
        if not self.check(self.run_unit({})):
            raise GateError("dense forward disagrees with its f64 reference")

    def run_unit(self, times: dict):
        return stage(times, "nonlocal_block.nonlocal_forward",
                     nonlocal_block.nonlocal_forward, self.x, self.params).data

    def check(self, output) -> bool:
        return close_to(output, self.reference)


class SparseForward(Workload):
    name = "sparse_fwd"

    def __init__(self, seed: int, h: int = 128, w: int = 64, c: int = 256, cp: int = 64,
                 s: int = 9, gs: int = 2, groups: int = 2, oracle_nodes: int = 36):
        diff = oracle.dense_equivalence_diff(oracle_nodes, seed)
        if not diff < ORACLE_TOL:
            raise GateError(f"dense-equivalence oracle differs by {diff:.3e}")
        rng = Rng(seed)
        self.x = rng.tensor((1, c, h, w), dtype=np.float32)
        simple = layer.LayerConfig(c=c, cp=cp, s=s, variant="simple")
        bottle = layer.LayerConfig(c=c, cp=cp, s=s, variant="bottleneck")
        grid = variants.GridConfig(gs)
        grp = variants.GroupConfig(groups)
        # (entry name, flops block, forward, params); the forwards look the
        # entry point up at call time, so a traced run sees the wrapper.
        self.blocks = [
            ("layer.simple_repgraph_forward", "srg",
             lambda x, p: layer.simple_repgraph_forward(x, p, simple), simple),
            ("layer.bottleneck_repgraph_forward", "brg",
             lambda x, p: layer.bottleneck_repgraph_forward(x, p, bottle), bottle),
            ("variants.grid_repgraph_forward", "grid",
             lambda x, p: variants.grid_repgraph_forward(x, p, bottle, grid), bottle),
            ("variants.group_repgraph_forward", "group",
             lambda x, p: variants.group_repgraph_forward(x, p, bottle, grp), bottle),
        ]
        self.params = [layer.init_layer_params(cfg, rng=rng, dtype=np.float32)
                       for _, _, _, cfg in self.blocks]
        self.entries = {
            name: flops.count_flops(block, h, w, c, cp, s=s, gs=gs, groups=groups)
            for name, block, _, _ in self.blocks
        }
        self.dtypes = {}
        self.expected = []
        x64 = Tensor4(self.x.data.astype(np.float64))
        # The first f32 call of each block doubles as its warm-up.
        for (name, _, forward, _), params in zip(self.blocks, self.params):
            out = forward(self.x, params).data
            if not close_to(out, forward(x64, upcast(params)).data):
                raise GateError(f"{name}: f32 output disagrees with the f64 run")
            self.dtypes[name] = str(out.dtype)
            self.expected.append(out)

    def run_unit(self, times: dict):
        return [stage(times, name, forward, self.x, params).data
                for (name, _, forward, _), params in zip(self.blocks, self.params)]

    def check(self, output) -> bool:
        return len(output) == len(self.expected) and all(
            np.array_equal(out, ref) for out, ref in zip(output, self.expected))


def sgd_update(step: "TrainStep", tape) -> None:
    """Momentum SGD with the poly learning rate, as ``toy_train`` applies it."""
    cfg = step.cfg
    lr = train.poly_lr(cfg.lr, step.step, cfg.iters, cfg.poly_power)
    for name, arr in step.params.items():
        v = cfg.momentum * step.velocity[name] + tape.params[name].grad
        step.velocity[name] = v
        arr -= lr * v
    step.step += 1


class TrainStep(Workload):
    """``toy_train`` one step per unit, restarted every ``cfg.iters`` steps.

    A restart puts the model, the optimiser and the data stream back to their
    initial state, as a new ``toy_train`` run would.

    Every ``TrainConfig`` default is kept except the learning rate.  At the
    default 0.3 (momentum 0.9) some seeds diverge within 20-40 steps, and the
    steps after that time arithmetic on huge and non-finite values; at
    ``LR`` = 0.1 the loss falls smoothly on every seed tried.
    """

    name = "train_step"
    warmup_steps = 2
    LR = 0.1

    def __init__(self, seed: int, **overrides):
        self.cfg = train.TrainConfig(seed=seed, **{"lr": self.LR, **overrides})
        self.model = train.init_toy_model(self.cfg)
        self.params = self.model.parameter_arrays()
        self.state = {**self.params, **self.model.buffer_arrays()}
        self.initial = {k: v.copy() for k, v in self.state.items()}
        self.losses: list = []
        self.reset()

    def reset(self) -> None:
        """Back to the initial model, optimiser state and data stream."""
        for name, arr in self.state.items():
            arr[...] = self.initial[name]
        self.velocity = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.data_rng = Rng(self.cfg.seed + 1)
        self.step = 0

    def warmup(self) -> None:
        for _ in range(self.warmup_steps):
            if not self.check(self.run_unit({})):
                raise GateError("non-finite loss during warm-up")
        self.losses.clear()
        self.reset()

    def run_unit(self, times: dict):
        if self.step == self.cfg.iters:
            self.reset()
        cfg = self.cfg
        images, labels = stage(times, "toytask.make_batch",
                               toytask.make_batch, self.data_rng, cfg.batch, cfg.task)
        tape = autograd.Tape()
        logits = stage(times, "train.toy_model_logits",
                       train.toy_model_logits, tape, self.model, images, training=True)
        loss = stage(times, "train.softmax_xent_node", train.softmax_xent_node, logits, labels)
        stage(times, "autograd.backward", autograd.backward, loss)
        stage(times, "step.sgd_update", sgd_update, self, tape)
        value = float(loss.value)
        self.losses.append(value)
        return value

    def check(self, output) -> bool:
        return bool(np.isfinite(output))

    def check_run(self) -> bool:
        """Before the first restart, the last tenth of steps has a lower mean loss than the first."""
        losses = self.losses[: self.cfg.iters]
        k = max(1, len(losses) // 10)
        return len(losses) >= 2 and float(np.mean(losses[-k:])) < float(np.mean(losses[:k]))


@dataclasses.dataclass
class Phase:
    """Unit latencies, failures and stage times of one measured loop."""

    latencies_ms: list = dataclasses.field(default_factory=list)
    failed: int = 0
    seconds: float = 0.0
    stages: dict = dataclasses.field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    def run_unit(self, workload: Workload, tracer=None) -> None:
        """Time one unit alone, then check its output outside that time."""
        if tracer is not None:
            tracer.unit = self.attempted
        t0 = time.perf_counter()
        output = workload.run_unit(self.stages)
        self.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        self.failed += not workload.check(output)


def run_phase(workload: Workload, seconds: float, min_units: int) -> Phase:
    """Closed loop with one caller: the next unit starts when the last one ends.

    Runs until ``seconds`` have passed and at least ``min_units`` units ran.
    The loop starts from a collected heap, so every phase begins in the same
    garbage-collector state.
    """
    gc.collect()
    phase = Phase()
    start = time.perf_counter()
    while phase.seconds < seconds or phase.attempted < min_units:
        phase.run_unit(workload)
        phase.seconds = time.perf_counter() - start
    return phase


def run_interleaved(workload: Workload, seconds: float, min_units: int,
                    tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced units, so both see the same machine state.

    The tracer is installed around each traced unit only.
    """
    gc.collect()
    plain, traced = Phase(), Phase()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or plain.attempted < min_units:
        plain.run_unit(workload)
        with tracer.installed():
            traced.run_unit(workload, tracer)
    plain.seconds = traced.seconds = time.perf_counter() - start
    return plain, traced


# The benchmark's own step, traced beside the library's functions.
SPAN_TARGETS = [(sys.modules[__name__], "sgd_update", "step.sgd_update", None, None)]

WORKLOADS = {cls.name: cls for cls in (DenseForward, SparseForward, TrainStep)}
