"""Outside-in span tracer for the repgraph benchmark.

The tracer edits no source file.  While installed it replaces each traced
function at every name it is looked up by (the defining module and every
``from ... import`` copy in a ``repgraph`` module) with a wrapper that records
a span, and it replaces ``Tape.record`` so that every recorded
``backward_fn`` is timed under its op label.  Uninstalling restores every
patched name.

Spans are kept in memory as parallel lists (name, start, end, parent span,
unit id, MACs) and written out once, after the traced phase.  Self time is a
span's duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from repgraph import autograd, layer, nonlocal_block, ops, toytask, train, variants

STRUCTURAL = "autograd.structural"
_STRUCTURAL_OPS = ("add", "add_const", "reshape", "transpose", "narrow", "concat",
                   "gather_last")

# Backward labels of the recorded ops; the einsum label carries its spec.
BACKWARD_LABELS = ("bilinear", "einsum", "conv3x3", "softmax", "relu", "channel_bias",
                   "structural", "softmax_xent")


def _einsum2_macs(args):
    """Product of the sizes of every index in the spec."""
    spec, a, b = args[:3]
    a_spec, b_spec = spec.split("->")[0].split(",")
    sizes = dict(zip(a_spec, a.value.shape))
    sizes.update(zip(b_spec, b.value.shape))
    return math.prod(sizes.values())


def _conv3x3_macs(args):
    """c_out * c_in * 9 * n * h * w."""
    x, weight = args[:2]
    n, c_in, h, w = x.value.shape
    return int(weight.value.shape[0]) * c_in * 9 * n * h * w


def _bilinear_macs(args):
    """Four MACs per sampled channel."""
    x, py = args[:2]
    return 4 * py.value.size * x.value.shape[1]


def _count_bilinear_reads(tracer, args):
    """Count in-map neighbour reads against all neighbour reads of one call."""
    x, py, px = args[:3]
    h, w = x.value.shape[2:]
    y0 = np.floor(py.value)
    x0 = np.floor(px.value)
    rows = sum(((y0 + d >= 0) & (y0 + d < h)) for d in (0, 1))
    cols = sum(((x0 + d >= 0) & (x0 + d < w)) for d in (0, 1))
    tracer.count("bilinear.inmap_reads", int((rows * cols).sum()))
    tracer.count("bilinear.reads", 4 * py.value.size)


# (module, function, span name, MAC counter, counter run before the call) for
# every traced function.  A span name of None means "<module>.<function>".
TARGETS = [
    (ops, "project_node", None, None, None),
    (ops, "add_channel_bias", None, None, None),
    (ops, "bilinear_node", None, _bilinear_macs, _count_bilinear_reads),
    (ops, "softmax_node", None, None, None),
    (ops, "relu_node", None, None, None),
    (ops, "batch_norm_node", None, None, None),
    (ops, "avg_pool_node", None, None, None),
    (autograd, "einsum2", None, _einsum2_macs, None),
    *[(autograd, name, STRUCTURAL, None, None) for name in _STRUCTURAL_OPS],
    (train, "conv3x3_node", None, _conv3x3_macs, None),
    (train, "softmax_xent_node", None, None, None),
    (train, "toy_model_logits", None, None, None),
    (autograd, "backward", None, None, None),
    (toytask, "make_batch", None, None, None),
    (nonlocal_block, "nonlocal_forward", None, None, None),
    (layer, "simple_repgraph_forward", None, None, None),
    (layer, "bottleneck_repgraph_forward", None, None, None),
    (variants, "grid_repgraph_forward", None, None, None),
    (variants, "group_repgraph_forward", None, None, None),
]


def backward_label(op: str) -> str:
    if op.startswith("einsum["):
        return "einsum"
    if op in _STRUCTURAL_OPS:
        return "structural"
    return op


def self_times(starts, ends, parents) -> list:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list] = {}
    for i, p in enumerate(parents):
        if p is not None:
            children.setdefault(p, []).append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for j in sorted(children.get(i, ()), key=lambda k: starts[k]):
            lo = max(starts[j], reach)
            hi = min(ends[j], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder; install it with :meth:`installed` around a traced phase."""

    def __init__(self, extra_targets=()) -> None:
        self.targets = list(TARGETS) + list(extra_targets)
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.units: list = []
        self.macs: list = []
        self.counters: dict = {}
        self.unit = 0
        self._stack: list = []
        self._patched: list = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.units.append(self.unit)
        self.macs.append(0)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def count(self, key: str, value) -> None:
        k = (self.unit, key)
        self.counters[k] = self.counters.get(k, 0) + value

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, name: str, macs_of, pre):
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                with tracer.span("trace.count"):
                    pre(tracer, args)
            idx = tracer._open(name)
            try:
                if macs_of is not None:
                    tracer.macs[idx] = macs_of(args)
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_record(self, record):
        tracer = self

        def timed_backward(fn, name):
            def bwd(g):
                with tracer.span(name):
                    return fn(g)
            return bwd

        def traced_record(tape, value, parents=(), backward_fn=None, op="op"):
            if backward_fn is not None:
                backward_fn = timed_backward(
                    backward_fn, f"autograd.backward.{backward_label(op)}")
            node = record(tape, value, parents, backward_fn, op)
            tracer.count("tape.nodes", 1)
            if node.value.flags.owndata:
                tracer.count("tape.bytes", node.value.nbytes)
            return node

        return traced_record

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        homes = [m for k, m in sorted(sys.modules.items())
                 if m is not None and (k == "repgraph" or k.startswith("repgraph."))]
        for module, attr, span_name, macs_of, pre in self.targets:
            fn = getattr(module, attr)
            name = span_name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(fn, name, macs_of, pre)
            for home in dict.fromkeys(homes + [module]):
                for key, value in list(vars(home).items()):
                    if value is fn:
                        self._set(home, key, wrapper)
        self._set(autograd.Tape, "record", self._wrap_record(autograd.Tape.record))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self) -> list:
        return self_times(self.starts, self.ends, self.parents)

    def root_of(self, idx: int) -> int:
        while self.parents[idx] is not None:
            idx = self.parents[idx]
        return idx

    def write_csv(self, path) -> None:
        selfs = self.self_times()
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("span,unit,name,parent,start_us,end_us,self_us,macs\n")
            for i, name in enumerate(self.names):
                parent = "" if self.parents[i] is None else self.parents[i]
                fh.write(f"{i},{self.units[i]},{name},{parent},"
                         f"{(self.starts[i] - t0) * 1e6:.1f},{(self.ends[i] - t0) * 1e6:.1f},"
                         f"{selfs[i] * 1e6:.1f},{self.macs[i]}\n")
