"""Central-difference verification of every differentiable op and every layer configuration.

Each case rebuilds its graph from plain arrays so the checker can probe one
coordinate at a time; the scalar loss is a fixed random projection of the op
output.  Sampling positions are kept at least 0.1 away from integer
coordinates, where the bilinear kernel's derivative is discontinuous.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import ops
from .autograd import GradCheckReport, Tape, finite_diff_check, weighted_sum
from .errors import ContractError
from .layer import LayerConfig, init_layer_params, layer_forward_node, param_arrays
from .nonlocal_block import init_nonlocal_params, nonlocal_forward_node
from .ops import BatchNormParams
from .tensor import Rng
from .train import conv3x3_node, softmax_xent_node


@dataclass
class CaseResult:
    case: str
    seed: int
    reports: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _reports(make_loss, arrays: dict, eps: float, tol: float) -> list:
    out = []
    for target in arrays:
        def f(arr, target=target):
            vals = dict(arrays)
            vals[target] = arr
            return make_loss(vals, target)
        out.append(finite_diff_check(f, arrays[target], eps, tol, target=target))
    return out


def _record_loss_builder(forward, params, probe):
    """make_loss for a block whose parameter record is ``params``.

    Each call runs ``forward(tape, x, record)`` on a copy of ``params`` that
    holds the probed arrays, so any record :func:`param_arrays` names works.
    """
    def make_loss(vals, target):
        record = copy.deepcopy(params)
        for name, arr in param_arrays(record).items():
            arr[...] = vals[name]
        tape = Tape()
        x = tape.leaf(vals["x"])
        y = forward(tape, x, record)
        node = x if target == "x" else tape.params[target]
        return weighted_sum(y, probe), node
    return make_loss


def _assert_off_integer(positions: np.ndarray, margin: float = 0.1) -> None:
    frac = np.abs(positions - np.round(positions))
    if positions.size and frac.min() < margin:
        raise ContractError(
            f"sampling position within {frac.min():.3f} of an integer; "
            "gradcheck requires a margin of at least "
            f"{margin} (rebuild the case with a different seed)"
        )


def _fractional_bias(rng: Rng, count: int) -> np.ndarray:
    """Biases whose fractional part stays in [0.25, 0.75]."""
    return rng.uniform(0.25, 0.75, count) * np.where(rng.uniform(0, 1, count) < 0.5, -1, 1)


# ---------------------------------------------------------------------------
# Case definitions
# ---------------------------------------------------------------------------


def _case_add_mul(seed, eps, tol):
    rng = Rng(seed)
    arrays = {"a": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, (3, 4))}
    probe = rng.uniform(-1, 1, (3, 4))

    def make_loss(vals, target):
        tape = Tape()
        a = tape.leaf(vals["a"])
        b = tape.leaf(vals["b"])
        out = ag.add(ag.mul(a, b), ag.scale(a, 0.5))
        return weighted_sum(out, probe), {"a": a, "b": b}[target]

    return _reports(make_loss, arrays, eps, tol)


def _case_einsum(seed, eps, tol):
    rng = Rng(seed)
    arrays = {"a": rng.uniform(-1, 1, (2, 6, 3)), "b": rng.uniform(-1, 1, (2, 6, 4, 3))}
    probe = rng.uniform(-1, 1, (2, 6, 4))

    def make_loss(vals, target):
        tape = Tape()
        a = tape.leaf(vals["a"])
        b = tape.leaf(vals["b"])
        out = ag.einsum2("bpc,bpsc->bps", a, b)
        return weighted_sum(out, probe), {"a": a, "b": b}[target]

    return _reports(make_loss, arrays, eps, tol)


def _case_structural(seed, eps, tol):
    rng = Rng(seed)
    arrays = {"a": rng.uniform(-1, 1, (2, 4, 6)), "b": rng.uniform(-1, 1, (2, 4, 6))}
    idx = np.asarray(rng.integers(0, 6, 9))
    probe = rng.uniform(-1, 1, (2, 2, 6, 9))

    def make_loss(vals, target):
        tape = Tape()
        a = tape.leaf(vals["a"])
        b = tape.leaf(vals["b"])
        ar = ag.reshape(a, (2, 2, 2, 6))
        at = ag.transpose(ar, (0, 2, 1, 3))
        an = ag.narrow(ag.concat([at, at], axis=2), 2, 0, 4)
        br = ag.transpose(ag.reshape(b, (2, 2, 2, 6)), (0, 2, 1, 3))
        cat = ag.concat([an, br], axis=2)
        out = ag.gather_last(cat, idx)
        return weighted_sum(out, probe), {"a": a, "b": b}[target]

    return _reports(make_loss, arrays, eps, tol)


def _case_project(seed, eps, tol):
    rng = Rng(seed)
    arrays = {
        "x": rng.uniform(-1, 1, (2, 3, 4, 5)),
        "w": rng.uniform(-1, 1, (4, 3)),
        "b": rng.uniform(-1, 1, 4),
    }
    probe = rng.uniform(-1, 1, (2, 4, 4, 5))

    def make_loss(vals, target):
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in vals.items()}
        out = ops.project_node(nodes["x"], nodes["w"], nodes["b"])
        return weighted_sum(out, probe), nodes[target]

    return _reports(make_loss, arrays, eps, tol)


def _case_softmax(seed, eps, tol):
    rng = Rng(seed)
    arrays = {"x": rng.uniform(-2, 2, (5, 7))}
    probe = rng.uniform(-1, 1, (5, 7))

    def make_loss(vals, target):
        tape = Tape()
        x = tape.leaf(vals["x"])
        return weighted_sum(ops.softmax_node(x), probe), x

    return _reports(make_loss, arrays, eps, tol)


def _case_relu(seed, eps, tol):
    rng = Rng(seed)
    # Magnitudes >= 0.2 keep every coordinate away from the kink at zero.
    mags = rng.uniform(0.2, 1.5, (3, 4, 2, 2))
    signs = np.where(rng.uniform(0, 1, mags.shape) < 0.5, -1.0, 1.0)
    arrays = {"x": mags * signs}
    probe = rng.uniform(-1, 1, mags.shape)

    def make_loss(vals, target):
        tape = Tape()
        x = tape.leaf(vals["x"])
        return weighted_sum(ops.relu_node(x), probe), x

    return _reports(make_loss, arrays, eps, tol)


def _case_bilinear(seed, eps, tol):
    rng = Rng(seed)
    n, c, h, w = 2, 3, 5, 6
    count = 24
    base_y = rng.integers(-1, h + 1, count).astype(np.float64)
    base_x = rng.integers(-1, w + 1, count).astype(np.float64)
    frac = rng.uniform(0.15, 0.85, (2, count))
    arrays = {
        "map": rng.uniform(-1, 1, (n, c, h, w)),
        "py": base_y + frac[0],
        "px": base_x + frac[1],
    }
    b_idx = rng.integers(0, n, count)
    probe = rng.uniform(-1, 1, (count, c))

    def make_loss(vals, target):
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in vals.items()}
        out = ops.bilinear_node(nodes["map"], nodes["py"], nodes["px"], b_idx)
        return weighted_sum(out, probe), nodes[target]

    return _reports(make_loss, arrays, eps, tol)


def _case_avg_pool(seed, eps, tol):
    rng = Rng(seed)
    arrays = {"x": rng.uniform(-1, 1, (2, 3, 5, 7))}
    probe = rng.uniform(-1, 1, (2, 3, 3, 4))

    def make_loss(vals, target):
        tape = Tape()
        x = tape.leaf(vals["x"])
        return weighted_sum(ops.avg_pool_node(x, 2), probe), x

    return _reports(make_loss, arrays, eps, tol)


def _bn_case(training):
    def build(seed, eps, tol):
        rng = Rng(seed)
        arrays = {
            "x": rng.uniform(-1, 1, (2, 3, 4, 4)),
            "gamma": rng.uniform(0.5, 1.5, 3),
            "beta": rng.uniform(-0.5, 0.5, 3),
        }
        record = BatchNormParams.create(3)
        record.running_mean = rng.uniform(-0.3, 0.3, 3)
        record.running_var = rng.uniform(0.5, 1.5, 3)
        probe = rng.uniform(-1, 1, (2, 3, 4, 4))

        def make_loss(vals, target):
            tape = Tape()
            nodes = {k: tape.leaf(v) for k, v in vals.items()}
            out = ops.batch_norm_node(nodes["x"], nodes["gamma"], nodes["beta"],
                                      record, training=training)
            return weighted_sum(out, probe), nodes[target]

        return _reports(make_loss, arrays, eps, tol)

    return build


def _case_conv3x3(seed, eps, tol):
    rng = Rng(seed)
    arrays = {
        "x": rng.uniform(-1, 1, (2, 2, 5, 5)),
        "w": rng.uniform(-0.5, 0.5, (3, 2, 3, 3)),
        "b": rng.uniform(-0.5, 0.5, 3),
    }
    probe = rng.uniform(-1, 1, (2, 3, 5, 5))

    def make_loss(vals, target):
        tape = Tape()
        nodes = {k: tape.leaf(v) for k, v in vals.items()}
        out = conv3x3_node(nodes["x"], nodes["w"], nodes["b"])
        return weighted_sum(out, probe), nodes[target]

    return _reports(make_loss, arrays, eps, tol)


def _case_softmax_xent(seed, eps, tol):
    rng = Rng(seed)
    arrays = {"logits": rng.uniform(-2, 2, (2, 4, 3, 3))}
    labels = rng.integers(0, 4, (2, 3, 3))

    def make_loss(vals, target):
        tape = Tape()
        logits = tape.leaf(vals["logits"])
        return softmax_xent_node(logits, labels), logits

    return _reports(make_loss, arrays, eps, tol)


def _record_arrays(rng: Rng, params, c: int) -> dict:
    """Random input and parameter values; sampling offsets stay away from integers."""
    arrays = {"x": rng.uniform(-1, 1, (1, c, 4, 4))}
    for name, arr in param_arrays(params).items():
        if name == "w_off.w":
            arrays[name] = rng.uniform(-0.005, 0.005, arr.shape)
        elif name == "w_off.b":
            arrays[name] = _fractional_bias(rng, arr.size)
        elif name.endswith(".w"):
            arrays[name] = rng.init_weight(arr.shape, arr.shape[1])
        elif name.endswith(".gamma"):
            arrays[name] = rng.uniform(0.8, 1.2, arr.shape)
        elif name.endswith(".beta"):
            arrays[name] = rng.uniform(-0.2, 0.2, arr.shape)
        else:
            arrays[name] = rng.uniform(-0.1, 0.1, arr.shape)
    return arrays


def _layer_case(**overrides):
    """The layer at C=6, C'=4, S=3 on a 4x4 map, in training mode, with ``overrides``."""
    def build(seed, eps, tol):
        rng = Rng(seed)
        cfg = LayerConfig(c=6, cp=4, s=3, **overrides)
        params = init_layer_params(cfg)
        arrays = _record_arrays(rng, params, cfg.c)
        probe = rng.uniform(-1, 1, (1, cfg.c, 4, 4))

        def forward(tape, x, record):
            collect: dict = {}
            y = layer_forward_node(tape, x, record, cfg, training=True, collect=collect)
            _assert_off_integer(collect["positions"])
            return y

        return _reports(_record_loss_builder(forward, params, probe), arrays, eps, tol)

    return build


def _case_nonlocal(seed, eps, tol):
    rng = Rng(seed)
    params = init_nonlocal_params(6, 4)
    arrays = _record_arrays(rng, params, 6)
    probe = rng.uniform(-1, 1, (1, 6, 4, 4))
    make_loss = _record_loss_builder(nonlocal_forward_node, params, probe)
    return _reports(make_loss, arrays, eps, tol)


CASES = {
    "add_mul_scale": _case_add_mul,
    "einsum_contraction": _case_einsum,
    "structural_ops": _case_structural,
    "project_1x1": _case_project,
    "softmax": _case_softmax,
    "relu": _case_relu,
    "bilinear_sample": _case_bilinear,
    "avg_pool_grid": _case_avg_pool,
    "batch_norm_train": _bn_case(training=True),
    "batch_norm_eval": _bn_case(training=False),
    "conv3x3": _case_conv3x3,
    "softmax_cross_entropy": _case_softmax_xent,
    "simple_layer": _layer_case(variant="simple"),
    "bottleneck_layer": _layer_case(variant="bottleneck"),
    "simple_layer_grid": _layer_case(variant="simple", gs=2),
    "bottleneck_layer_grid": _layer_case(variant="bottleneck", gs=2),
    "simple_layer_group": _layer_case(variant="simple", groups=2),
    "bottleneck_layer_group": _layer_case(variant="bottleneck", groups=2),
    "simple_layer_grid_group": _layer_case(variant="simple", gs=2, groups=2),
    "bottleneck_layer_grid_group": _layer_case(variant="bottleneck", gs=2, groups=2),
    "simple_layer_concat": _layer_case(variant="simple", fusion="concat"),
    "bottleneck_layer_concat": _layer_case(variant="bottleneck", fusion="concat"),
    "simple_layer_theta_offsets": _layer_case(variant="simple", offset_source="theta"),
    # Insertion mode changes the simple layer's initial values only, which the
    # case draws afresh; in the bottleneck it also drops the final ReLU.
    "bottleneck_layer_insert": _layer_case(variant="bottleneck",
                                           init_mode="pretrained_insert"),
    "nonlocal_block": _case_nonlocal,
}


def run_case(name: str, seed: int, eps: float = 1e-6, tol: float = 1e-5) -> CaseResult:
    if name not in CASES:
        raise ContractError(f"unknown gradcheck case {name!r}")
    return CaseResult(case=name, seed=seed, reports=CASES[name](seed, eps, tol))


def run_all(seeds=(0, 1, 2), eps: float = 1e-6, tol: float = 1e-5) -> list[CaseResult]:
    results = []
    for name in CASES:
        for seed in seeds:
            results.append(run_case(name, seed, eps=eps, tol=tol))
    return results


def all_passed(results) -> bool:
    return all(r.passed for r in results)
