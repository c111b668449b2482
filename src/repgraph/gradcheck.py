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
from .autograd import Tape, finite_diff_check, weighted_sum
from .errors import ContractError
from .layer import LayerConfig, init_layer_params, layer_forward_node, param_arrays
from .ops import BatchNormParams
from .tensor import Rng
from .train import conv3x3_node, softmax_xent_node

# The central-difference step, and the relative error every case must stay below.
_EPS, _TOL = 1e-6, 1e-5


@dataclass
class CaseResult:
    case: str
    seed: int
    reports: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _case(draw, forward):
    """A case: ``run(seed)`` returns one report per probed array, at ``_EPS`` and ``_TOL``.

    ``draw(rng)`` returns the probed arrays by name, then any constants.
    ``forward(arrays, *constants)`` records the graph on a new tape and
    returns its output and the tape node of each probed array.  The loss is
    the output when that is a scalar, and otherwise its sum against a probe
    drawn after the constants, in the output's shape.
    """
    def run(seed):
        rng = Rng(seed)
        arrays, *consts = draw(rng)
        out = forward(arrays, *consts)[0].value
        probe = rng.uniform(-1, 1, out.shape) if out.ndim else None

        def loss(target):
            def f(arr):
                y, nodes = forward({**arrays, target: arr}, *consts)
                return (y if probe is None else weighted_sum(y, probe)), nodes[target]
            return f

        return [finite_diff_check(loss(t), arrays[t], _EPS, _TOL, target=t) for t in arrays]
    return run


def _op_case(draw, op):
    """A case of ``op(*leaves, *constants)``, one tape leaf per probed array."""
    def forward(arrays, *consts):
        tape = Tape()
        nodes = {name: tape.leaf(arr) for name, arr in arrays.items()}
        return op(*nodes.values(), *consts), nodes
    return _case(draw, forward)


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


# ---------------------------------------------------------------------------
# Case definitions
# ---------------------------------------------------------------------------


def _uniform(rng: Rng, lo: float, hi: float, **shapes) -> dict:
    return {name: rng.uniform(lo, hi, shape) for name, shape in shapes.items()}


def _structural(a, b, idx):
    at = ag.transpose(ag.reshape(a, (2, 2, 2, 6)), (0, 2, 1, 3))
    an = ag.narrow(ag.concat([at, at], axis=2), 2, 0, 4)
    bt = ag.transpose(ag.reshape(b, (2, 2, 2, 6)), (0, 2, 1, 3))
    return ag.gather_last(ag.concat([an, bt], axis=2), idx)


def _draw_relu(rng: Rng):
    # Magnitudes >= 0.2 keep every coordinate away from the kink at zero.
    mags = rng.uniform(0.2, 1.5, (3, 4, 2, 2))
    return {"x": mags * np.where(rng.uniform(0, 1, mags.shape) < 0.5, -1.0, 1.0)},


def _draw_bilinear(rng: Rng):
    n, c, h, w, count = 2, 3, 5, 6, 24
    base_y = rng.integers(-1, h + 1, count).astype(np.float64)
    base_x = rng.integers(-1, w + 1, count).astype(np.float64)
    frac = rng.uniform(0.15, 0.85, (2, count))
    arrays = {"map": rng.uniform(-1, 1, (n, c, h, w)),
              "py": base_y + frac[0], "px": base_x + frac[1]}
    return arrays, rng.integers(0, n, count)


def _draw_batch_norm(rng: Rng):
    arrays = {"x": rng.uniform(-1, 1, (2, 3, 4, 4)),
              "gamma": rng.uniform(0.5, 1.5, 3),
              "beta": rng.uniform(-0.5, 0.5, 3)}
    record = BatchNormParams.create(3)
    record.running_mean = rng.uniform(-0.3, 0.3, 3)
    record.running_var = rng.uniform(0.5, 1.5, 3)
    return arrays, record


def _layer_case(**overrides):
    """The layer at C=6, C'=4, S=3 on a 4x4 map, in training mode, with ``overrides``.

    Each run probes one copy of a template parameter record; every evaluation
    writes the probed arrays into it.
    """
    cfg = LayerConfig(c=6, cp=4, s=3, **overrides)
    params = init_layer_params(cfg, Rng(0))

    def draw(rng):
        return _record_arrays(rng, params, cfg.c), copy.deepcopy(params)

    def forward(arrays, record):
        for name, arr in param_arrays(record).items():
            arr[...] = arrays[name]
        tape = Tape()
        x = tape.leaf(arrays["x"])
        collect: dict = {}
        y = layer_forward_node(tape, x, record, cfg, training=True, collect=collect)
        if "positions" in collect:
            _assert_off_integer(collect["positions"])
        return y, {"x": x, **tape.params}
    return _case(draw, forward)


CASES = {
    "add": _op_case(lambda rng: (_uniform(rng, -1, 1, a=(3, 4), b=(3, 4)),), ag.add),
    # A per-row constant broadcast over the other axes, as the sampling
    # anchors are added to the regressed offsets.
    "add_const": _op_case(
        lambda rng: (_uniform(rng, -1, 1, a=(2, 5, 3)), rng.uniform(-4, 4, (1, 5, 1))),
        ag.add_const),
    "einsum_contraction": _op_case(
        lambda rng: (_uniform(rng, -1, 1, a=(2, 6, 3), b=(2, 6, 4, 3)),),
        lambda a, b: ag.einsum2("bpc,bpsc->bps", a, b)),
    "structural_ops": _op_case(
        lambda rng: (_uniform(rng, -1, 1, a=(2, 4, 6), b=(2, 4, 6)),
                     np.asarray(rng.integers(0, 6, 9))),
        _structural),
    "project_1x1": _op_case(
        lambda rng: (_uniform(rng, -1, 1, x=(2, 3, 4, 5), w=(4, 3), b=4),),
        ops.project_node),
    # The sum fusion's tail: the residual adds into the product with the bias.
    "project_1x1_residual": _op_case(
        lambda rng: (_uniform(rng, -1, 1, x=(2, 3, 4, 5), w=(4, 3), b=4, r=(2, 4, 4, 5)),),
        lambda x, w, b, r: ops.project_node(x, w, b, residual=r)),
    # The op overwrites its input, so it gets a fresh node, not the probed leaf.
    "softmax": _op_case(lambda rng: (_uniform(rng, -2, 2, x=(5, 7)),),
                        lambda x: ops.softmax_node(ag.add_const(x, 0.0))),
    "relu": _op_case(_draw_relu, ops.relu_node),
    "bilinear_sample": _op_case(_draw_bilinear, ops.bilinear_node),
    "avg_pool_grid": _op_case(lambda rng: (_uniform(rng, -1, 1, x=(2, 3, 5, 7)),),
                              lambda x: ops.avg_pool_node(x, 2)),
    "batch_norm_train": _op_case(
        _draw_batch_norm, lambda x, g, b, rec: ops.batch_norm_node(x, g, b, rec, training=True)),
    "batch_norm_eval": _op_case(
        _draw_batch_norm, lambda x, g, b, rec: ops.batch_norm_node(x, g, b, rec, training=False)),
    "conv3x3": _op_case(
        lambda rng: ({"x": rng.uniform(-1, 1, (2, 2, 5, 5)),
                      **_uniform(rng, -0.5, 0.5, w=(3, 2, 3, 3), b=3)},),
        conv3x3_node),
    "softmax_cross_entropy": _op_case(
        lambda rng: (_uniform(rng, -2, 2, logits=(2, 4, 3, 3)), rng.integers(0, 4, (2, 3, 3))),
        softmax_xent_node),
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
    # Insertion mode changes the simple layer's initial values only, which the
    # case draws afresh; in the bottleneck it also drops the final ReLU.
    "bottleneck_layer_insert": _layer_case(variant="bottleneck",
                                           init_mode="pretrained_insert"),
    "nonlocal_block": _layer_case(variant="nonlocal"),
}


def run_case(name: str, seed: int) -> CaseResult:
    if name not in CASES:
        raise ContractError(f"unknown gradcheck case {name!r}")
    return CaseResult(case=name, seed=seed, reports=CASES[name](seed))


def run_all(seeds=(0, 1, 2)) -> list[CaseResult]:
    return [run_case(name, seed) for name in CASES for seed in seeds]


def all_passed(results) -> bool:
    return all(r.passed for r in results)
