"""Dense fully-connected attention baseline.

Every position attends over all N = h*w positions through a row-stochastic
N x N affinity matrix.  Softmax is the sole normalizer (the extra 1/C(x)
factor some formulations carry is redundant once softmax is applied, so it
is fixed to 1 here and in the sparse layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autograd as ag
from . import ops
from .autograd import Node, Tape
from .errors import ContractError, ShapeError
from .layer import _bind_params, _flatten_map, _proj, _project, _unflatten_map
from .ops import Projection1x1
from .tensor import Rng, Tensor4

_FUSIONS = ("sum", "concat")


@dataclass
class NonLocalParams:
    """theta/phi/g map C -> C'; w_out restores C (from C' for sum, C + C' for concat)."""

    theta: Projection1x1
    phi: Projection1x1
    g: Projection1x1
    w_out: Projection1x1
    fusion: str = "sum"

    def __post_init__(self) -> None:
        if self.fusion not in _FUSIONS:
            raise ContractError(f"unknown fusion {self.fusion!r}")
        if not (self.theta.c_out == self.phi.c_out == self.g.c_out):
            raise ShapeError("theta, phi and g must share the projected width C'")


def init_nonlocal_params(c: int, cp: int, fusion: str = "sum",
                         rng: Optional[Rng] = None, dtype=np.float64,
                         zero_out: bool = False) -> NonLocalParams:
    rng = rng if rng is not None else Rng(0)
    c_fuse_in = cp if fusion == "sum" else c + cp
    return NonLocalParams(
        theta=_proj(rng, cp, c, dtype),
        phi=_proj(rng, cp, c, dtype),
        g=_proj(rng, cp, c, dtype),
        w_out=_proj(rng, c, c_fuse_in, dtype, zero=zero_out),
        fusion=fusion,
    )


def affinity_matrix(x_theta: np.ndarray, x_phi: np.ndarray) -> np.ndarray:
    """Row-softmaxed pairwise dot products: A = softmax(x_theta @ x_phi^T)."""
    x_theta = np.asarray(x_theta)
    x_phi = np.asarray(x_phi)
    if x_theta.ndim != 2 or x_phi.ndim != 2:
        raise ShapeError(
            f"affinity expects [N, C'] matrices, got {x_theta.shape} and {x_phi.shape}"
        )
    if x_theta.shape[1] != x_phi.shape[1]:
        raise ShapeError(
            f"query/key widths disagree: {x_theta.shape} vs {x_phi.shape}"
        )
    return ops.softmax_rows(x_theta @ x_phi.T)


def nonlocal_forward_node(tape: Tape, x: Node, params: NonLocalParams,
                          collect: Optional[dict] = None, prefix: str = "") -> Node:
    n, c, h, w = x.value.shape
    if c != params.theta.c_in:
        raise ShapeError(f"input has {c} channels, projections expect {params.theta.c_in}")
    p = _bind_params(tape, params, prefix)
    theta = _flatten_map(_project(x, p, "theta"))
    phi = _flatten_map(_project(x, p, "phi"))
    g = _flatten_map(_project(x, p, "g"))
    logits = ag.einsum2("bnc,bmc->bnm", theta, phi)
    affinity = ops.softmax_node(logits)
    if collect is not None:
        collect["affinity"] = affinity.value
    x_tilde = _unflatten_map(ag.einsum2("bnm,bmc->bnc", affinity, g), h, w)
    if params.fusion == "sum":
        return ag.add(_project(x_tilde, p, "w_out"), x)
    return _project(ag.concat([x_tilde, x], axis=1), p, "w_out")


def nonlocal_forward(x: Tensor4, params: NonLocalParams,
                     collect: Optional[dict] = None) -> Tensor4:
    tape = Tape()
    y = nonlocal_forward_node(tape, tape.leaf(x.data), params, collect=collect)
    return Tensor4(y.value)
