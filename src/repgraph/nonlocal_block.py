"""Dense fully-connected attention baseline.

Every position attends over all N = h*w positions through a row-stochastic
N x N affinity matrix.  Softmax is the sole normalizer (the extra 1/C(x)
factor some formulations carry is redundant once softmax is applied, so it
is fixed to 1 here and in the sparse layer).  The block is the layer variant
``LayerConfig(variant="nonlocal")``; the functions here are the entry points
and reference that perfbench reads, kept until it no longer does.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import ShapeError
from .layer import LayerConfig, NonLocalParams, init_layer_params, repgraph_forward
from .tensor import Rng, Tensor4


def init_nonlocal_params(c: int, cp: int, *, rng: Rng, dtype) -> NonLocalParams:
    return init_layer_params(LayerConfig(c=c, cp=cp, variant="nonlocal"), rng=rng, dtype=dtype)


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


def nonlocal_forward(x: Tensor4, params: NonLocalParams) -> Tensor4:
    """The sum-fusion block at ``params``' widths."""
    cfg = LayerConfig(c=params.theta.c_in, cp=params.theta.c_out, variant="nonlocal")
    return repgraph_forward(x, params, cfg)
