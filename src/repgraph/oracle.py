"""Dense-equivalence oracle: full-grid sampling must reproduce the dense baseline.

With S = N offsets that enumerate every grid position per query, the sparse
layer attends over the complete node set and collapses to the dense
operation; any drift beyond float rounding is a defect in one of the two
implementations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError
from .layer import (
    LayerConfig,
    SimpleRepGraphParams,
    full_grid_offsets,
    repgraph_forward,
)
from .nonlocal_block import init_nonlocal_params, nonlocal_forward
from .ops import Projection1x1
from .tensor import Rng


def dense_equivalence_diff(n_nodes: int, seed: int, c: int = 8, cp: int = 4,
                           batch: int = 1, fusion: str = "sum") -> float:
    """Max |dense - sparse| over a random input with shared projections."""
    if n_nodes < 1 or math.isqrt(n_nodes) ** 2 != n_nodes:
        raise ContractError(f"node count must be a positive perfect square, got {n_nodes}")
    side = math.isqrt(n_nodes)
    rng = Rng(seed)
    nl = init_nonlocal_params(c, cp, fusion=fusion, rng=rng)
    sparse = SimpleRepGraphParams(
        theta=nl.theta,
        phi=nl.phi,
        g=nl.g,
        w_off=Projection1x1(np.zeros((2 * n_nodes, c)), np.zeros(2 * n_nodes)),
        w_out=nl.w_out,
    )
    cfg = LayerConfig(c=c, cp=cp, s=n_nodes, variant="simple", fusion=fusion)
    x = rng.tensor((batch, c, side, side))
    dense = nonlocal_forward(x, nl)
    offsets = full_grid_offsets(batch, side, side)
    grid = repgraph_forward(x, sparse, cfg, offsets=offsets)
    return float(np.abs(dense.data - grid.data).max())
