"""Neural primitives: 1x1 projection, softmax, bilinear sampling, pooling, BN, ReLU.

Each primitive is one tape op (``*_node``) that computes its value and
records its backward rule; inference and training run the same ops.
``project_1x1`` and ``softmax_rows`` take plain arrays for the dense
references that compare against the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autograd import Node, Tape, einsum2
from .errors import ContractError, ShapeError
from .tensor import Tensor4


@dataclass
class Projection1x1:
    """Per-position linear map: weight [c_out, c_in], optional bias [c_out]."""

    weight: np.ndarray
    bias: Optional[np.ndarray] = None

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]


@dataclass
class BatchNormParams:
    """Per-channel affine normalization state.

    Training mode normalizes with batch statistics over (n, h, w) and updates
    the running estimates in place, so a params record must not be shared
    across concurrent training steps.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise ContractError(f"batch norm eps must be positive, got {self.eps}")
        if np.any(self.running_var < 0):
            raise ContractError("running variance must be non-negative")

    @classmethod
    def create(cls, channels: int, eps: float = 1e-5, momentum: float = 0.1,
               dtype=np.float64) -> "BatchNormParams":
        return cls(
            gamma=np.ones(channels, dtype=dtype),
            beta=np.zeros(channels, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            eps=eps,
            momentum=momentum,
        )


# ---------------------------------------------------------------------------
# 1x1 projection
# ---------------------------------------------------------------------------


def project_1x1(x: Tensor4, proj: Projection1x1) -> Tensor4:
    """y[b, :, i, j] = W @ x[b, :, i, j] + bias, through :func:`project_node`."""
    tape = Tape()
    bias = None if proj.bias is None else tape.constant(proj.bias)
    return Tensor4(project_node(tape.constant(x.data), tape.constant(proj.weight), bias).value)


def project_node(x: Node, weight: Node, bias: Optional[Node]) -> Node:
    if weight.value.shape[1] != x.value.shape[1]:
        raise ShapeError(
            f"projection expects {weight.value.shape[1]} input channels, "
            f"feature map has {x.value.shape[1]}"
        )
    out = einsum2("oc,bchw->bohw", weight, x)
    if bias is not None:
        out = add_channel_bias(out, bias)
    return out


def add_channel_bias(x: Node, bias: Node) -> Node:
    value = x.value + bias.value[None, :, None, None]
    return x.tape.record(
        value, (x, bias), lambda g: (g, g.sum(axis=(0, 2, 3))), op="channel_bias"
    )


# ---------------------------------------------------------------------------
# Softmax
# ---------------------------------------------------------------------------


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax over the last axis, max-subtracted for stability."""
    a = np.asarray(a)
    # One buffer holds the shifted logits, their exponentials and the result.
    e = np.subtract(a, a.max(axis=-1, keepdims=True), dtype=np.result_type(a, 1.0))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_node(a: Node) -> Node:
    s = softmax_rows(a.value)

    def bwd(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return ((g - inner) * s,)

    return a.tape.record(s, (a,), bwd, op="softmax")


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------


def relu_node(x: Node) -> Node:
    mask = x.value > 0
    return x.tape.record(
        np.where(mask, x.value, 0), (x,), lambda g: (g * mask,), op="relu"
    )


# ---------------------------------------------------------------------------
# Bilinear position sampling
# ---------------------------------------------------------------------------


def _bilinear_taps(data: np.ndarray, b: np.ndarray, py: np.ndarray, px: np.ndarray):
    """The four taps of the truncated bilinear kernel at every position.

    Yields ``(wy, wx, sy, sx, yy, xx, valid, f)`` per tap: the separable
    weights and the signs of their derivatives, the integer tap coordinates,
    the in-map mask and the tapped features [len, c], zero off the map.
    Positions are clamped to [-2, size + 1] first and NaN becomes -2: beyond
    that range every tap is off the map either way, and the clamp keeps the
    int64 cast defined for far-off, infinite and NaN positions.
    """
    n, c, h, w = data.shape
    ty = np.nan_to_num(np.clip(py, -2, h + 1), copy=False, nan=-2.0)
    tx = np.nan_to_num(np.clip(px, -2, w + 1), copy=False, nan=-2.0)
    y0 = np.floor(ty)
    x0 = np.floor(tx)
    ty -= y0
    tx -= x0
    y0 = y0.astype(np.int64)
    x0 = x0.astype(np.int64)
    for dy, wy, sy in ((0, 1.0 - ty, -1.0), (1, ty, 1.0)):
        for dx, wx, sx in ((0, 1.0 - tx, -1.0), (1, tx, 1.0)):
            yy = y0 + dy
            xx = x0 + dx
            valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            f = data[b, :, np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
            np.multiply(f, valid[:, None], out=f)
            yield wy, wx, sy, sx, yy, xx, valid, f


def _bilinear_backward(data, b, py, px, g):
    """Gradients of the truncated bilinear kernel w.r.t. the map and positions."""
    n, c, h, w = data.shape
    dmap_flat = np.zeros((n * h * w, c), dtype=data.dtype)
    dpy = np.zeros_like(py)
    dpx = np.zeros_like(px)
    for wy, wx, sy, sx, yy, xx, valid, f in _bilinear_taps(data, b, py, px):
        gf = (g * f).sum(axis=1)
        dpy += sy * wx * gf
        dpx += sx * wy * gf
        rows = (b * h + yy) * w + xx
        contrib = g * (wy * wx)[:, None]
        np.add.at(dmap_flat, rows[valid], contrib[valid])
    dmap = dmap_flat.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return dmap, dpy, dpx


def bilinear_node(x: Node, py: Node, px: Node, b: np.ndarray) -> Node:
    """Sample map ``x`` at (py, px) with the 4-neighbour triangular kernel.

    ``py``/``px`` may carry any shape; the output appends the channel axis,
    and the coordinate nodes get gradients too.  Neighbours outside the map
    contribute zero (kernel support truncated at the border).  At
    exactly-integer coordinates the floor-based weights give the one-sided
    subgradient convention used by the backward pass.
    """
    if py.value.shape != px.value.shape:
        raise ShapeError("py and px must share a shape")
    shape = py.value.shape
    n, c = x.value.shape[:2]
    b = np.broadcast_to(np.asarray(b, dtype=np.int64), shape).reshape(-1)
    if b.size and (b.min() < 0 or b.max() >= n):
        raise IndexError(f"batch index out of range for batch size {n}")
    py_flat = py.value.reshape(-1)
    px_flat = px.value.reshape(-1)
    out = np.zeros((py_flat.size, c), dtype=np.result_type(x.value.dtype, py_flat.dtype))
    for wy, wx, _, _, _, _, _, f in _bilinear_taps(x.value, b, py_flat, px_flat):
        out += (wy * wx)[:, None] * f

    def bwd(g):
        dmap, dpy, dpx = _bilinear_backward(
            x.value, b, py_flat, px_flat, g.reshape(-1, c)
        )
        return dmap, dpy.reshape(shape), dpx.reshape(shape)

    return x.tape.record(out.reshape(shape + (c,)), (x, py, px), bwd, op="bilinear")


# ---------------------------------------------------------------------------
# Grid average pooling
# ---------------------------------------------------------------------------


def _pool_counts(size: int, g: int) -> np.ndarray:
    starts = np.arange(0, size, g)
    return np.minimum(g, size - starts)


def _pool_area(h: int, w: int, g: int, dtype) -> np.ndarray:
    """Element count of every g x g block as a [1, 1, hg, wg] array of ``dtype``."""
    return np.outer(_pool_counts(h, g), _pool_counts(w, g)).astype(dtype)[None, None]


def avg_pool_node(x: Node, g: int) -> Node:
    """Mean over g x g blocks; edge blocks are partial and count-normalized."""
    if g < 1:
        raise ContractError(f"pooling group size must be >= 1, got {g}")
    n, c, h, w = x.value.shape
    if g == 1:
        out = x.value / 1.0
    else:
        t = np.add.reduceat(x.value, np.arange(0, h, g), axis=2)
        t = np.add.reduceat(t, np.arange(0, w, g), axis=3)
        out = t / _pool_area(h, w, g, t.dtype)

    def bwd(grad):
        spread = grad / _pool_area(h, w, g, grad.dtype)
        spread = np.repeat(spread, _pool_counts(h, g), axis=2)
        spread = np.repeat(spread, _pool_counts(w, g), axis=3)
        return (spread,)

    return x.tape.record(out, (x,), bwd, op="avg_pool")


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


def batch_norm_node(x: Node, gamma: Node, beta: Node, params: BatchNormParams,
                    training: bool = False) -> Node:
    """Per-channel batch norm with scale ``gamma`` and shift ``beta``.

    Training mode normalizes with batch statistics and updates the running
    statistics of ``params`` in place; eval mode normalizes with them.
    """
    data = x.value
    n, c, h, w = data.shape
    if n * h * w == 0:
        raise ContractError("batch norm requires a non-empty batch")
    if training:
        mu = data.mean(axis=(0, 2, 3))
        var = data.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + params.eps)
        xhat = (data - mu[None, :, None, None]) * inv[None, :, None, None]
        mom = params.momentum
        # In place so records that share these buffers observe the update.
        params.running_mean[...] = (1.0 - mom) * params.running_mean + mom * mu
        params.running_var[...] = (1.0 - mom) * params.running_var + mom * var
    else:
        inv = 1.0 / np.sqrt(params.running_var + params.eps)
        xhat = (data - params.running_mean[None, :, None, None]) * inv[None, :, None, None]
    value = gamma.value[None, :, None, None] * xhat + beta.value[None, :, None, None]

    def bwd(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dxhat = g * gamma.value[None, :, None, None]
        if training:
            mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
            mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
            dx = (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) * inv[None, :, None, None]
        else:
            dx = dxhat * inv[None, :, None, None]
        return dx, dgamma, dbeta

    return x.tape.record(value, (x, gamma, beta), bwd, op="batch_norm")
