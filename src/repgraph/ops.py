"""Neural primitives: 1x1 projection, softmax, bilinear sampling, pooling, BN, ReLU.

Each primitive is one tape op (``*_node``) that computes its value and
records its backward rule; inference and training run the same ops.
``project_1x1`` and ``softmax_rows`` take plain arrays for the dense
references that compare against the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .autograd import Node, Tape, einsum2
from .errors import ContractError, ShapeError
from .tensor import Tensor4


@dataclass
class Projection1x1:
    """Per-position linear map: weight [c_out, c_in], bias [c_out]."""

    weight: np.ndarray
    bias: np.ndarray

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
    across concurrent training steps.  ``eps`` and the running-statistics
    ``momentum`` are the same for every record.
    """

    eps: ClassVar[float] = 1e-5
    momentum: ClassVar[float] = 0.1

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.running_var < 0):
            raise ContractError("running variance must be non-negative")

    @classmethod
    def create(cls, channels: int, dtype=np.float64) -> "BatchNormParams":
        return cls(
            gamma=np.ones(channels, dtype=dtype),
            beta=np.zeros(channels, dtype=dtype),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
        )


# ---------------------------------------------------------------------------
# 1x1 projection
# ---------------------------------------------------------------------------


def project_1x1(x: Tensor4, proj: Projection1x1) -> Tensor4:
    """y[b, :, i, j] = W @ x[b, :, i, j] + bias, through :func:`project_node`."""
    tape = Tape(grad=False)
    return Tensor4(project_node(tape.leaf(x.data), tape.leaf(proj.weight),
                                tape.leaf(proj.bias)).value)


def project_node(x: Node, weight: Node, bias: Node,
                 residual: Optional[Node] = None) -> Node:
    """W @ x per position, plus ``bias`` per channel, plus ``residual``.

    The bias and the residual add into the GEMM's fresh product
    (:func:`add_channel_bias`), so the projection holds one output-sized
    buffer and the tape keeps no pre-bias copy.
    """
    if weight.value.shape[1] != x.value.shape[1]:
        raise ShapeError(
            f"projection expects {weight.value.shape[1]} input channels, "
            f"feature map has {x.value.shape[1]}"
        )
    return add_channel_bias(einsum2("oc,bchw->bohw", weight, x), bias, residual)


def add_in_place(value: np.ndarray, *terms: np.ndarray) -> np.ndarray:
    """``value`` plus each term in turn, added into ``value`` itself unless a
    term's dtype promotes it; the bytes of the out-of-place sum either way."""
    dtype = np.result_type(value, *terms)
    value = value if dtype == value.dtype else value.astype(dtype)
    for term in terms:
        value += term
    return value


def add_channel_bias(x: Node, bias: Node, residual: Optional[Node] = None) -> Node:
    """``x`` plus a per-channel ``bias`` and an optional same-shaped ``residual``.

    Both add into ``x``'s own buffer, so ``x`` must be a fresh product that
    nothing else reads, as :func:`project_node`'s GEMM output is; neither
    backward reads the value before the add.
    """
    shape = x.value.shape
    if bias.value.shape != shape[1:2]:
        raise ShapeError(f"bias has shape {bias.value.shape}, the output has {shape[1]} channels")
    if residual is not None and residual.value.shape != shape:
        raise ShapeError(
            f"residual has shape {residual.value.shape}, the output has shape {shape}"
        )
    terms = [bias.value[:, None, None]] + ([] if residual is None else [residual.value])

    def bwd(g):
        return [g, g.sum(axis=(0, 2, 3))] + ([] if residual is None else [g])

    parents = [x, bias] + ([] if residual is None else [residual])
    return x.tape.record(add_in_place(x.value, *terms), parents, bwd, op="channel_bias")


# ---------------------------------------------------------------------------
# Softmax
# ---------------------------------------------------------------------------


# Rows up to this long take their max as a chain of np.maximum over column
# views: a.max(axis=-1) pays a per-row cost that dominates short contiguous
# rows (0.9 ms against 0.06 ms on [1, 8192, 9] f32).  From 64 on the chain is
# the slower one.  Both give the same bits.
_SHORT_ROW = 32


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept as a length-1 axis."""
    if not 0 < a.shape[-1] <= _SHORT_ROW:
        return a.max(axis=-1, keepdims=True)
    m = a[..., :1]
    for j in range(1, a.shape[-1]):
        m = np.maximum(m, a[..., j:j + 1])
    return m


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-stochastic softmax over the last axis, max-subtracted for stability."""
    a = np.asarray(a)
    # One buffer holds the shifted logits, their exponentials and the result.
    e = np.subtract(a, _row_max(a), dtype=np.result_type(a, 1.0))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_node(a: Node) -> Node:
    """Row softmax of ``a``, written into ``a``'s own buffer.

    ``a`` must be a fresh product that nothing else reads, as an ``einsum2``
    output is: ``einsum2``'s backward reads only its inputs, and this op's
    backward reads only its value.  An input whose dtype :func:`softmax_rows`
    would promote is cast once and left as it was.  The bytes are
    :func:`softmax_rows`' of a copy.
    """
    dtype = np.result_type(a.value, 1.0)
    s = a.value if dtype == a.value.dtype else a.value.astype(dtype)
    # For rows of one logit the max is a view of ``s``; numpy buffers the
    # overlapping operand, so the subtraction still reads the old values.
    s -= _row_max(s)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return ((g - inner) * s,)

    return a.tape.record(s, (a,), bwd, op="softmax")


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------


def relu_node(x: Node) -> Node:
    # fmax maps NaN to 0, as where(x > 0, x, 0) does, but may keep the sign
    # of -0.0; adding +0 makes every zero +0.0, so the bytes match.  The
    # value is positive exactly where x is, so the backward takes its mask
    # from the value.
    value = np.fmax(x.value, 0)
    value += 0
    return x.tape.record(value, (x,), lambda g: (g * (value > 0),), op="relu")


# ---------------------------------------------------------------------------
# Bilinear position sampling
# ---------------------------------------------------------------------------


# Width of the zero border around the map copies the sampler reads.  Positions
# are clamped to [-2, size], so every tap lands inside the border or the map.
_PAD = 2
# Bytes of sampler rows per block of positions: the forward's four [len, c]
# taps together, the backward's one [len, c] output gradient.  A block, its
# indices and its weights fit in a core's L2 cache; 512 KiB measured fastest
# at both benchmark geometries (scripts/bench_sampler.py) and keeps the
# forward peaks of tests/test_layer.py within their bounds.
_BLOCK_BYTES = 512 * 1024
# Taps of the bilinear kernel; the forward gathers them into one buffer.
_TAPS = 4
# The forward computes the tap indices and weights for whole gather blocks, at
# least this many positions at a time.  Computing them takes about twenty
# numpy calls whatever the length, and at C = 64 in f32 a gather block is only
# 512 positions; each position's indices and weights hold about 60 bytes
# while they wait for their gather block.
_INDEX_ROWS = 2048


def _bilinear_taps(shape, b: np.ndarray, py: np.ndarray, px: np.ndarray):
    """The four taps of the truncated bilinear kernel at every position.

    Yields ``(wy, wx, sy, sx, flat)`` per tap: the separable weights, the
    signs of their derivatives and the tap's index into the flat (b, y, x)
    axis of the map with a ``_PAD`` zero border (:func:`_pixel_major`).  A
    tap off the map reads the border, so it samples zero and gets zero
    gradients.  Positions are clamped to [-2, size] first (``fmax`` maps NaN
    to -2): beyond that range every tap is off the map either way, and the
    clamp keeps the int64 cast defined for far-off, infinite and NaN positions.
    """
    h, w = shape[2:]
    ty = np.fmin(np.fmax(py, -2), h)
    tx = np.fmin(np.fmax(px, -2), w)
    y0 = np.floor(ty)
    x0 = np.floor(tx)
    ty -= y0
    tx -= x0
    pw = w + 2 * _PAD
    flat = (b * (h + 2 * _PAD) + y0.astype(np.int64) + _PAD) * pw
    flat += x0.astype(np.int64) + _PAD
    uy = 1.0 - ty
    ux = 1.0 - tx
    yield uy, ux, -1.0, -1.0, flat
    yield uy, tx, -1.0, 1.0, flat + 1
    yield ty, ux, 1.0, -1.0, flat + pw
    yield ty, tx, 1.0, 1.0, flat + (pw + 1)


def _block_len(width: int, dtype) -> int:
    """Positions per block: ``_BLOCK_BYTES`` of [len, width] rows.  The
    backward's rows are ``c`` wide, the forward's ``_TAPS * c``."""
    return max(1, _BLOCK_BYTES // max(1, width * np.dtype(dtype).itemsize))


def _blocks(length: int, width: int, dtype):
    """Slices of ``range(length)`` of :func:`_block_len` positions each."""
    step = _block_len(width, dtype)
    return [slice(lo, min(lo + step, length)) for lo in range(0, length, step)]


def _pixel_major(data: np.ndarray, dtype) -> np.ndarray:
    """[n, c, h, w] map as a [n*(h+4)*(w+4), c] copy with a zero border."""
    n, c, h, w = data.shape
    xp = np.zeros((n, h + 2 * _PAD, w + 2 * _PAD, c), dtype=dtype)
    xp[:, _PAD:-_PAD, _PAD:-_PAD] = data.transpose(0, 2, 3, 1)
    return xp.reshape(-1, c)


def _channel_major(data: np.ndarray, dtype) -> np.ndarray:
    """[n, c, h, w] map as a [c, n*(h+4)*(w+4)] copy with a zero border."""
    n, c, h, w = data.shape
    xc = np.zeros((c, n, h + 2 * _PAD, w + 2 * _PAD), dtype=dtype)
    xc[:, :, _PAD:-_PAD, _PAD:-_PAD] = data.transpose(1, 0, 2, 3)
    return xc.reshape(c, -1)


def _bilinear_backward(data, b, py, px, g):
    """Map and position gradients of the truncated bilinear kernel.

    ``g`` is the output gradient as a node-major [len, c] array.  Positions
    run in blocks of ``_BLOCK_BYTES`` of ``g`` rows, and each block of ``g``
    is transposed to channel-major, so the channel sums and the scatter read
    contiguous rows.
    Each tap's map gradient is scattered with one ``np.bincount`` per channel
    over the span of the map the block touches.  Bincount adds in index
    order and the blocks and taps add in a fixed order, so the result is the
    same on every run.
    """
    n, c, h, w = data.shape
    xc = _channel_major(data, g.dtype)
    dmap = np.zeros(xc.shape, dtype=data.dtype)
    dpy = np.zeros_like(py)
    dpx = np.zeros_like(px)
    for blk in _blocks(len(py), c, g.dtype):
        gb = np.ascontiguousarray(g[blk].T)
        buf = np.empty_like(gb)
        for wy, wx, sy, sx, flat in _bilinear_taps(data.shape, b[blk], py[blk], px[blk]):
            np.take(xc, flat, axis=1, out=buf, mode="wrap")
            buf *= gb
            gf = buf.sum(axis=0)
            dpy[blk] += sy * wx * gf
            dpx[blk] += sx * wy * gf
            np.multiply(gb, wy * wx, out=buf)
            lo = flat.min()
            span = flat.max() + 1 - lo
            rel = flat - lo
            for ch in range(c):
                dmap[ch, lo:lo + span] += np.bincount(rel, weights=buf[ch], minlength=span)
    dmap = dmap.reshape(c, n, h + 2 * _PAD, w + 2 * _PAD)[:, :, _PAD:-_PAD, _PAD:-_PAD]
    return dmap.transpose(1, 0, 2, 3), dpy, dpx


def bilinear_node(x: Node, py: Node, px: Node, b: np.ndarray, *,
                  bordered: Optional[np.ndarray] = None) -> Node:
    """Sample map ``x`` at (py, px) with the 4-neighbour triangular kernel.

    ``py``/``px`` may carry any shape; the output appends the channel axis,
    and the coordinate nodes get gradients too.  Neighbours outside the map
    contribute zero (kernel support truncated at the border).  At
    exactly-integer coordinates the floor-based weights give the one-sided
    subgradient convention used by the backward pass.

    The kernel works pixel-major: every tap is one ``np.take`` of whole
    channel rows from a zero-bordered [n*(h+4)*(w+4), c] copy of the map.
    ``bordered`` is that copy (:func:`_pixel_major` of ``x`` in the output
    dtype), built once by a caller that samples one map in several calls;
    without it the call builds its own.  Positions run in gather blocks
    whose four taps fill ``_BLOCK_BYTES``: each block gathers its taps into
    one [4, len, c] buffer, takes its weights as a [4, len] slice, and one
    ``np.einsum`` writes the block's output.  The indices and weights are
    computed for ``_INDEX_ROWS`` positions or more at a time.  The einsum
    adds the weighted taps from zero in tap order, so the bytes are those of
    four multiply-adds into a zeroed output, and four -0.0 taps sum to +0.0.
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
    dtype = np.result_type(x.value.dtype, py_flat.dtype)
    if bordered is None:
        xp = _pixel_major(x.value, dtype)
    else:
        h, w = x.value.shape[2:]
        want = (n * (h + 2 * _PAD) * (w + 2 * _PAD), c)
        if bordered.shape != want or bordered.dtype != dtype:
            raise ShapeError(f"bordered copy is {bordered.dtype} {bordered.shape}, "
                             f"the map needs {np.dtype(dtype)} {want}")
        xp = bordered
    length = py_flat.size
    step = _block_len(_TAPS * c, dtype)
    span = step * max(1, _INDEX_ROWS // step)
    out = np.empty((length, c), dtype=dtype)
    taps = np.empty((_TAPS, min(step, length), c), dtype=dtype)
    # At least two columns, so the weights are never contiguous along the tap
    # axis: einsum would sum one position's four contiguous taps with a SIMD
    # reduction, which adds them in another order.
    weights = np.empty((_TAPS, max(2, min(span, length))), dtype=dtype)
    for lo in range(0, length, span):
        blk = slice(lo, min(lo + span, length))
        flats = []
        for k, (wy, wx, _, _, flat) in enumerate(
                _bilinear_taps(x.value.shape, b[blk], py_flat[blk], px_flat[blk])):
            np.multiply(wy, wx, out=weights[k, :blk.stop - lo])
            flats.append(flat)
        for sub in _blocks(blk.stop - lo, _TAPS * c, dtype):
            t = taps[:, :sub.stop - sub.start]
            for k, flat in enumerate(flats):
                # Every index is in range; unlike "raise", "wrap" lets take
                # write straight into the tap buffer.
                np.take(xp, flat[sub], axis=0, out=t[k], mode="wrap")
            np.einsum("kp,kpc->pc", weights[:, sub], t, out=out[blk][sub])

    def bwd(g):
        g = np.ascontiguousarray(g, dtype=dtype).reshape(-1, c)
        dmap, dpy, dpx = _bilinear_backward(x.value, b, py_flat, px_flat, g)
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
        mean = data.mean(axis=(0, 2, 3))
        var = data.var(axis=(0, 2, 3))
        mom = params.momentum
        # In place so records that share these buffers observe the update.
        params.running_mean[...] = (1.0 - mom) * params.running_mean + mom * mean
        params.running_var[...] = (1.0 - mom) * params.running_var + mom * var
    else:
        # Copied, so a later training step's in-place update cannot reach
        # this node's backward.
        mean, var = params.running_mean.copy(), params.running_var
    inv = 1.0 / np.sqrt(var + params.eps)
    shift = mean[None, :, None, None]
    scale = inv[None, :, None, None]
    # gamma * ((data - mean) * inv) + beta in one buffer: the same operations
    # in the same order, so the same bytes.  The backward recomputes xhat
    # rather than keep it beside the input and the value.
    value = data - shift
    value *= scale
    value *= gamma.value[None, :, None, None]
    value += beta.value[None, :, None, None]

    def bwd(g):
        xhat = data - shift
        xhat *= scale
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        dxhat = g * gamma.value[None, :, None, None]
        if training:
            mean_dxhat = dxhat.mean(axis=(0, 2, 3), keepdims=True)
            mean_dxhat_xhat = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
            dx = (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) * scale
        else:
            dx = dxhat * scale
        return dx, dgamma, dbeta

    return x.tape.record(value, (x, gamma, beta), bwd, op="batch_norm")
