"""Representative-node sparse attention: offset regression, sampling, attention,
the simple / bottleneck residual instantiations, and the dense non-local block.

Per query position the layer regresses S fractional 2-D offsets, bilinearly
samples the key and value branches at (position + offset), and attends over
those S nodes only, which drops the attention cost from O(C'*N^2) to
O(C'*N*S).  The non-local variant is the dense baseline it replaces: the
simple layer's projections and fusion, with every query attending over all N
positions.  Every variant is residual and supports an insertion mode whose
zero-initialized output branch makes the layer an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import autograd as ag
from . import ops
from .autograd import Node, Tape
from .errors import ContractError, ShapeError
from .ops import BatchNormParams, Projection1x1
from .tensor import Rng, Tensor4

_VARIANTS = ("simple", "bottleneck", "nonlocal")
_FUSIONS = ("sum", "concat")
_INIT_MODES = ("fresh", "pretrained_insert")
_OFFSET_SOURCES = ("input", "theta")


@dataclass(frozen=True)
class LayerConfig:
    """Structural description of one layer instance; construction validates it.

    ``gs`` > 1 is grid mode: one sampled node set per gs x gs spatial group.
    ``groups`` > 1 is group mode: the C' channels attend in G independent groups.
    ``variant="nonlocal"`` is the dense baseline: it samples nothing, so it
    reads neither ``s`` nor ``offset_source`` and takes neither mode.
    """

    c: int
    cp: int
    s: int = 9
    variant: str = "simple"
    fusion: str = "sum"
    init_mode: str = "fresh"
    offset_source: str = "input"
    seed: int = 0
    gs: int = 1
    groups: int = 1

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.s < 1:
            raise ContractError(f"sample count S must be >= 1, got {self.s}")
        if self.c < 1 or self.cp < 1:
            raise ContractError(f"channel widths must be positive, got C={self.c}, C'={self.cp}")
        if self.variant not in _VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}")
        if self.fusion not in _FUSIONS:
            raise ContractError(f"unknown fusion {self.fusion!r}")
        if self.init_mode not in _INIT_MODES:
            raise ContractError(f"unknown init_mode {self.init_mode!r}")
        if self.offset_source not in _OFFSET_SOURCES:
            raise ContractError(f"unknown offset_source {self.offset_source!r}")
        if self.init_mode == "pretrained_insert" and self.fusion != "sum":
            raise ContractError("pretrained_insert requires sum fusion")
        if self.gs < 1:
            raise ContractError(f"grid group size must be >= 1, got {self.gs}")
        if self.groups < 1:
            raise ContractError(f"group count must be >= 1, got {self.groups}")
        if self.cp % self.groups != 0:
            raise ContractError(
                f"channel width C'={self.cp} is not divisible by G={self.groups}"
            )
        if self.variant == "nonlocal" and (self.gs, self.groups) != (1, 1):
            raise ContractError(
                f"the non-local block takes no grid or channel groups, "
                f"got gs={self.gs}, G={self.groups}"
            )


@dataclass
class OffsetField:
    """Per-position fractional displacements; channel 2k is dy, 2k+1 is dx of sample k."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 4 or arr.shape[1] % 2 != 0:
            raise ShapeError(
                f"offset field must be [n, 2S, h, w] with even channels, got {arr.shape}"
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise ContractError("offset field must be finite")
        self.data = arr

    @property
    def s(self) -> int:
        return self.data.shape[1] // 2


@dataclass
class AttentionWeights:
    """Per-query, per-group distribution over S sampled nodes, [n, N, G, S]; rows sum to 1."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 4:
            raise ShapeError(f"attention weights must be [n, N, G, S], got {arr.shape}")
        tol = 1e-10 if arr.dtype == np.float64 else 1e-5
        sums = arr.sum(axis=-1)
        if arr.size and (np.any(arr < 0) or np.any(np.abs(sums - 1.0) > tol)):
            raise ContractError("attention rows must be distributions summing to 1")
        self.data = arr


@dataclass
class SimpleRepGraphParams:
    theta: Projection1x1
    phi: Projection1x1
    g: Projection1x1
    w_off: Projection1x1
    w_out: Projection1x1  # C' -> C for sum fusion, (C + C') -> C for concat


@dataclass
class BottleneckRepGraphParams:
    reduce: Projection1x1
    bn_reduce: BatchNormParams
    w_off: Projection1x1
    expand: Projection1x1  # C' -> C for sum fusion, 2C' -> C for concat
    bn_expand: BatchNormParams


@dataclass
class NonLocalParams:
    """theta/phi/g map C -> C'; w_out restores C (from C' for sum, C + C' for concat)."""

    theta: Projection1x1
    phi: Projection1x1
    g: Projection1x1
    w_out: Projection1x1

    def __post_init__(self) -> None:
        if not (self.theta.c_out == self.phi.c_out == self.g.c_out):
            raise ShapeError("theta, phi and g must share the projected width C'")


def _proj(rng: Rng, c_out: int, c_in: int, dtype, zero: bool = False) -> Projection1x1:
    if zero:
        return Projection1x1(
            weight=np.zeros((c_out, c_in), dtype=dtype), bias=np.zeros(c_out, dtype=dtype)
        )
    return Projection1x1(
        weight=rng.init_weight((c_out, c_in), fan_in=c_in, dtype=dtype),
        bias=np.zeros(c_out, dtype=dtype),
    )


def init_layer_params(cfg: LayerConfig, rng: Optional[Rng] = None, dtype=np.float64):
    """A new parameter record for ``cfg``'s variant, drawn from ``rng`` or ``Rng(cfg.seed)``."""
    rng = rng if rng is not None else Rng(cfg.seed)
    zero_out = cfg.init_mode == "pretrained_insert"
    if cfg.variant != "bottleneck":
        c_fuse_in = cfg.cp if cfg.fusion == "sum" else cfg.c + cfg.cp
        theta, phi, g = (_proj(rng, cfg.cp, cfg.c, dtype) for _ in range(3))
        if cfg.variant == "nonlocal":
            return NonLocalParams(theta, phi, g,
                                  w_out=_proj(rng, cfg.c, c_fuse_in, dtype, zero=zero_out))
        c_src = cfg.c if cfg.offset_source == "input" else cfg.cp
        return SimpleRepGraphParams(
            theta, phi, g,
            w_off=_proj(rng, 2 * cfg.s, c_src, dtype),
            w_out=_proj(rng, cfg.c, c_fuse_in, dtype, zero=zero_out),
        )
    c_expand_in = cfg.cp if cfg.fusion == "sum" else 2 * cfg.cp
    bn_expand = BatchNormParams.create(cfg.c, dtype=dtype)
    if zero_out:
        bn_expand.gamma = np.zeros(cfg.c, dtype=dtype)
        bn_expand.beta = np.zeros(cfg.c, dtype=dtype)
    return BottleneckRepGraphParams(
        reduce=_proj(rng, cfg.cp, cfg.c, dtype),
        bn_reduce=BatchNormParams.create(cfg.cp, dtype=dtype),
        w_off=_proj(rng, 2 * cfg.s, cfg.cp, dtype),
        expand=_proj(rng, cfg.c, c_expand_in, dtype, zero=zero_out),
        bn_expand=bn_expand,
    )


def param_arrays(params) -> dict[str, np.ndarray]:
    """Trainable arrays of a parameter record, keyed by their tape leaf names.

    A projection field ``f`` gives ``f.w`` and ``f.b``, a batch-norm field
    gives ``f.gamma`` and ``f.beta``.  Batch-norm pairs come first, the order
    checkpoint manifests list them in.  The arrays are the record's own.
    """
    norms: dict[str, np.ndarray] = {}
    projs: dict[str, np.ndarray] = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, BatchNormParams):
            norms[f"{f.name}.gamma"] = value.gamma
            norms[f"{f.name}.beta"] = value.beta
        elif isinstance(value, Projection1x1):
            projs[f"{f.name}.w"] = value.weight
            if value.bias is not None:
                projs[f"{f.name}.b"] = value.bias
    return {**norms, **projs}


def buffer_arrays(params) -> dict[str, np.ndarray]:
    """Batch-norm running statistics of a parameter record: checkpointed, not trained."""
    out: dict[str, np.ndarray] = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, BatchNormParams):
            out[f"{f.name}.running_mean"] = value.running_mean
            out[f"{f.name}.running_var"] = value.running_var
    return out


# ---------------------------------------------------------------------------
# Sampling anchors
# ---------------------------------------------------------------------------


def _anchor_grid(h: int, w: int, stride: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (y, x) anchor coordinates of an h x w grid scaled by ``stride``."""
    ay = np.repeat(np.arange(h, dtype=dtype) * stride, w)
    ax = np.tile(np.arange(w, dtype=dtype) * stride, h)
    return ay, ax


def full_grid_offsets(n: int, h: int, w: int, dtype=np.float64) -> OffsetField:
    """Offsets that make every query sample the entire grid (S = N).

    Sample k of query (i, j) is displaced by (k // w - i, k % w - j), i.e. it
    lands exactly on grid node k; with these offsets the sparse layer
    reproduces the dense baseline.
    """
    qy, qx = _anchor_grid(h, w, 1, dtype)
    dy = qy[:, None] - qy[None, :]
    dx = qx[:, None] - qx[None, :]
    off = np.stack([dy, dx], axis=1).reshape(1, 2 * h * w, h, w)
    return OffsetField(np.broadcast_to(off, (n, 2 * h * w, h, w)).copy())


# ---------------------------------------------------------------------------
# Sparse attention over the sampled node set
# ---------------------------------------------------------------------------


def _attention(theta: Node, key_feats: Node, val_feats: Node,
               groups: int) -> tuple[Node, Node]:
    """theta [n, N, C'], sets [n, N, S, C'] -> (x_tilde [n, N, C'], weights [n, N, G, S]).

    The C' channels split into G groups of C'/G, and each group attends over
    the same S nodes.  The group axis is a contraction axis that sits before
    the sample axis, so the key gradient ``bpgs,bpgc->bpgsc`` runs n*N*G
    matmuls of S x 1 x C'/G rather than n*N*S*G of 1 x 1 x C'/G.
    """
    n, p, cp = theta.value.shape

    def split(feats: Node) -> Node:
        s, c = feats.value.shape[2:]
        return ag.transpose(ag.reshape(feats, (n, p, s, groups, c // groups)), (0, 1, 3, 2, 4))

    keys = split(key_feats)
    vals = keys if val_feats is key_feats else split(val_feats)
    logits = ag.einsum2("bpgc,bpgsc->bpgs", ag.reshape(theta, (n, p, groups, cp // groups)), keys)
    weights = ops.softmax_node(logits)
    x_tilde = ag.einsum2("bpgs,bpgsc->bpgc", weights, vals)
    return ag.reshape(x_tilde, (n, p, cp)), weights


# ---------------------------------------------------------------------------
# Shared forward assembly
# ---------------------------------------------------------------------------


def _flatten_map(x: Node) -> Node:
    n, c, h, w = x.value.shape
    return ag.transpose(ag.reshape(x, (n, c, h * w)), (0, 2, 1))


def _unflatten_map(x: Node, h: int, w: int) -> Node:
    n, p, c = x.value.shape
    return ag.reshape(ag.transpose(x, (0, 2, 1)), (n, c, h, w))


def _positions_node(off: Node, anchor_y: np.ndarray, anchor_x: np.ndarray) -> tuple[Node, Node]:
    """Sampling positions (py, px), each C-contiguous [n, P, S]: node-major."""
    n, two_s, hg, wg = off.value.shape
    s = two_s // 2
    # Transposed before the narrow, so each narrow copies its half straight
    # into the node-major layout.
    r = ag.transpose(ag.reshape(off, (n, s, 2, hg * wg)), (0, 3, 1, 2))
    dy = ag.reshape(ag.narrow(r, 3, 0, 1), (n, hg * wg, s))
    dx = ag.reshape(ag.narrow(r, 3, 1, 1), (n, hg * wg, s))
    return ag.add_const(dy, anchor_y[None, :, None]), ag.add_const(dx, anchor_x[None, :, None])


def _sample_node(branch: Node, py: Node, px: Node) -> Node:
    """Bilinear-sample a branch map into the [n, P, S, C] representative layout."""
    n = branch.value.shape[0]
    return ops.bilinear_node(branch, py, px, np.arange(n)[:, None, None])


def _repgraph_core(
    offset_src: Node,
    theta_map: Node,
    phi_map: Node,
    g_map: Node,
    p: dict,
    cfg: LayerConfig,
    offsets: Optional[OffsetField],
    collect: Optional[dict],
) -> Node:
    """Offsets -> sampling -> sparse attention; returns x_tilde as an [n, Cb, h, w] map.

    ``cfg.gs`` > 1 switches to grid mode: offsets are regressed from the pooled
    source, one sampled set is anchored at each group's left-top pixel, and
    every position in a group shares that set while keeping its own query row.
    """
    n, _, h, w = theta_map.value.shape
    dtype = theta_map.value.dtype
    gs = cfg.gs

    if offsets is not None:
        if offsets.s != cfg.s:
            raise ShapeError(f"offset field carries S={offsets.s}, config says S={cfg.s}")
        expected = (-(-h // gs), -(-w // gs))
        if offsets.data.shape[2:] != expected:
            raise ShapeError(
                f"offset field spatial shape {offsets.data.shape[2:]} does not match "
                f"the query grid {expected}"
            )
        off = offset_src.tape.constant(offsets.data.astype(dtype, copy=False))
    else:
        src = ops.avg_pool_node(offset_src, gs) if gs > 1 else offset_src
        off = _project(src, p, "w_off")
        if off.value.shape[1] != 2 * cfg.s:
            raise ContractError(
                f"offset projection gives {off.value.shape[1]} channels, "
                f"S={cfg.s} needs {2 * cfg.s}"
            )

    hg, wg = off.value.shape[2], off.value.shape[3]
    ay, ax = _anchor_grid(hg, wg, gs, dtype)
    py, px = _positions_node(off, ay, ax)

    key_feats = _sample_node(phi_map, py, px)
    val_feats = key_feats if g_map is phi_map else _sample_node(g_map, py, px)

    if gs > 1:
        row = np.arange(h) // gs
        col = np.arange(w) // gs
        gidx = (row[:, None] * wg + col[None, :]).reshape(-1)
        key_feats = ag.gather_last(key_feats, gidx, axis=1)
        val_feats = key_feats if g_map is phi_map else ag.gather_last(val_feats, gidx, axis=1)

    x_tilde, weights = _attention(_flatten_map(theta_map), key_feats, val_feats, cfg.groups)
    if collect is not None:
        collect["offsets"] = OffsetField(off.value)
        collect["positions"] = np.stack([py.value.transpose(0, 2, 1),
                                         px.value.transpose(0, 2, 1)], axis=2)
        collect["weights"] = AttentionWeights(weights.value)
    return _unflatten_map(x_tilde, h, w)


def _dense_core(theta: Node, phi: Node, g: Node, collect: Optional[dict]) -> Node:
    """Every query attends over all N positions; returns x_tilde as an [n, C', h, w] map.

    ``collect`` receives the affinity as [n, N, 1, N] weights: one group whose
    N samples are the grid positions in row-major order.
    """
    h, w = theta.value.shape[2:]
    affinity = ops.softmax_node(
        ag.einsum2("bnc,bmc->bnm", _flatten_map(theta), _flatten_map(phi)))
    if collect is not None:
        collect["weights"] = AttentionWeights(affinity.value[:, :, None, :])
    return _unflatten_map(ag.einsum2("bnm,bmc->bnc", affinity, _flatten_map(g)), h, w)


def _bind_params(tape: Tape, params, prefix: str) -> dict[str, Node]:
    """One tape leaf per trainable array, named ``prefix`` + its :func:`param_arrays` key."""
    return {name: tape.leaf(arr, prefix + name) for name, arr in param_arrays(params).items()}


def _project(x: Node, p: dict[str, Node], name: str) -> Node:
    return ops.project_node(x, p[f"{name}.w"], p.get(f"{name}.b"))


def layer_forward_node(tape: Tape, x: Node, params, cfg: LayerConfig, *,
                       training: bool = False, offsets: Optional[OffsetField] = None,
                       collect: Optional[dict] = None, prefix: str = "") -> Node:
    """Record one layer forward on ``tape``; every variant, grid size and group count.

    ``training`` switches the bottleneck's batch norms to batch statistics.
    ``offsets`` replaces the regressed displacement field of a sparse variant;
    ``collect`` receives the attention weights and, from a sparse variant, the
    offsets and sampling positions.
    """
    if x.value.shape[1] != cfg.c:
        raise ShapeError(f"input has {x.value.shape[1]} channels, config says C={cfg.c}")
    if offsets is not None and cfg.variant == "nonlocal":
        raise ContractError("the non-local block samples no nodes, so it takes no offsets")
    p = _bind_params(tape, params, prefix)
    if cfg.variant != "bottleneck":
        # Simple and non-local share the projections and the fusion; only the
        # attention core differs.
        theta = _project(x, p, "theta")
        phi = _project(x, p, "phi")
        g = _project(x, p, "g")
        if cfg.variant == "nonlocal":
            x_tilde = _dense_core(theta, phi, g, collect)
        else:
            offset_src = x if cfg.offset_source == "input" else theta
            x_tilde = _repgraph_core(offset_src, theta, phi, g, p, cfg, offsets, collect)
        if cfg.fusion == "sum":
            return ag.add(_project(x_tilde, p, "w_out"), x)
        return _project(ag.concat([x_tilde, x], axis=1), p, "w_out")

    # Bottleneck: reduce -> sparse attention on the reduced map -> expand ->
    # residual.  The reduced features serve as query, key, and value directly;
    # dedicated projections inside the bottleneck would roughly match the cost
    # of the reduction itself and defeat the design.
    reduced = ops.relu_node(ops.batch_norm_node(
        _project(x, p, "reduce"), p["bn_reduce.gamma"], p["bn_reduce.beta"],
        params.bn_reduce, training))
    x_tilde = _repgraph_core(reduced, reduced, reduced, reduced, p, cfg, offsets, collect)
    expand_in = x_tilde if cfg.fusion == "sum" else ag.concat([x_tilde, reduced], axis=1)
    branch = ops.batch_norm_node(
        _project(expand_in, p, "expand"), p["bn_expand.gamma"], p["bn_expand.beta"],
        params.bn_expand, training)
    out = ag.add(branch, x)
    if cfg.init_mode == "fresh":
        out = ops.relu_node(out)
    return out


def repgraph_forward(x: Tensor4, params, cfg: LayerConfig, *, training: bool = False,
                     offsets: Optional[OffsetField] = None,
                     collect: Optional[dict] = None) -> Tensor4:
    """The layer on a plain feature map; see :func:`layer_forward_node`.

    The forward runs on a tape without gradients, so no backward graph keeps
    its intermediates alive; ``tape`` stays referenced until the call returns.
    """
    tape = Tape(grad=False)
    y = layer_forward_node(tape, tape.leaf(x.data), params, cfg, training=training,
                           offsets=offsets, collect=collect)
    return Tensor4(y.value)


# Named entry points that perfbench traces by name, kept until it traces
# repgraph_forward itself; every other caller uses repgraph_forward.


def simple_repgraph_forward(x: Tensor4, params: SimpleRepGraphParams, cfg: LayerConfig,
                            offsets: Optional[OffsetField] = None,
                            collect: Optional[dict] = None) -> Tensor4:
    return repgraph_forward(x, params, cfg, offsets=offsets, collect=collect)


def bottleneck_repgraph_forward(x: Tensor4, params: BottleneckRepGraphParams,
                                cfg: LayerConfig, training: bool = False,
                                offsets: Optional[OffsetField] = None,
                                collect: Optional[dict] = None) -> Tensor4:
    return repgraph_forward(x, params, cfg, training=training, offsets=offsets,
                            collect=collect)
