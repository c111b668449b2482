"""Independent references for the layer's grid and group modes.

``naive_grid_forward`` loops over the spatial groups and attends per
position with plain matrix code; ``slice_dispatch_oracle`` slices the
channels and runs the attention once per slice.  Both build the branch maps
and the fusion from public projections and plain numpy, for the simple and
bottleneck variants and both fusions.
"""

import numpy as np

from repgraph import Tensor4, project_1x1, softmax_rows
from repgraph.autograd import Tape
from repgraph.layer import _attention, _positions_node
from repgraph.ops import avg_pool_node, bilinear_node


def bilinear_sample(x, positions):
    """Sample fractional positions [(batch, y, x), ...] through ``bilinear_node``; [len, c]."""
    pos = np.asarray(positions, dtype=np.float64)
    tape = Tape()
    return bilinear_node(tape.leaf(x), tape.leaf(pos[:, 1]),
                         tape.leaf(pos[:, 2]), pos[:, 0].astype(np.int64)).value


def _project(x, proj):
    return project_1x1(Tensor4(x), proj).data


def _eval_batch_norm(z, bn):
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
    return ((z - bn.running_mean[:, None, None]) * inv[:, None, None]
            * bn.gamma[:, None, None] + bn.beta[:, None, None])


def layer_maps(x, params, cfg):
    """(theta, phi, g, offset source) maps of the layer on ``x``, in eval mode."""
    if cfg.variant == "bottleneck":
        reduced = np.maximum(_eval_batch_norm(_project(x.data, params.reduce),
                                              params.bn_reduce), 0.0)
        return reduced, reduced, reduced, reduced
    theta, phi, g = (_project(x.data, p) for p in (params.theta, params.phi, params.g))
    return theta, phi, g, x.data


def fuse(x, params, cfg, x_tilde, theta):
    """The layer output from the attention result ``x_tilde`` [n, C', h, w]."""
    if cfg.variant == "bottleneck":
        # The bottleneck's query map is its reduced map.
        expand_in = x_tilde if cfg.fusion == "sum" else np.concatenate([x_tilde, theta], 1)
        out = _eval_batch_norm(_project(expand_in, params.expand), params.bn_expand) + x.data
        return np.maximum(out, 0.0) if cfg.init_mode == "fresh" else out
    if cfg.fusion == "sum":
        return _project(x_tilde, params.w_out) + x.data
    return _project(np.concatenate([x_tilde, x.data], 1), params.w_out)


def naive_grid_forward(x, params, cfg, gs):
    """Loop-based reference for the grid variant with group edge ``gs``.

    Materializes each group's sampled key/value set explicitly and runs the
    per-position attention with plain matrix code.
    """
    n, c, h, w = x.shape
    theta, phi, g, src = layer_maps(x, params, cfg)
    tape = Tape()
    off = _project(avg_pool_node(tape.leaf(src), gs).value, params.w_off)
    hg, wg = off.shape[2], off.shape[3]
    out = np.zeros((n, cfg.cp, h, w))
    for b in range(n):
        for gi in range(hg):
            for gj in range(wg):
                ay, ax = gi * gs, gj * gs
                positions = [
                    (b, ay + off[b, 2 * k, gi, gj], ax + off[b, 2 * k + 1, gi, gj])
                    for k in range(cfg.s)
                ]
                keys = bilinear_sample(phi, positions)  # [s, cp]
                vals = bilinear_sample(g, positions)
                for i in range(ay, min(ay + gs, h)):
                    for j in range(ax, min(ax + gs, w)):
                        weights = softmax_rows(keys @ theta[b, :, i, j])
                        out[b, :, i, j] = weights @ vals
    return fuse(x, params, cfg, out, theta)


def slice_dispatch_oracle(x, params, cfg, groups):
    """Slice the channels into ``groups`` and call the attention per slice.

    Returns the layer output and each slice's [n, N, 1, S] weights.
    """
    theta_map, phi_map, g_map, src = layer_maps(x, params, cfg)
    off = _project(src, params.w_off)
    n, c, h, w = x.shape
    tape = Tape()
    py, px = _positions_node(tape.leaf(off), np.repeat(np.arange(h, dtype=float), w),
                             np.tile(np.arange(w, dtype=float), h))
    batch = np.arange(n)[:, None, None]
    key = bilinear_node(tape.leaf(phi_map), py, px, batch).value
    val = bilinear_node(tape.leaf(g_map), py, px, batch).value
    theta = theta_map.reshape(n, cfg.cp, h * w).transpose(0, 2, 1)
    width = cfg.cp // groups
    parts = []
    slice_weights = []
    for gi in range(groups):
        sl = slice(gi * width, (gi + 1) * width)
        xt, weights = _attention(tape.leaf(theta[:, :, sl]), tape.leaf(key[..., sl]),
                                 tape.leaf(val[..., sl]), groups=1)
        assert np.abs(weights.value.sum(axis=-1) - 1.0).max() < 1e-10
        parts.append(xt.value)
        slice_weights.append(weights.value)
    xt_map = np.concatenate(parts, axis=2).transpose(0, 2, 1).reshape(n, cfg.cp, h, w)
    return fuse(x, params, cfg, xt_map, theta_map), slice_weights
