#!/usr/bin/env python3
"""Forward and backward medians of the bilinear sampler, swept over its block size.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/bench_sampler.py

Times ``ops.bilinear_node`` and its recorded backward rule at two
geometries: that of the ``sparse_fwd`` benchmark workload (a 1x64x128x64 f32
map, S = 9 samples per position) and that of ``train_step`` (4x8x32x32,
f64).  Positions scatter up to two pixels around every map position, as a
layer's regressed offsets do, so a few land off the map.  The block size
``ops._BLOCK_BYTES`` is set to every size in ``--kib`` in turn within each
repeat, so a drift in the machine's speed spreads over all sizes alike; the
sampler's output does not depend on it.

A block is a run of positions whose sampler rows fill ``_BLOCK_BYTES``.  The
forward gathers four taps per position, so its blocks hold a quarter of the
positions the backward's do, whose rows are one output-gradient row each.
Prints one line per geometry and block size, with the positions per forward
and per backward block and the two medians.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repgraph import ops
from repgraph.autograd import Tape

# name -> (n, c, h, w, samples per position, dtype)
GEOMETRIES = {
    "sparse_fwd": (1, 64, 128, 64, 9, np.float32),
    "train_step": (4, 8, 32, 32, 9, np.float64),
}
BLOCK_KIB = (128, 256, 512, 1024, 2048, 4096)


def make_inputs(n, c, h, w, s, dtype):
    """A random map, node-major [n, h*w, s] positions and their batch index."""
    rng = np.random.default_rng(0)
    data = rng.standard_normal((n, c, h, w)).astype(dtype)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    py = yy.reshape(1, -1, 1) + rng.uniform(-2, 2, (n, h * w, s))
    px = xx.reshape(1, -1, 1) + rng.uniform(-2, 2, (n, h * w, s))
    return data, py.astype(dtype), px.astype(dtype), np.arange(n)[:, None, None]


def time_sampler(data, py, px, b):
    """Forward and backward ms of one ``bilinear_node`` call."""
    tape = Tape()
    x, ny, nx = tape.leaf(data), tape.leaf(py), tape.leaf(px)
    g = np.random.default_rng(1).standard_normal(py.shape + (data.shape[1],)).astype(data.dtype)
    t0 = time.perf_counter()
    out = ops.bilinear_node(x, ny, nx, b)
    t1 = time.perf_counter()
    out.backward_fn(g)
    t2 = time.perf_counter()
    return (t1 - t0) * 1e3, (t2 - t1) * 1e3


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--geometry", choices=sorted(GEOMETRIES), action="append",
                   help="geometry to time (default: both)")
    p.add_argument("--kib", type=int, nargs="+", default=BLOCK_KIB,
                   help="block sizes to sweep, in KiB")
    p.add_argument("--repeats", type=int, default=15)
    args = p.parse_args(argv)
    saved = ops._BLOCK_BYTES
    try:
        for name in args.geometry or sorted(GEOMETRIES):
            n, c, h, w, s, dtype = GEOMETRIES[name]
            inputs = make_inputs(n, c, h, w, s, dtype)
            times = {kib: [] for kib in args.kib}
            for rep in range(args.repeats + 1):
                for kib in args.kib:
                    ops._BLOCK_BYTES = kib * 1024
                    t = time_sampler(*inputs)
                    if rep:  # the first round warms up: page faults, lazy set-up
                        times[kib].append(t)
            for kib, ts in times.items():
                fwd, bwd = (statistics.median(col) for col in zip(*ts))
                ops._BLOCK_BYTES = kib * 1024
                fwd_len = ops._block_len(ops._TAPS * c, dtype)
                bwd_len = ops._block_len(c, dtype)
                print(f"{name:>10} {n}x{c}x{h}x{w} S={s} {np.dtype(dtype).name}"
                      f"  block {kib:5d} KiB, {fwd_len} fwd / {bwd_len} bwd positions:"
                      f" forward {fwd:7.2f} ms, backward {bwd:7.2f} ms")
    finally:
        ops._BLOCK_BYTES = saved


if __name__ == "__main__":
    main()
