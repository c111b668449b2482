#!/usr/bin/env python3
"""Median time and peak memory of one forward plus backward per block.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/bench_grad_step.py 32x16 64x32

Each block (nl, srg, brg, grid, group) is ``flops.block_config`` of
``LAYER`` (c=256, C'=64, S=9, gs=2, G=2), the layer of
``bench_dense_vs_sparse.py``.  At every size given as HxW, each block draws
a 1 x C x H x W f32 input, its parameters and a random probe of the
output's shape from ``Rng(0)``.  A step records ``layer_forward_node`` in
training mode on a tape with gradients and runs ``backward`` of the probe's
weighted sum, as a training step of the layer would.  After ``WARMUP`` untimed steps, ``REPEATS`` steps are timed with
``repgraph.bench.time_callable``; then one more step runs under
``tracemalloc`` (``repgraph.bench.peak_mib``), which does not count the
input, the parameters or the probe.

Prints one line per size and block: the median ms and the peak in MiB.
"""

from __future__ import annotations

import argparse

import numpy as np

from repgraph import LayerConfig, Rng, init_layer_params
from repgraph.autograd import Tape, backward, weighted_sum
from repgraph.bench import peak_mib, time_callable
from repgraph.flops import BLOCKS, block_config
from repgraph.layer import layer_forward_node

LAYER = LayerConfig(c=256, cp=64, s=9, gs=2, groups=2)
DTYPE = np.float32
REPEATS = 3
WARMUP = 1


def make_step(cfg: LayerConfig, h: int, w: int):
    """A function that runs one forward plus backward of ``cfg`` on a fixed input."""
    rng = Rng(0)
    x = rng.tensor((1, cfg.c, h, w), dtype=DTYPE).data
    params = init_layer_params(cfg, rng=rng, dtype=DTYPE)
    probe = rng.uniform(-1, 1, x.shape, dtype=DTYPE)

    def step() -> None:
        tape = Tape()
        y = layer_forward_node(tape, tape.leaf(x), params, cfg, training=True)
        backward(weighted_sum(y, probe))

    return step


def parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"size must be HxW, got {text!r}") from None
    if min(h, w) < 1:
        raise argparse.ArgumentTypeError(f"size must be positive, got {text!r}")
    return h, w


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sizes", type=parse_size, nargs="+", metavar="HxW")
    args = p.parse_args(argv)
    layer = LAYER
    print(f"C={layer.c}, C'={layer.cp}, S={layer.s}, gs={layer.gs}, G={layer.groups}, "
          f"{np.dtype(DTYPE).name}, one forward plus backward per block")
    for h, w in args.sizes:
        for block in BLOCKS:
            step = make_step(block_config(block, layer), h, w)
            median_ms, _ = time_callable(step, REPEATS, WARMUP)
            print(f"{block:>5} {h}x{w}: median {median_ms:9.2f} ms over {REPEATS}, "
                  f"peak {peak_mib(step):7.2f} MiB")


if __name__ == "__main__":
    main()
