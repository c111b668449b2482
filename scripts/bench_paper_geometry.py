#!/usr/bin/env python3
"""One no-grad forward of the dense block and both sparse layers at the paper's geometry.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/bench_paper_geometry.py

The geometry is ``reproduce_flops_table.py``'s: a 256x128 map, C=2048,
C'=256, S=9, f32, so the input alone is 256 MiB.  Each block draws its input
and parameters, then runs one ``repgraph_forward`` under ``tracemalloc``.
Prints one line per block: the forward's wall time in ms, its tracemalloc
peak in MiB (the input and parameters, drawn before tracing starts, are not
counted), the ``count_flops`` MACs and the achieved GMAC/s.

One run needs about 1 GiB and a minute: ``nl`` alone takes about 35 s on one
core.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repgraph import LayerConfig, Rng, count_flops, init_layer_params, repgraph_forward
from repgraph.flops import block_config

BLOCKS = ("nl", "srg", "brg")
GEOMETRY = dict(h=256, w=128, c=2048, cp=256, s=9)
DTYPE = np.float32


def measure(block: str, h: int, w: int, c: int, cp: int, s: int) -> tuple[float, float, int]:
    """(ms, peak MiB, MACs) of one no-grad forward of ``block`` on a 1 x c x h x w map."""
    cfg = block_config(block, LayerConfig(c=c, cp=cp, s=s))
    rng = Rng(0)
    x = rng.tensor((1, c, h, w), dtype=DTYPE)
    params = init_layer_params(cfg, rng=rng, dtype=DTYPE)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        repgraph_forward(x, params, cfg)
        ms = (time.perf_counter() - t0) * 1e3
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return ms, peak, count_flops(block, h=h, w=w, c=c, cp=cp, s=s).total_macs


def main() -> None:
    g = GEOMETRY
    print(f"{g['h']}x{g['w']}, C={g['c']}, C'={g['cp']}, S={g['s']}, "
          f"{np.dtype(DTYPE).name}, one no-grad forward per block")
    for block in BLOCKS:
        ms, peak, macs = measure(block, **g)
        print(f"{block:>4}: {ms:10.1f} ms, peak {peak:8.2f} MiB, {macs:,d} MACs, "
              f"{macs / ms / 1e6:.3f} GMAC/s")


if __name__ == "__main__":
    main()
