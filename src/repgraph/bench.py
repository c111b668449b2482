"""Wall-clock microbenchmarks of block forward passes.

Medians over repeated runs on identical inputs, and the tracemalloc peak of
one more untimed run; absolute milliseconds depend on the machine, so claims
are expressed as ratios between blocks.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import ops
from .config import write_csv
from .errors import ContractError
from .flops import BLOCKS, block_config
from .layer import LayerConfig, _query_spans, _span_plan, init_layer_params, repgraph_forward
from .tensor import Rng

_DTYPES = {"f32": np.float32, "f64": np.float64}
# Sizes whose estimated working set exceeds this are skipped, not run.
_MEM_BUDGET_BYTES = 8 << 30


@dataclass
class BenchResult:
    block: str
    h: int
    w: int
    c: int
    cp: int
    s: int
    dtype: str
    median_ms: float
    iqr_ms: float
    peak_mib: float
    repeats: int


@dataclass
class BenchSkip:
    block: str
    h: int
    w: int
    reason: str


def _estimate_bytes(cfg: LayerConfig, h: int, w: int, itemsize: int) -> int:
    """Upper bound on the peak of one forward: four [N, C] maps, two sampler blocks
    of slack, and the working set of the longest query span the core runs: its
    logits, which the softmax overwrites (dense), or its sampled sets (sparse)."""
    plan = _span_plan(cfg, 1, h, w, itemsize)  # (units, unit_bytes, budget, min_units)
    _, rows = _query_spans(*plan)[0]  # the first span, (0, rows), is the longest
    return rows * plan[1] + 4 * h * w * max(cfg.c, cfg.cp) * itemsize + 2 * ops._BLOCK_BYTES


def _make_forward(cfg: LayerConfig, h: int, w: int, dtype, seed: int):
    rng = Rng(seed)
    x = rng.tensor((1, cfg.c, h, w), dtype=dtype)
    params = init_layer_params(cfg, rng=rng, dtype=dtype)
    return lambda: repgraph_forward(x, params, cfg)


def run_benchmark(blocks, sizes, layer: LayerConfig, repeats: int = 5, warmup: int = 2,
                  dtype: str = "f32", seed: int = 0,
                  ) -> tuple[list[BenchResult], list[BenchSkip]]:
    """Time forward passes of ``layer`` per block and (h, w) size.

    Every block at one size sees the identical input, drawn from
    ``Rng(seed)`` before the block's parameters.  Each block runs its
    :func:`~repgraph.flops.block_config` of ``layer``, which refuses an
    unknown name.  After timing, one more call measures the block's peak memory.
    Sizes whose estimated working set exceeds ``_MEM_BUDGET_BYTES`` are
    skipped with the reason recorded.
    """
    if not blocks:
        raise ContractError(f"no block to run; expected one or more of {BLOCKS}")
    if repeats < 5:
        raise ContractError(f"repeats must be >= 5, got {repeats}")
    if warmup < 2:
        raise ContractError(f"warmup must be >= 2, got {warmup}")
    if dtype not in _DTYPES:
        raise ContractError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    np_dtype = _DTYPES[dtype]
    results: list[BenchResult] = []
    skips: list[BenchSkip] = []
    for h, w in sizes:
        if min(h, w) < 1:
            raise ContractError(f"map size must be positive, got {h}x{w}")
        for block in blocks:
            cfg = block_config(block, layer)
            need = _estimate_bytes(cfg, h, w, np.dtype(np_dtype).itemsize)
            if need > _MEM_BUDGET_BYTES:
                reason = f"estimated {need / 2**30:.2f} GiB exceeds budget"
                skips.append(BenchSkip(block, h, w, reason))
                print(f"skip {block} at {h}x{w}: {reason}", file=sys.stderr)
                continue
            forward = _make_forward(cfg, h, w, np_dtype, seed)
            median_ms, iqr_ms = time_callable(forward, repeats, warmup)
            results.append(BenchResult(
                block=block, h=h, w=w, c=layer.c, cp=layer.cp, s=layer.s, dtype=dtype,
                median_ms=median_ms, iqr_ms=iqr_ms, peak_mib=peak_mib(forward),
                repeats=repeats,
            ))
    return results, skips


def time_callable(fn, repeats: int, warmup: int) -> tuple[float, float]:
    """(median_ms, iqr_ms) of ``fn()`` wall time after warmup runs."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    arr = np.asarray(times)
    return float(np.median(arr)), float(np.percentile(arr, 75) - np.percentile(arr, 25))


def peak_mib(fn) -> float:
    """Peak tracemalloc memory of one ``fn()`` call in MiB; numpy reports its
    array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def write_bench_csv(results, path) -> None:
    write_csv(path, ["block", "h", "w", "c", "cp", "s", "dtype",
                     "median_ms", "iqr_ms", "peak_mib", "repeats"],
              ([r.block, r.h, r.w, r.c, r.cp, r.s, r.dtype, f"{r.median_ms:.4f}",
                f"{r.iqr_ms:.4f}", f"{r.peak_mib:.2f}", r.repeats] for r in results))
