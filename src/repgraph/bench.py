"""Wall-clock microbenchmarks of block forward passes.

Medians over repeated runs on identical inputs; absolute milliseconds depend
on the machine, so claims are expressed as ratios between blocks.
"""

from __future__ import annotations

import csv
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .flops import BLOCKS
from .layer import LayerConfig, init_layer_params, repgraph_forward
from .nonlocal_block import init_nonlocal_params, nonlocal_forward
from .tensor import Rng, Tensor4

_DTYPES = {"f32": np.float32, "f64": np.float64}


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
    repeats: int


@dataclass
class BenchSkip:
    block: str
    h: int
    w: int
    reason: str


def _estimate_bytes(block: str, h: int, w: int, c: int, cp: int, s: int, itemsize: int) -> int:
    n_nodes = h * w
    if block == "nl":
        work = 3 * n_nodes * n_nodes  # logits + softmax + backprop-free slack
    else:
        work = 12 * n_nodes * s * cp
    return (work + 8 * n_nodes * max(c, cp)) * itemsize


def _make_forward(block: str, h: int, w: int, c: int, cp: int, s: int,
                  gs: int, groups: int, fusion: str, dtype, seed: int):
    rng = Rng(seed)
    x = rng.tensor((1, c, h, w), dtype=dtype)
    if block == "nl":
        params = init_nonlocal_params(c, cp, fusion=fusion, rng=rng, dtype=dtype)
        return lambda: nonlocal_forward(x, params)
    cfg = LayerConfig(c=c, cp=cp, s=s, variant="simple" if block == "srg" else "bottleneck",
                      fusion=fusion, gs=gs if block == "grid" else 1,
                      groups=groups if block == "group" else 1)
    params = init_layer_params(cfg, rng=rng, dtype=dtype)
    return lambda: repgraph_forward(x, params, cfg)


def run_benchmark(blocks, geometries, s: int = 9, gs: int = 2, groups: int = 2,
                  fusion: str = "sum", repeats: int = 5, warmup: int = 2, dtype: str = "f32",
                  seed: int = 0, mem_budget_bytes: int = 8 << 30,
                  ) -> tuple[list[BenchResult], list[BenchSkip]]:
    """Time forward passes per block and geometry.

    ``geometries`` is a list of (h, w, c, cp) tuples; every block at one
    geometry sees the identical input.  Geometries whose estimated working
    set exceeds ``mem_budget_bytes`` are skipped with the reason recorded.
    """
    if repeats < 5:
        raise ContractError(f"repeats must be >= 5, got {repeats}")
    if warmup < 2:
        raise ContractError(f"warmup must be >= 2, got {warmup}")
    if dtype not in _DTYPES:
        raise ContractError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    np_dtype = _DTYPES[dtype]
    results: list[BenchResult] = []
    skips: list[BenchSkip] = []
    for h, w, c, cp in geometries:
        for block in blocks:
            if block not in BLOCKS:
                raise ContractError(f"unknown block {block!r}; expected one of {BLOCKS}")
            need = _estimate_bytes(block, h, w, c, cp, s, np.dtype(np_dtype).itemsize)
            if need > mem_budget_bytes:
                reason = f"estimated {need / 2**30:.2f} GiB exceeds budget"
                skips.append(BenchSkip(block, h, w, reason))
                print(f"skip {block} at {h}x{w}: {reason}", file=sys.stderr)
                continue
            forward = _make_forward(block, h, w, c, cp, s, gs, groups, fusion, np_dtype, seed)
            median_ms, iqr_ms = time_callable(forward, repeats, warmup)
            results.append(BenchResult(
                block=block, h=h, w=w, c=c, cp=cp, s=s, dtype=dtype,
                median_ms=median_ms, iqr_ms=iqr_ms, repeats=repeats,
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


def write_bench_csv(results, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "h", "w", "c", "cp", "s", "dtype",
                         "median_ms", "iqr_ms", "repeats"])
        for r in results:
            writer.writerow([r.block, r.h, r.w, r.c, r.cp, r.s, r.dtype,
                             f"{r.median_ms:.4f}", f"{r.iqr_ms:.4f}", r.repeats])
