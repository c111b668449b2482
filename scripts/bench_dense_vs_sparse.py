#!/usr/bin/env python3
"""Wall-clock comparison of the dense baseline against the sparse blocks.

Times all five blocks (nl, srg, brg, grid, group) and prints each block's
peak memory and each sparse block's median as a ratio to nl's at the same
geometry.  Writes bench_results.csv next to this script; medians are
machine-specific, so read the block-to-block ratios rather than the absolute
milliseconds.
"""

import pathlib

from repgraph import LayerConfig
from repgraph.bench import run_benchmark, write_bench_csv

BLOCKS = ["nl", "srg", "brg", "grid", "group"]
SIZES = [(64, 32), (128, 64), (256, 128)]
LAYER = LayerConfig(c=256, cp=64, s=9, gs=2, groups=2)


def main() -> None:
    results, skips = run_benchmark(BLOCKS, SIZES, LAYER, repeats=5, warmup=2, dtype="f32")
    out = pathlib.Path(__file__).parent / "bench_results.csv"
    write_bench_csv(results, out)
    dense = {(r.h, r.w): r.median_ms for r in results if r.block == "nl"}
    for r in results:
        line = (f"{r.block:>5} {r.h}x{r.w}: {r.median_ms:9.2f} ms (iqr {r.iqr_ms:.2f}), "
                f"peak {r.peak_mib:6.1f} MiB")
        if r.block != "nl" and (r.h, r.w) in dense:
            line += f"  {r.block}/nl = {r.median_ms / dense[r.h, r.w]:.3f}"
        print(line)
    for s in skips:
        print(f"skipped {s.block} at {s.h}x{s.w}: {s.reason}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
