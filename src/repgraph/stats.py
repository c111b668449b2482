"""Distribution statistics of attention weights: histogram, top-k mass, imbalance.

Quantifies how unevenly each query spreads its attention: a Gini-style
coefficient of 0 means perfectly uniform rows, 1 means one-hot rows, and the
top-k mass curves show how few positions carry most of the weight.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .layer import AttentionWeights

# Fixed log-spaced bins from 1e-8 to 1 so histograms from different runs are
# comparable; weights below the range land in an underflow bin starting at 0.
_HIST_EDGES = np.concatenate([[0.0], np.logspace(-8, 0, 24)])


@dataclass
class AffinityStats:
    histogram: list  # (bin_lo, bin_hi, count)
    topk_mass: np.ndarray  # [rows, k] cumulative sorted mass
    imbalance: np.ndarray  # [rows] Gini-style coefficient in [0, 1]
    n_rows: int
    row_len: int
    source: str = ""

    @property
    def mean_imbalance(self) -> float:
        return float(self.imbalance.mean()) if self.imbalance.size else 0.0


def affinity_stats(a, source: str = "") -> AffinityStats:
    """Analyze rows of attention weights: an [N, N] affinity, or [..., S] sampled weights.

    Every axis but the last indexes rows, so the layer's [n, N, G, S] weights,
    as an array or as the :class:`AttentionWeights` a forward collects, give
    n * N * G rows.  Every row must be a probability distribution; rows with
    a non-finite weight or off by more than 1e-6 are rejected.
    """
    rows = np.asarray(a.data if isinstance(a, AttentionWeights) else a, dtype=np.float64)
    if rows.ndim > 2:
        rows = rows.reshape(-1, rows.shape[-1])
    if rows.ndim != 2 or rows.size == 0:
        raise ValidationError(f"expected a non-empty matrix of weight rows, got shape {np.shape(a)}")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValidationError(f"row {bad[0]} holds a non-finite weight, not a distribution")
    sums = rows.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if bad.size:
        raise ValidationError(
            f"row {bad[0]} sums to {sums[bad[0]]:.8f}, not a distribution"
        )
    if np.any(rows < -1e-9):
        raise ValidationError("weight rows contain negative entries")
    rows = np.clip(rows, 0.0, None)
    r, k = rows.shape

    counts, edges = np.histogram(rows, bins=_HIST_EDGES)
    histogram = [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    ]

    ascending = np.sort(rows, axis=1)
    topk = np.cumsum(ascending[:, ::-1], axis=1)

    if k == 1:
        imbalance = np.zeros(r)
    else:
        # Gini of a distribution row, rescaled so one-hot rows score exactly 1.
        ranks = 2.0 * np.arange(1, k + 1) - k - 1
        imbalance = (ascending * ranks).sum(axis=1) / (k - 1)

    return AffinityStats(
        histogram=histogram,
        topk_mass=topk,
        imbalance=imbalance,
        n_rows=r,
        row_len=k,
        source=source,
    )


def write_affinity_csv(stats: AffinityStats, base_path) -> tuple[str, str]:
    """Emit <base>_hist.csv (bin_lo,bin_hi,count) and <base>_topk.csv (row,k,mass)."""
    base = str(base_path)
    hist_path = f"{base}_hist.csv"
    topk_path = f"{base}_topk.csv"
    with open(hist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in stats.histogram:
            writer.writerow([f"{lo:.12g}", f"{hi:.12g}", count])
    with open(topk_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "k", "mass"])
        for row in range(stats.n_rows):
            for kk in range(stats.row_len):
                writer.writerow([row, kk + 1, f"{stats.topk_mass[row, kk]:.12g}"])
    return hist_path, topk_path
