"""Closed-form multiply-accumulate accounting for every block.

Convention: 1 MAC = 1 FLOP.  Counts are exact integers from the formulas
below, never measurements; biases, the softmax, and pooling adds are not
MACs and are excluded.  Reports carry a per-suboperation breakdown so any
alternative composition can be summed from the parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

MAC_CONVENTION = "1 MAC = 1 FLOP; bias adds, softmax and pooling excluded"

BLOCKS = ("nl", "srg", "brg", "grid", "group")

_ATTENTION_PARTS = ("attn_logits", "attn_aggregate")


@dataclass
class FlopsReport:
    block: str
    geometry: dict
    parts: list = field(default_factory=list)
    convention: str = MAC_CONVENTION

    @property
    def total_macs(self) -> int:
        return sum(macs for _, macs in self.parts)

    @property
    def gflops(self) -> float:
        return self.total_macs / 1e9

    @property
    def attention_core_macs(self) -> int:
        return sum(macs for label, macs in self.parts if label in _ATTENTION_PARTS)

    def __str__(self) -> str:
        lines = [f"{self.block}: {self.gflops:.2f} GFLOPs ({self.convention})"]
        for label, macs in self.parts:
            lines.append(f"  {label:<16} {macs:>16,d}")
        return "\n".join(lines)


def count_flops(block: str, h: int, w: int, c: int, cp: int, s: int = 9,
                gs: int = 1, groups: int = 1, fusion: str = "sum",
                n: int = 1) -> FlopsReport:
    """Exact MAC counts per suboperation for one forward pass.

    Projections cost n*h*w*c_in*c_out; dense attention 2*N^2*C'; sparse
    attention 2*N*S*C'; offset regression N*C_src*2S; bilinear sampling
    4 MACs per sampled value channel.  ``grid`` and ``group`` count the
    bottleneck-based variants.
    """
    if min(h, w, c, cp, s, gs, groups, n) < 1:
        raise ContractError("geometry fields must be positive")
    if fusion not in ("sum", "concat"):
        raise ContractError(f"unknown fusion {fusion!r}")
    block = block.lower()
    N = h * w
    geometry = dict(h=h, w=w, c=c, cp=cp, s=s, gs=gs, groups=groups,
                    fusion=fusion, n=n)

    if block in ("nl", "srg"):
        # The dense block is the simple layer with every query attending over
        # all k = N positions, so it regresses and samples nothing.
        k = N if block == "nl" else s
        fuse_in = cp if fusion == "sum" else c + cp
        parts = [(f"{name}_proj", n * N * c * cp) for name in ("theta", "phi", "g")]
        if block == "srg":
            parts += [
                ("offset_conv", n * N * c * 2 * s),
                ("sample_key", 4 * n * N * s * cp),
                ("sample_value", 4 * n * N * s * cp),
            ]
        parts += [
            ("attn_logits", n * N * k * cp),
            ("attn_aggregate", n * N * k * cp),
            ("fusion_out", n * N * fuse_in * c),
        ]
    elif block in ("brg", "grid", "group"):
        # The bottleneck reuses its reduced map as query, key and value, so
        # one shared sampled set is interpolated per offset site.
        G = math.ceil(h / gs) * math.ceil(w / gs) if block == "grid" else N
        expand_in = cp if fusion == "sum" else 2 * cp
        parts = [
            ("reduce_proj", n * N * c * cp),
            ("offset_conv", n * G * cp * 2 * s),
            ("sample_shared", 4 * n * G * s * cp),
            ("attn_logits", n * N * s * cp),
            ("attn_aggregate", n * N * s * cp),
            ("expand_proj", n * N * expand_in * c),
        ]
    else:
        raise ContractError(f"unknown block {block!r}; expected one of {BLOCKS}")

    return FlopsReport(block=block, geometry=geometry, parts=parts)


def fit_scaling_exponent(block: str, n_values, c: int, cp: int, s: int = 9) -> float:
    """Log-log slope of attention-core MACs against N over square geometries."""
    sizes = []
    macs = []
    for n_nodes in n_values:
        side = int(round(math.sqrt(n_nodes)))
        if side * side != n_nodes:
            raise ContractError(f"N={n_nodes} is not a perfect square")
        report = count_flops(block, side, side, c, cp, s=s)
        sizes.append(n_nodes)
        macs.append(report.attention_core_macs)
    slope = np.polyfit(np.log(sizes), np.log(macs), 1)[0]
    return float(slope)


def write_flops_csv(report: FlopsReport, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "suboperation", "macs"])
        for label, macs in report.parts:
            writer.writerow([report.block, label, macs])
