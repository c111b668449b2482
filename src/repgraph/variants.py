"""Extended layer instantiations: spatial grid grouping and channel grouping.

Grid mode shares one sampled node set per g_s x g_s spatial group (anchored
at the group's left-top pixel, offsets regressed from the pooled map) while
every position keeps its own query row.  Group mode splits the C' channels
into G groups and runs the attention independently per group.  Both are
fields of :class:`LayerConfig` and reduce bit-exactly to the base layer at
g_s = 1 / G = 1.  The entry points below, which perfbench traces by name and
nothing else calls, set one of them on a base config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .layer import LayerConfig, OffsetField, repgraph_forward
from .tensor import Tensor4


@dataclass(frozen=True)
class GridConfig:
    """g_s is the spatial group edge: g_s = 5 merges 5 x 5 elements into one graph node."""

    gs: int


@dataclass(frozen=True)
class GroupConfig:
    """Number of channel groups G; must divide the projected width C'."""

    groups: int


def grid_repgraph_forward(x: Tensor4, params, cfg: LayerConfig, grid: GridConfig,
                          training: bool = False, offsets: Optional[OffsetField] = None,
                          collect: Optional[dict] = None) -> Tensor4:
    return repgraph_forward(x, params, replace(cfg, gs=grid.gs), training=training,
                            offsets=offsets, collect=collect)


def group_repgraph_forward(x: Tensor4, params, cfg: LayerConfig, grp: GroupConfig,
                           training: bool = False, offsets: Optional[OffsetField] = None,
                           collect: Optional[dict] = None) -> Tensor4:
    return repgraph_forward(x, params, replace(cfg, groups=grp.groups), training=training,
                            offsets=offsets, collect=collect)
