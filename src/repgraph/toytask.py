"""Synthetic per-pixel classification task for the toy trainer.

32x32 images with 3-5 axis-aligned rectangles over a textured background;
each rectangle belongs to one of three foreground classes with a noisy class
color, and the label map assigns the rectangle class per pixel (0 is
background).  Noise levels are tuned so a purely local model plateaus below
the attention-equipped one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ContractError
from .tensor import Rng

CLASS_COLORS = np.array(
    [
        [0.20, 0.20, 0.20],  # background
        [0.85, 0.30, 0.30],
        [0.30, 0.85, 0.30],
        [0.30, 0.30, 0.85],
    ]
)


@dataclass(frozen=True)
class ToyTaskConfig:
    """Image size and rectangle sides; construction validates them.

    The class count is the color table's, background included.
    """

    num_classes: ClassVar[int] = CLASS_COLORS.shape[0]
    min_rects: ClassVar[int] = 3
    max_rects: ClassVar[int] = 5
    pixel_noise: ClassVar[float] = 0.45
    background_wobble: ClassVar[float] = 0.08

    size: int = 32
    min_side: int = 8
    max_side: int = 16
    # Optional per-image color shift; local operators cannot undo one, so
    # raising it stresses long-range references.  Off by default: at 0 the
    # rng draw is still consumed, keeping data streams comparable.
    global_shift: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.size < 4:
            raise ContractError(f"toy task size must be >= 4, got {self.size}")
        if not 1 <= self.min_side <= self.max_side <= self.size:
            raise ContractError(
                f"rectangle sides need 1 <= min_side <= max_side <= size, got "
                f"min_side={self.min_side}, max_side={self.max_side}, size={self.size}"
            )


def make_batch(rng: Rng, batch: int,
               cfg: ToyTaskConfig = ToyTaskConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Returns (images [b, 3, s, s] f64, labels [b, s, s] int64)."""
    s = cfg.size
    images = np.empty((batch, 3, s, s))
    labels = np.zeros((batch, s, s), dtype=np.int64)
    yy = np.arange(s)[:, None]
    xx = np.arange(s)[None, :]
    for b in range(batch):
        label = np.zeros((s, s), dtype=np.int64)
        gx, gy = rng.uniform(-1.0, 1.0, 2)
        base = CLASS_COLORS[0][:, None, None] + cfg.background_wobble * (
            gx * (xx / s) + gy * (yy / s)
        )[None, :, :]
        img = np.broadcast_to(base, (3, s, s)).copy()
        n_rects = int(rng.integers(cfg.min_rects, cfg.max_rects + 1))
        for _ in range(n_rects):
            rh = int(rng.integers(cfg.min_side, cfg.max_side + 1))
            rw = int(rng.integers(cfg.min_side, cfg.max_side + 1))
            y0 = int(rng.integers(0, s - rh + 1))
            x0 = int(rng.integers(0, s - rw + 1))
            klass = int(rng.integers(1, cfg.num_classes))
            label[y0 : y0 + rh, x0 : x0 + rw] = klass
            img[:, y0 : y0 + rh, x0 : x0 + rw] = CLASS_COLORS[klass][:, None, None]
        img = img + rng.normal(cfg.pixel_noise, (3, s, s))
        img = img + rng.uniform(-cfg.global_shift, cfg.global_shift, 3)[:, None, None]
        images[b] = img
        labels[b] = label
    return images, labels
