"""Dense rank-4 tensors in batch-channel-height-width layout.

Everything downstream treats feature maps as (n, c, h, w) arrays whose
h*w grid flattens row-major into N = h*w graph nodes.  f64 is the test
dtype, f32 the benchmark dtype; both run through the same kernels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    LengthMismatchError,
    MalformedHeaderError,
    ShapeError,
    TensorIOError,
)

MAGIC = b"RGT4\x00\x00\x00\x01"
_DTYPE_TAGS = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_TAG_FOR_DTYPE = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}


@dataclass
class Tensor4:
    """Immutable (n, c, h, w) array of finite floats.

    The wrapped buffer is marked read-only; treat instances as values and
    share them freely across threads.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 requires a rank-4 array, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.size and not np.all(np.isfinite(arr)):
            raise ContractError("Tensor4 values must be finite (no NaN/Inf)")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def num_nodes(self) -> int:
        """N = h * w, the node count of the flattened spatial grid."""
        return self.data.shape[2] * self.data.shape[3]

    @classmethod
    def zeros(cls, shape, dtype=np.float64) -> "Tensor4":
        return cls(np.zeros(shape, dtype=dtype))

    @classmethod
    def full(cls, shape, value, dtype=np.float64) -> "Tensor4":
        return cls(np.full(shape, value, dtype=dtype))


@dataclass
class Rng:
    """Counter-based generator: equal seeds give equal sequences on all platforms."""

    seed: int
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, lo: float, hi: float, shape, dtype=np.float64) -> np.ndarray:
        return self._gen.uniform(lo, hi, size=shape).astype(dtype)

    def normal(self, mean: float, std: float, shape, dtype=np.float64) -> np.ndarray:
        return self._gen.normal(mean, std, size=shape).astype(dtype)

    def integers(self, lo: int, hi: int, shape=None) -> np.ndarray:
        return self._gen.integers(lo, hi, size=shape)

    def init_weight(self, shape, fan_in: int, dtype=np.float64) -> np.ndarray:
        """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], the default weight init."""
        if fan_in <= 0:
            raise ContractError(f"fan_in must be positive, got {fan_in}")
        bound = 1.0 / np.sqrt(fan_in)
        return self.uniform(-bound, bound, shape, dtype=dtype)

    def tensor(self, shape, dtype=np.float64, lo: float = -1.0, hi: float = 1.0) -> Tensor4:
        return Tensor4(self.uniform(lo, hi, shape, dtype=dtype))


def reshape_nodes(x: Tensor4) -> np.ndarray:
    """Flatten (n, c, h, w) into an (n*h*w, c) node matrix.

    Row i holds the feature vector of spatial position i mod (h*w)
    (row-major over the grid) of batch element i // (h*w).
    """
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.data.transpose(0, 2, 3, 1).reshape(n * h * w, c))


def unflatten_nodes(mat: np.ndarray, shape: tuple[int, int, int, int]) -> Tensor4:
    """Inverse of :func:`reshape_nodes`; the round trip is bit-exact."""
    n, c, h, w = shape
    mat = np.asarray(mat)
    if mat.shape != (n * h * w, c):
        raise ShapeError(f"node matrix {mat.shape} does not match target shape {shape}")
    return Tensor4(mat.reshape(n, h, w, c).transpose(0, 3, 1, 2))


def save_tensor(x: Tensor4, path) -> None:
    """Write ``x`` in the RGT4 container (magic, u64 dims, dtype tag, raw values)."""
    tag = _TAG_FOR_DTYPE[np.dtype(x.dtype)]
    payload = np.ascontiguousarray(x.data, dtype=_DTYPE_TAGS[tag]).tobytes()
    header = MAGIC + struct.pack("<4q", *x.shape) + bytes([tag])
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise TensorIOError(f"cannot write tensor file {path!r}: {exc}") from exc


def load_tensor(path) -> Tensor4:
    """Read an RGT4 file back; bit-exact inverse of :func:`save_tensor`."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise TensorIOError(f"cannot read tensor file {path!r}: {exc}") from exc

    header_len = len(MAGIC) + 32 + 1
    if len(blob) < header_len:
        raise MalformedHeaderError(f"{path!r}: file shorter than the fixed header")
    if blob[: len(MAGIC)] != MAGIC:
        raise MalformedHeaderError(f"{path!r}: bad magic {blob[:8]!r}")
    # Dims are written unsigned but parsed signed so corrupt files that encode
    # negative sizes are rejected instead of allocating absurd buffers.
    dims = struct.unpack("<4q", blob[len(MAGIC) : len(MAGIC) + 32])
    if any(d < 0 for d in dims):
        raise MalformedHeaderError(f"{path!r}: negative dimension in header {dims}")
    tag = blob[len(MAGIC) + 32]
    if tag not in _DTYPE_TAGS:
        raise MalformedHeaderError(f"{path!r}: unknown dtype tag {tag}")
    dtype = _DTYPE_TAGS[tag]
    expected = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
    payload = blob[header_len:]
    if len(payload) != expected:
        raise LengthMismatchError(
            f"{path!r}: payload is {len(payload)} bytes, header implies {expected}"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(dims)
    return Tensor4(arr.astype(dtype.newbyteorder("="), copy=True))
