"""Exception types shared across the package."""


class RepGraphError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(RepGraphError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ContractError(RepGraphError, ValueError):
    """An argument violates a documented precondition."""


class ValidationError(RepGraphError, ValueError):
    """Input data fails a semantic validity check (e.g. rows are not distributions)."""


class UnsupportedOpError(RepGraphError):
    """A recorded graph node has no backward rule."""


class TensorIOError(RepGraphError, OSError):
    """Reading or writing a tensor file failed."""


class MalformedHeaderError(TensorIOError):
    """Tensor file header is corrupt: bad magic, dtype tag, or dimension field."""


class LengthMismatchError(TensorIOError):
    """Tensor file payload length disagrees with its header."""


class DivergenceError(RepGraphError):
    """Training produced a non-finite loss."""


class CheckpointError(RepGraphError):
    """A checkpoint directory is missing a file or does not describe the model it rebuilds."""
