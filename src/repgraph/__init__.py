"""Representative-node sparse attention with a dense non-local baseline.

Numpy-backed tensors and reverse-mode autograd, the sparse attention layer
in simple / bottleneck / grid / group instantiations, exact-equivalence and
gradient oracles, FLOPs accounting, microbenchmarks, and a toy trainer.
Every block is a :class:`LayerConfig` run by :func:`repgraph_forward`.
"""

from .autograd import GradCheckReport, Node, Tape, backward, finite_diff_check
from .errors import (
    CheckpointError,
    ContractError,
    DivergenceError,
    LengthMismatchError,
    MalformedHeaderError,
    RepGraphError,
    ShapeError,
    TensorIOError,
    UnsupportedOpError,
    ValidationError,
)
from .flops import FlopsReport, count_flops, fit_scaling_exponent
from .layer import (
    AttentionWeights,
    BottleneckRepGraphParams,
    LayerConfig,
    NonLocalParams,
    OffsetField,
    SimpleRepGraphParams,
    full_grid_offsets,
    init_layer_params,
    repgraph_forward,
)
# Exported only because perfbench's tracer test reads ``repgraph.nonlocal_forward``.
from .nonlocal_block import nonlocal_forward
from .ops import (
    BatchNormParams,
    Projection1x1,
    project_1x1,
    softmax_rows,
)
from .oracle import dense_equivalence_diff
from .stats import AffinityStats, affinity_stats
from .tensor import Rng, Tensor4, load_tensor, save_tensor

__version__ = "0.1.0"
