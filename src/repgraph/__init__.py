"""Representative-node sparse attention with a dense non-local baseline.

Numpy-backed tensors and reverse-mode autograd, the sparse attention layer
in simple / bottleneck / grid / group instantiations, exact-equivalence and
gradient oracles, FLOPs accounting, microbenchmarks, and a toy trainer.
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
    OffsetField,
    SimpleRepGraphParams,
    bottleneck_repgraph_forward,
    full_grid_offsets,
    init_bottleneck_params,
    init_layer_params,
    init_simple_params,
    repgraph_forward,
    simple_repgraph_forward,
)
from .nonlocal_block import (
    NonLocalParams,
    affinity_matrix,
    init_nonlocal_params,
    nonlocal_forward,
)
from .ops import (
    BatchNormParams,
    Projection1x1,
    project_1x1,
    softmax_rows,
)
from .oracle import dense_equivalence_diff
from .stats import AffinityStats, affinity_stats
from .tensor import (
    Rng,
    Tensor4,
    load_tensor,
    reshape_nodes,
    save_tensor,
    unflatten_nodes,
)
from .variants import (
    GridConfig,
    GroupConfig,
    grid_repgraph_forward,
    group_repgraph_forward,
)

__version__ = "0.1.0"
