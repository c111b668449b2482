import numpy as np
import pytest

from repgraph import (
    LayerConfig,
    NonLocalParams,
    Projection1x1,
    Rng,
    ShapeError,
    Tensor4,
    init_layer_params,
    project_1x1,
    repgraph_forward,
    softmax_rows,
)
from repgraph import layer, ops
from repgraph.autograd import Tape
from repgraph.bench import peak_mib
from repgraph.layer import layer_forward_node
from repgraph.nonlocal_block import affinity_matrix


def dense_block(c, cp, rng, **kw):
    """A non-local layer config and a record for it drawn from ``rng``."""
    cfg = LayerConfig(c=c, cp=cp, variant="nonlocal", **kw)
    return cfg, init_layer_params(cfg, rng=rng)


class TestAffinityMatrix:
    def test_zero_features_give_uniform_rows(self):
        a = affinity_matrix(np.zeros((5, 3)), np.zeros((5, 3)))
        assert np.abs(a - 0.2).max() < 1e-15

    def test_single_node(self):
        a = affinity_matrix(np.ones((1, 4)), np.ones((1, 4)))
        assert np.array_equal(a, np.array([[1.0]]))

    def test_matches_pairwise_dot_oracle(self):
        rng = Rng(0)
        theta = rng.uniform(-1, 1, (6, 4))
        phi = rng.uniform(-1, 1, (6, 4))
        a = affinity_matrix(theta, phi)
        logits = np.empty((6, 6))
        for i in range(6):
            for j in range(6):
                logits[i, j] = float(np.dot(theta[i], phi[j]))
        assert np.abs(a - softmax_rows(logits)).max() < 1e-12
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            affinity_matrix(np.zeros((4, 3)), np.zeros((4, 5)))


class TestNonLocalForward:
    def test_zero_output_projection_is_identity(self):
        rng = Rng(1)
        x = rng.tensor((1, 6, 4, 4))
        cfg, params = dense_block(6, 3, rng, init_mode="pretrained_insert")
        y = repgraph_forward(x, params, cfg)
        assert np.array_equal(y.data, x.data)

    def test_single_node_reduces_to_projections(self):
        rng = Rng(2)
        x = rng.tensor((1, 4, 1, 1))
        cfg, params = dense_block(4, 3, rng)
        y = repgraph_forward(x, params, cfg)
        v = x.data[0, :, 0, 0]
        gx = params.g.weight @ v + params.g.bias
        want = params.w_out.weight @ gx + params.w_out.bias + v
        assert np.abs(y.data[0, :, 0, 0] - want).max() < 1e-12

    def test_affinity_rows_are_distributions(self):
        rng = Rng(3)
        x = rng.tensor((2, 5, 3, 4))
        cfg, params = dense_block(5, 4, rng)
        collect = {}
        repgraph_forward(x, params, cfg, collect=collect)
        w = collect["weights"].data
        assert w.shape == (2, 12, 1, 12)
        a = w[:, :, 0]
        assert a.shape == (2, 12, 12)
        assert np.all(a >= 0)
        assert np.abs(a.sum(axis=-1) - 1.0).max() < 1e-10

    def test_permutation_equivariance(self):
        # No positional terms: permuting the node order and permuting the
        # output back must reproduce the original result.
        rng = Rng(4)
        x = rng.tensor((1, 5, 3, 4))
        cfg, params = dense_block(5, 4, rng)
        y = repgraph_forward(x, params, cfg)

        def nodes(t):
            # [1, 5, 3, 4] map -> [12, 5] node matrix, row-major over the grid.
            return t.data.transpose(0, 2, 3, 1).reshape(12, 5)

        perm = np.random.default_rng(9).permutation(12)
        xp = Tensor4(nodes(x)[perm].reshape(1, 3, 4, 5).transpose(0, 3, 1, 2))
        yp = repgraph_forward(xp, params, cfg)
        restored = np.empty((12, 5))
        restored[perm] = nodes(yp)
        assert np.abs(restored - nodes(y)).max() < 1e-10

    def test_concat_fusion_shapes_and_contract(self):
        rng = Rng(6)
        x = rng.tensor((1, 6, 3, 3))
        cfg, params = dense_block(6, 4, rng, fusion="concat")
        y = repgraph_forward(x, params, cfg)
        assert y.shape == x.shape
        assert params.w_out.c_in == 6 + 4

    def test_channel_mismatch(self):
        cfg, params = dense_block(6, 3, Rng(7))
        with pytest.raises(ShapeError):
            repgraph_forward(Rng(0).tensor((1, 5, 2, 2)), params, cfg)

    def test_params_validate_shared_width(self):
        p = Projection1x1(np.zeros((3, 6)), np.zeros(3))
        q = Projection1x1(np.zeros((4, 6)), np.zeros(4))
        with pytest.raises(ShapeError):
            NonLocalParams(theta=p, phi=p, g=q, w_out=p)


class TestQueryBlocks:
    # 13 x 16 = 208 positions; at batch 2, f64 a row of logits is 3328 bytes.
    SHAPE = (2, 5, 13, 16)
    ROW_BYTES = 2 * 208 * 8

    @pytest.fixture
    def forward(self, monkeypatch):
        """``forward(cfg, params, x, block_bytes, grad)`` -> (query rows of each block,
        output, weights)."""
        softmax = ops.softmax_node
        calls = []
        monkeypatch.setattr(ops, "softmax_node", lambda a: calls.append(a.shape) or softmax(a))

        def run(cfg, params, x, block_bytes, grad=False):
            monkeypatch.setattr(layer, "_DENSE_BLOCK_BYTES", block_bytes)
            calls.clear()
            tape, collect = Tape(grad=grad), {}
            out = layer_forward_node(tape, tape.leaf(x.data), params, cfg, collect=collect)
            return [shape[1] for shape in calls], out.value, collect["weights"].data
        return run

    # Several blocks, the last one short: below _DENSE_MIN_ROWS a block takes
    # 64 rows, and room for 100 rows runs the fewest blocks, 3, as even as
    # they can be.
    @pytest.mark.parametrize("fusion", ["sum", "concat"])
    @pytest.mark.parametrize("block_bytes,rows", [(1, [64, 64, 64, 16]),
                                                  (100 * ROW_BYTES, [70, 70, 68])],
                             ids=["min-rows", "room-for-100"])
    def test_result_does_not_depend_on_the_block_size(self, forward, fusion, block_bytes,
                                                      rows):
        cfg, params = dense_block(5, 3, Rng(31), fusion=fusion)
        x = Rng(32).tensor(self.SHAPE)
        blocks, want_out, want_weights = forward(cfg, params, x, 1 << 40)
        assert blocks == [208]
        blocks, out, weights = forward(cfg, params, x, block_bytes)
        assert blocks == rows
        assert np.abs(out - want_out).max() < 1e-12
        assert weights.shape == (2, 208, 1, 208)
        assert np.abs(weights - want_weights).max() < 1e-12
        for i in range(2):
            theta, phi = (project_1x1(x, proj).data[i].reshape(3, 208).T
                          for proj in (params.theta, params.phi))
            assert np.abs(weights[i, :, 0] - affinity_matrix(theta, phi)).max() < 1e-12

    @pytest.mark.parametrize("fusion", ["sum", "concat"])
    def test_a_grad_tape_runs_the_same_blocks(self, forward, fusion):
        # Both tapes run the same blocks, so they give the same bytes.
        cfg, params = dense_block(5, 3, Rng(31), fusion=fusion)
        x = Rng(32).tensor(self.SHAPE)
        want_blocks, want_out, want_weights = forward(cfg, params, x, 1)
        assert want_blocks == [64, 64, 64, 16]
        blocks, out, weights = forward(cfg, params, x, 1, grad=True)
        assert blocks == want_blocks
        assert out.tobytes() == want_out.tobytes()
        assert weights.tobytes() == want_weights.tobytes()

    def test_forward_never_holds_the_n_by_n_affinity(self):
        cfg = LayerConfig(c=256, cp=64, variant="nonlocal")
        params = init_layer_params(cfg, rng=Rng(34), dtype=np.float32)
        x = Rng(35).tensor((1, 256, 64, 32), dtype=np.float32)
        affinity_mib = (64 * 32) ** 2 * 4 / 2**20
        peak = peak_mib(lambda: repgraph_forward(x, params, cfg))
        assert peak < affinity_mib
        # perfbench's dense_fwd geometry: θ, φ and g (1.5 MiB), one span's
        # 2 MiB of logits, which the softmax overwrites, and the span outputs
        # peak at 4.08 MiB.  A softmax copy of the logits peaks at 6.05.
        assert peak <= 4.5
