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
    repgraph_forward,
    softmax_rows,
)
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
        p = Projection1x1(np.zeros((3, 6)))
        q = Projection1x1(np.zeros((4, 6)))
        with pytest.raises(ShapeError):
            NonLocalParams(theta=p, phi=p, g=q, w_out=p)
