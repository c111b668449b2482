import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repgraph import (
    BatchNormParams,
    ContractError,
    Projection1x1,
    Rng,
    ShapeError,
    Tensor4,
    project_1x1,
    softmax_rows,
)
from repgraph.autograd import Tape, backward, weighted_sum
from repgraph.ops import avg_pool_node, batch_norm_node, bilinear_node, relu_node

finite_floats = st.floats(-50.0, 50.0, allow_nan=False)


def bilinear_sample(x, positions):
    """Sample fractional positions [(batch, y, x), ...] through ``bilinear_node``; [len, c]."""
    pos = np.asarray(positions, dtype=np.float64)
    tape = Tape()
    return bilinear_node(tape.constant(x.data), tape.constant(pos[:, 1]),
                         tape.constant(pos[:, 2]), pos[:, 0].astype(np.int64)).value


def avg_pool(x, g):
    tape = Tape()
    return avg_pool_node(tape.constant(x.data), g).value


def batch_norm(x, params, training):
    tape = Tape()
    return batch_norm_node(tape.constant(x.data), tape.constant(params.gamma),
                           tape.constant(params.beta), params, training).value


class TestProject1x1:
    def test_identity_weight(self):
        x = Rng(0).tensor((1, 3, 2, 2))
        p = Projection1x1(np.eye(3), np.zeros(3))
        assert np.array_equal(project_1x1(x, p).data, x.data)

    def test_zero_weight_with_bias_is_constant(self):
        x = Rng(1).tensor((2, 3, 2, 2))
        bias = np.array([1.5, -2.0])
        p = Projection1x1(np.zeros((2, 3)), bias)
        out = project_1x1(x, p).data
        for b in range(2):
            for i in range(2):
                for j in range(2):
                    assert np.array_equal(out[b, :, i, j], bias)

    def test_matches_per_position_matmul_oracle(self):
        rng = Rng(2)
        x = rng.tensor((2, 4, 3, 2))
        p = Projection1x1(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, 5))
        out = project_1x1(x, p).data
        for b in range(2):
            for i in range(3):
                for j in range(2):
                    want = p.weight @ x.data[b, :, i, j] + p.bias
                    assert np.abs(out[b, :, i, j] - want).max() < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            project_1x1(Rng(0).tensor((1, 3, 2, 2)), Projection1x1(np.eye(4)))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows(np.array([[1.0, 1.0, 1.0]]))
        assert np.abs(out - 1.0 / 3.0).max() < 1e-15

    def test_extreme_logits_do_not_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] > 0.999999
        assert out[0, 1] < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.float64, (5, 7), elements=finite_floats))
    def test_rows_sum_to_one(self, a):
        out = softmax_rows(a)
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.all(out > 0)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, (4, 6), elements=finite_floats),
        hnp.arrays(np.float64, (4, 1), elements=finite_floats),
    )
    def test_invariant_to_per_row_constant(self, a, c):
        assert np.abs(softmax_rows(a + c) - softmax_rows(a)).max() < 1e-12


class TestBilinearSample:
    grid = Tensor4(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))  # (1, 1, 2, 2)

    def test_centroid(self):
        out = bilinear_sample(self.grid, [(0, 0.5, 0.5)])
        assert abs(out[0, 0] - 2.5) < 1e-15

    def test_exact_grid_point(self):
        out = bilinear_sample(self.grid, [(0, 1.0, 0.0)])
        assert out[0, 0] == 3.0

    def test_fully_outside_is_zero(self):
        out = bilinear_sample(self.grid, [(0, -2.0, -2.0)])
        assert out[0, 0] == 0.0

    def test_exact_on_all_integer_positions(self):
        x = Rng(3).tensor((2, 3, 4, 5))
        positions = [(b, float(i), float(j)) for b in range(2) for i in range(4) for j in range(5)]
        out = bilinear_sample(x, positions)
        k = 0
        for b in range(2):
            for i in range(4):
                for j in range(5):
                    assert np.array_equal(out[k], x.data[b, :, i, j])
                    k += 1

    def test_linear_in_feature_map(self):
        rng = Rng(4)
        x = rng.tensor((1, 2, 4, 4))
        z = rng.tensor((1, 2, 4, 4))
        pos = [(0, 1.3, 2.7), (0, -0.4, 0.2), (0, 3.6, 3.9)]
        mix = Tensor4(0.3 * x.data + 1.7 * z.data)
        lhs = bilinear_sample(mix, pos)
        rhs = 0.3 * bilinear_sample(x, pos) + 1.7 * bilinear_sample(z, pos)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_partition_of_unity_on_constant_field(self):
        const = Tensor4(np.full((1, 2, 5, 5), 3.14))
        # All four neighbours in bounds for these positions.
        pos = [(0, 0.5, 0.5), (0, 2.25, 3.75), (0, 3.0, 1.5)]
        out = bilinear_sample(const, pos)
        assert np.abs(out - 3.14).max() < 1e-12

    def test_matches_direct_four_neighbour_oracle(self):
        rng = Rng(5)
        x = rng.tensor((2, 3, 5, 6))
        pys = rng.uniform(-1.5, 5.5, 20)
        pxs = rng.uniform(-1.5, 6.5, 20)
        bs = rng.integers(0, 2, 20)
        out = bilinear_sample(x, np.stack([bs, pys, pxs], axis=1))
        for k in range(20):
            b, py, px = int(bs[k]), pys[k], pxs[k]
            want = np.zeros(3)
            for ty in range(int(np.floor(py)), int(np.floor(py)) + 2):
                for tx in range(int(np.floor(px)), int(np.floor(px)) + 2):
                    if 0 <= ty < 5 and 0 <= tx < 6:
                        g = max(0.0, 1.0 - abs(ty - py)) * max(0.0, 1.0 - abs(tx - px))
                        want += g * x.data[b, :, ty, tx]
            assert np.abs(out[k] - want).max() < 1e-12

    def test_invalid_batch_index(self):
        with pytest.raises(IndexError):
            bilinear_sample(self.grid, [(3, 0.5, 0.5)])

    def test_far_off_positions_give_zero_sample_and_gradients(self):
        far = np.array([1e30, -1e30, np.inf, -np.inf, np.nan])
        k = far.size
        tape = Tape()
        x = tape.leaf(self.grid.data.copy())
        py = tape.leaf(np.concatenate([far, np.full(k, 0.5)]))
        px = tape.leaf(np.concatenate([np.full(k, 0.5), far]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bilinear_node(x, py, px, np.zeros(2 * k, dtype=np.int64))
            backward(weighted_sum(out, np.ones(out.value.shape)))
        assert np.array_equal(out.value, np.zeros((2 * k, 1)))
        assert np.array_equal(x.grad, np.zeros_like(x.value))
        assert np.array_equal(py.grad, np.zeros(2 * k))
        assert np.array_equal(px.grad, np.zeros(2 * k))

    def test_rejects_malformed_positions(self):
        pos = np.zeros((4, 2))
        tape = Tape()
        with pytest.raises(ShapeError):
            bilinear_node(tape.constant(self.grid.data), tape.constant(pos[:, 0]),
                          tape.constant(pos), np.zeros(4, dtype=np.int64))


class TestAvgPoolGrid:
    def test_g1_is_identity(self):
        x = Rng(6).tensor((2, 3, 4, 5))
        assert np.array_equal(avg_pool(x, 1), x.data)

    def test_constant_tensor(self):
        x = Tensor4.full((1, 2, 5, 7), 2.5)
        out = avg_pool(x, 3)
        assert out.shape == (1, 2, 2, 3)
        assert np.abs(out - 2.5).max() < 1e-15

    def test_matches_block_mean_oracle(self):
        rng = Rng(7)
        x = rng.tensor((1, 2, 4, 4))
        out = avg_pool(x, 2)
        for c in range(2):
            for bi in range(2):
                for bj in range(2):
                    block = x.data[0, c, 2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]
                    assert abs(out[0, c, bi, bj] - block.mean()) < 1e-15

    def test_partial_edge_blocks_are_count_normalized(self):
        x = Rng(8).tensor((1, 1, 5, 3))
        out = avg_pool(x, 2)
        assert out.shape == (1, 1, 3, 2)
        assert abs(out[0, 0, 2, 1] - x.data[0, 0, 4, 2]) < 1e-15  # 1x1 corner block
        assert abs(out[0, 0, 2, 0] - x.data[0, 0, 4, 0:2].mean()) < 1e-15

    def test_zero_group_size_rejected(self):
        with pytest.raises(ContractError):
            avg_pool(Rng(0).tensor((1, 1, 2, 2)), 0)


class TestReluAndBatchNorm:
    def test_relu_values(self):
        tape = Tape()
        out = relu_node(tape.leaf(np.array([[[[-1.0, 2.0]]]])))
        assert np.array_equal(out.value, np.array([[[[0.0, 2.0]]]]))

    def test_fixed_point_on_normalized_data(self):
        rng = Rng(9)
        raw = rng.uniform(-1, 1, (4, 3, 8, 8))
        raw = (raw - raw.mean(axis=(0, 2, 3), keepdims=True)) / raw.std(axis=(0, 2, 3), keepdims=True)
        params = BatchNormParams.create(3, eps=1e-12)
        out = batch_norm(Tensor4(raw), params, training=True)
        assert np.abs(out - raw).max() < 1e-6

    def test_training_moments_match_oracle(self):
        rng = Rng(10)
        x = rng.tensor((3, 4, 6, 6))
        params = BatchNormParams.create(4)
        params.gamma = rng.uniform(0.5, 1.5, 4)
        params.beta = rng.uniform(-1, 1, 4)
        out = batch_norm(x, params, training=True)
        mean = out.mean(axis=(0, 2, 3))
        std = out.std(axis=(0, 2, 3))
        sigma = x.data.std(axis=(0, 2, 3))
        want_std = params.gamma * sigma / np.sqrt(sigma**2 + params.eps)
        assert np.abs(mean - params.beta).max() < 1e-10
        assert np.abs(std - want_std).max() < 1e-10

    def test_running_stats_updated_with_momentum(self):
        rng = Rng(11)
        x = rng.tensor((2, 2, 4, 4))
        params = BatchNormParams.create(2, momentum=0.1)
        batch_norm(x, params, training=True)
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        assert np.abs(params.running_mean - 0.1 * mu).max() < 1e-15
        assert np.abs(params.running_var - (0.9 + 0.1 * var)).max() < 1e-15

    def test_eval_mode_uses_running_stats(self):
        params = BatchNormParams.create(1)
        params.running_mean = np.array([2.0])
        params.running_var = np.array([4.0])
        x = Tensor4(np.full((1, 1, 2, 2), 4.0))
        out = batch_norm(x, params, training=False)
        assert np.abs(out - (4.0 - 2.0) / np.sqrt(4.0 + params.eps)).max() < 1e-12

    def test_empty_batch_rejected(self):
        params = BatchNormParams.create(2)
        with pytest.raises(ContractError):
            batch_norm(Tensor4.zeros((0, 2, 2, 2)), params, training=True)

    def test_bad_eps_rejected(self):
        with pytest.raises(ContractError):
            BatchNormParams.create(2, eps=0.0)
