import re
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
from repgraph import autograd as ag
from repgraph import ops
from repgraph.autograd import Tape, backward, weighted_sum
from repgraph.ops import avg_pool_node, batch_norm_node, bilinear_node, relu_node

finite_floats = st.floats(-50.0, 50.0, allow_nan=False)


def bilinear_sample(x, positions):
    """Sample fractional positions [(batch, y, x), ...] through ``bilinear_node``; [len, c]."""
    pos = np.asarray(positions, dtype=np.float64)
    tape = Tape()
    return bilinear_node(tape.leaf(x.data), tape.leaf(pos[:, 1]),
                         tape.leaf(pos[:, 2]), pos[:, 0].astype(np.int64)).value


def reference_bilinear(data, b, py, px):
    """The per-tap sampler that the blocked kernels replaced.

    Gathers every tap as a [len, c] array from the NCHW map and scatters the
    map gradient with ``np.add.at``.  Returns the [len, c] output and a
    function from a [len, c] output gradient to (dmap, dpy, dpx).
    """
    n, c, h, w = data.shape

    def taps():
        ty = np.nan_to_num(np.clip(py, -2, h + 1), nan=-2.0)
        tx = np.nan_to_num(np.clip(px, -2, w + 1), nan=-2.0)
        y0 = np.floor(ty)
        x0 = np.floor(tx)
        ty -= y0
        tx -= x0
        y0 = y0.astype(np.int64)
        x0 = x0.astype(np.int64)
        for dy, wy, sy in ((0, 1.0 - ty, -1.0), (1, ty, 1.0)):
            for dx, wx, sx in ((0, 1.0 - tx, -1.0), (1, tx, 1.0)):
                yy = y0 + dy
                xx = x0 + dx
                valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
                f = data[b, :, np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
                np.multiply(f, valid[:, None], out=f)
                yield wy, wx, sy, sx, yy, xx, valid, f

    out = np.zeros((py.size, c), dtype=np.result_type(data.dtype, py.dtype))
    for wy, wx, _, _, _, _, _, f in taps():
        out += (wy * wx)[:, None] * f

    def grads(g):
        dmap_flat = np.zeros((n * h * w, c), dtype=data.dtype)
        dpy = np.zeros_like(py)
        dpx = np.zeros_like(px)
        for wy, wx, sy, sx, yy, xx, valid, f in taps():
            gf = (g * f).sum(axis=1)
            dpy += sy * wx * gf
            dpx += sx * wy * gf
            rows = (b * h + yy) * w + xx
            np.add.at(dmap_flat, rows[valid], (g * (wy * wx)[:, None])[valid])
        return dmap_flat.reshape(n, h, w, c).transpose(0, 3, 1, 2), dpy, dpx

    return out, grads


def sampler_grads(data, b, py, px, g):
    """``bilinear_node`` output and its (map, py, px) gradients under probe ``g``."""
    tape = Tape()
    x, ny, nx = tape.leaf(data), tape.leaf(py), tape.leaf(px)
    out = bilinear_node(x, ny, nx, b)
    backward(weighted_sum(out, g))
    return out.value, x.grad, ny.grad, nx.grad


def hard_positions(rng, n, h, w, k):
    """k random positions around a [n, ?, h, w] map plus off-map, infinite,
    NaN and exact-integer ones; returns (b, py, px)."""
    special = np.array([-np.inf, np.inf, np.nan, 1e30, -1e30, -2.5, -1.0, 0.0,
                        1.0, h - 1.0, float(h), h + 0.5])
    py = np.concatenate([rng.uniform(-3, h + 2, k), special,
                         rng.integers(-1, h + 1, k).astype(np.float64)])
    px = np.concatenate([rng.uniform(-3, w + 2, k), special[::-1],
                         rng.integers(-1, w + 1, k).astype(np.float64)])
    b = rng.integers(0, n, py.size)
    return b, py, px


def avg_pool(x, g):
    tape = Tape()
    return avg_pool_node(tape.leaf(x.data), g).value


def batch_norm(x, params, training):
    tape = Tape()
    return batch_norm_node(tape.leaf(x.data), tape.leaf(params.gamma),
                           tape.leaf(params.beta), params, training).value


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
            project_1x1(Rng(0).tensor((1, 3, 2, 2)), Projection1x1(np.eye(4), np.zeros(4)))

    @staticmethod
    def _arrays(dtype):
        """Input [2, 3, 4, 5], weight [6, 3], bias [6] and residual [2, 6, 4, 5]."""
        rng = Rng(3)
        return tuple(rng.uniform(-1, 1, shape, dtype=dtype)
                     for shape in ((2, 3, 4, 5), (6, 3), 6, (2, 6, 4, 5)))

    def test_bias_adds_into_the_products_buffer_on_a_grad_tape(self):
        x, w, b, r = self._arrays(np.float64)
        for residual in (None, r):
            tape = Tape()
            out = ops.project_node(tape.leaf(x), tape.leaf(w), tape.leaf(b),
                                   None if residual is None else tape.leaf(residual))
            product = out.parents[0]
            assert out.op == "channel_bias" and product.op.startswith("einsum[")
            assert np.shares_memory(out.value, product.value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_residual", [False, True])
    def test_bytes_match_the_product_plus_bias_plus_residual(self, with_residual, dtype):
        x, w, b, r = self._arrays(dtype)
        tape = Tape()
        want = ag.einsum2("oc,bchw->bohw", tape.leaf(w), tape.leaf(x)).value
        want = want + b[None, :, None, None]
        if with_residual:
            want = want + r
        for grad in (True, False):
            tape = Tape(grad=grad)
            got = ops.project_node(tape.leaf(x), tape.leaf(w), tape.leaf(b),
                                   tape.leaf(r) if with_residual else None).value
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_a_wider_bias_widens_the_output_as_a_separate_add_did(self):
        x, w, b, _ = self._arrays(np.float32)
        out = project_1x1(Tensor4(x), Projection1x1(w, b.astype(np.float64))).data
        tape = Tape()
        want = ag.einsum2("oc,bchw->bohw", tape.leaf(w), tape.leaf(x)).value
        want = want + b.astype(np.float64)[None, :, None, None]
        assert out.dtype == np.float64 and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_residual_gradients_match_a_separate_add(self, dtype):
        # The layers' sum fusion recorded project_node, then ag.add.
        x, w, b, r = self._arrays(dtype)
        probe = Rng(4).uniform(-1, 1, r.shape)
        grads = []
        for fold in (True, False):
            tape = Tape()
            leaves = [tape.leaf(a) for a in (x, w, b, r)]
            if fold:
                out = ops.project_node(*leaves[:3], residual=leaves[3])
            else:
                out = ag.add(ops.project_node(*leaves[:3]), leaves[3])
            backward(weighted_sum(out, probe))
            grads.append([leaf.grad.tobytes() for leaf in leaves])
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("length", [5, 7])
    def test_bias_of_the_wrong_length_is_a_shape_error(self, length):
        x, w, _, _ = self._arrays(np.float64)
        message = re.escape(f"bias has shape ({length},), the output has 6 channels")
        tape = Tape()
        with pytest.raises(ShapeError, match=message):
            ops.project_node(tape.leaf(x), tape.leaf(w), tape.leaf(np.zeros(length)))

    # Shapes an in-place add would broadcast, and one it would refuse.
    @pytest.mark.parametrize("shape", [(1, 6, 4, 5), (2, 6, 1, 1), (6, 4, 5), (2, 6, 4, 6)])
    def test_residual_of_another_shape_is_a_shape_error(self, shape):
        x, w, b, _ = self._arrays(np.float64)
        message = re.escape(f"residual has shape {shape}, the output has shape (2, 6, 4, 5)")
        tape = Tape()
        with pytest.raises(ShapeError, match=message):
            ops.project_node(tape.leaf(x), tape.leaf(w), tape.leaf(b),
                             tape.leaf(np.zeros(shape)))


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [1, 9, 2048])
    def test_bytes_match_the_row_max_formula(self, s, dtype):
        # Short rows take their max as a chain of column maxima; the bytes
        # must be those of a.max(axis=-1) whatever the row length.
        a = Rng(16).uniform(-30, 30, (3, 40, s)).astype(dtype)
        a[0, :4, 0] = [0.0, -0.0, 1e30, -1e30]
        e = np.subtract(a, a.max(axis=-1, keepdims=True), dtype=np.result_type(a, 1.0))
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        out = softmax_rows(a)
        assert out.dtype == e.dtype and out.tobytes() == e.tobytes()


class TestSoftmaxNode:
    """``softmax_node`` normalizes into its input's buffer with ``softmax_rows``' bytes."""

    @staticmethod
    def logits(s, dtype):
        a = Rng(17).uniform(-30, 30, (3, 40, s)).astype(dtype)
        a[0, :4, 0] = [0.0, -0.0, 1e30, -1e30]
        return a

    # S = 1 rows take their max as a view of the buffer being overwritten.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [1, 9, 1000])
    @pytest.mark.parametrize("grad", [False, True])
    def test_value_is_softmax_rows_of_a_copy_in_the_inputs_buffer(self, grad, s, dtype):
        a = self.logits(s, dtype)
        want = softmax_rows(a.copy())
        tape = Tape(grad=grad)
        out = ops.softmax_node(tape.leaf(a)).value
        assert np.shares_memory(out, a) and out.shape == a.shape
        assert out.dtype == want.dtype == dtype and out.tobytes() == want.tobytes()

    def test_a_promoted_input_is_cast_once_and_left_alone(self):
        a = np.arange(12).reshape(3, 4)
        tape = Tape()
        out = ops.softmax_node(tape.leaf(a)).value
        assert not np.shares_memory(out, a) and np.array_equal(a, np.arange(12).reshape(3, 4))
        assert out.dtype == np.float64 and out.tobytes() == softmax_rows(a).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("s", [1, 9, 1000])
    def test_gradient_matches_the_copying_formula(self, s, dtype):
        a = self.logits(s, dtype)
        probe = Rng(18).uniform(-1, 1, a.shape).astype(dtype)
        tape = Tape()
        x = tape.leaf(a.copy())
        backward(weighted_sum(ops.softmax_node(ag.add_const(x, 0.0)), probe))
        p = softmax_rows(a)
        want = (probe - (probe * p).sum(axis=-1, keepdims=True)) * p
        assert x.grad.dtype == want.dtype and x.grad.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_taps_match_the_clip_then_nan_to_num_clamp_bit_for_bit(self, dtype):
        def former_taps(shape, b, py, px):
            # The taps as computed with the former five-ufunc clamp.
            h, w = shape[2:]
            ty = np.nan_to_num(np.clip(py, -2, h), copy=False, nan=-2.0)
            tx = np.nan_to_num(np.clip(px, -2, w), copy=False, nan=-2.0)
            y0 = np.floor(ty)
            x0 = np.floor(tx)
            ty -= y0
            tx -= x0
            pw = w + 2 * ops._PAD
            flat = (b * (h + 2 * ops._PAD) + y0.astype(np.int64) + ops._PAD) * pw
            flat += x0.astype(np.int64) + ops._PAD
            uy, ux = 1.0 - ty, 1.0 - tx
            return [(uy, ux, flat), (uy, tx, flat + 1), (ty, ux, flat + pw),
                    (ty, tx, flat + (pw + 1))]

        shape = (2, 3, 5, 7)
        big = np.finfo(dtype).max
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, big, -big,
                            -2.5, -2.0, -1.0, 4.0, 5.0, 5.5, 7.0, 7.5], dtype=dtype)
        if dtype == np.float64:
            special = np.concatenate([special, [1e300, -1e300]])
        in_range = Rng(16).uniform(-3, 9, 40, dtype=dtype)
        py = np.concatenate([special, in_range, special[::-1]])
        px = np.concatenate([special[::-1], special, in_range])
        b = Rng(17).integers(0, shape[0], py.size)
        got = list(ops._bilinear_taps(shape, b, py, px))
        want = former_taps(shape, b, py.copy(), px.copy())
        assert len(got) == len(want)
        for (wy, wx, _, _, flat), ref in zip(got, want):
            for have, expect in zip((wy, wx, flat), ref):
                assert have.dtype == expect.dtype
                assert have.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_matches_reference_bit_for_bit(self, dtype):
        rng = Rng(12)
        for n, c, h, w in ((3, 4, 5, 6), (2, 1, 1, 3), (1, 8, 7, 2), (1, 64, 9, 5)):
            data = rng.uniform(-2, 2, (n, c, h, w)).astype(dtype)
            data[data > 1.5] = -0.0
            b, py, px = hard_positions(rng, n, h, w, 40)
            py, px = py.astype(dtype), px.astype(dtype)
            want, _ = reference_bilinear(data, b, py, px)
            got, *_ = sampler_grads(data, b, py, px, np.ones_like(want))
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_f64_gradients_match_reference(self):
        rng = Rng(13)
        for n, c, h, w in ((3, 4, 5, 6), (2, 3, 2, 2)):
            data = rng.uniform(-2, 2, (n, c, h, w))
            b, py, px = hard_positions(rng, n, h, w, 40)
            g = rng.uniform(-1, 1, (py.size, c))
            _, grads = reference_bilinear(data, b, py, px)
            _, *got = sampler_grads(data, b, py, px, g)
            for have, want in zip(got, grads(g)):
                assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()

    def test_backward_is_bit_stable(self):
        rng = Rng(14)
        data = rng.uniform(-2, 2, (2, 5, 6, 4))
        b, py, px = hard_positions(rng, 2, 6, 4, 200)
        g = rng.uniform(-1, 1, (py.size, 5))
        first = sampler_grads(data, b, py, px, g)
        second = sampler_grads(data, b, py, px, g)
        for a, z in zip(first, second):
            assert a.tobytes() == z.tobytes()

    def test_f32_map_gives_f32_output(self):
        rng = Rng(15)
        data = rng.uniform(-2, 2, (2, 3, 4, 5)).astype(np.float32)
        b, py, px = hard_positions(rng, 2, 4, 5, 10)
        py, px = py.astype(np.float32), px.astype(np.float32)
        out, dmap, dpy, _ = sampler_grads(data, b, py, px, np.ones((py.size, 3)))
        assert out.dtype == dmap.dtype == dpy.dtype == np.float32
        want, _ = reference_bilinear(data, b, py, px)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_position_of_one_channel_matches_reference_bit_for_bit(self, dtype):
        # One position of one channel is the call whose four taps alone make
        # the einsum's whole reduction; it must still add them in tap order.
        rng = Rng(22)
        for _ in range(200):
            data = (rng.uniform(-1, 1, (1, 1, 3, 3))
                    * 10.0 ** rng.integers(-6, 7, (1, 1, 3, 3))).astype(dtype)
            pos = rng.uniform(0, 2, (1, 2)).astype(dtype)
            b = np.zeros(1, dtype=np.int64)
            want, _ = reference_bilinear(data, b, pos[:, 0], pos[:, 1])
            got, *_ = sampler_grads(data, b, pos[:, 0], pos[:, 1], np.ones_like(want))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_four_negative_zero_taps_sum_to_positive_zero(self, dtype):
        # Channel 0 is -0.0 everywhere, so every weighted tap of it is -0.0.
        # Channel 1 is -1.0 but for a -0.0 pixel at (1, 2): sampled at exactly
        # (1, 2), that pixel gets weight 1 and the other three taps weight 0,
        # so its four weighted taps are -0.0 too.  The taps add from +0.0, so
        # each sum is +0.0; one that started from its first tap, or fused and
        # reordered the adds, would read -0.0.
        data = np.full((1, 2, 4, 4), -0.0, dtype=dtype)
        data[0, 1] = -1.0
        data[0, 1, 1, 2] = -0.0
        py = np.array([1.0, 0.5, 2.25, 1.0], dtype=dtype)
        px = np.array([2.0, 0.5, 1.75, 1.0], dtype=dtype)
        tape = Tape(grad=False)
        out = bilinear_node(tape.leaf(data), tape.leaf(py), tape.leaf(px),
                            np.zeros(4, dtype=np.int64)).value
        zeros = np.concatenate([out[:, 0], out[:1, 1]])
        assert np.all(zeros == 0) and not np.signbit(zeros).any()
        assert np.all(out[1:, 1] == -1)

    @staticmethod
    def _small_blocks(monkeypatch, rows, c, dtype):
        """Make every forward gather block ``rows`` positions long, every
        forward index block two gather blocks (``_INDEX_ROWS`` rounds down to
        whole gather blocks), and every backward block ``ops._TAPS * rows``
        positions: a gather block holds four taps per position, a backward
        block one output-gradient row.

        Returns a list that gets, per ``ops._blocks`` call, the row width it
        was given and the lengths of the blocks it made: one call per index
        block of a forward, one per backward.
        """
        monkeypatch.setattr(ops, "_BLOCK_BYTES",
                            ops._TAPS * rows * c * np.dtype(dtype).itemsize)
        monkeypatch.setattr(ops, "_INDEX_ROWS", 3 * rows - 1)
        made = []
        blocks = ops._blocks

        def recorded(length, width, dtype):
            out = blocks(length, width, dtype)
            made.append((width, [blk.stop - blk.start for blk in out]))
            return out

        monkeypatch.setattr(ops, "_blocks", recorded)
        return made

    @staticmethod
    def _batch_sorted_positions(rng, n, h, w, k):
        """``hard_positions`` sorted by batch, so the batch index changes
        inside blocks."""
        b, py, px = hard_positions(rng, n, h, w, k)
        order = np.argsort(b, kind="stable")
        return b[order], py[order], px[order]

    def test_blocked_output_matches_reference_bit_for_bit(self, monkeypatch):
        rng = Rng(17)
        n, c, h, w = 3, 4, 5, 6
        data = rng.uniform(-2, 2, (n, c, h, w))
        b, py, px = self._batch_sorted_positions(rng, n, h, w, 30)
        assert py.size == 72 and np.any(b[1:] != b[:-1])
        made = self._small_blocks(monkeypatch, 7, c, np.float64)
        want, _ = reference_bilinear(data, b, py, px)
        got, *_ = sampler_grads(data, b, py, px, np.ones_like(want))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # Ragged at every level: the forward's 72 positions are five index
        # blocks of two gather blocks of 7 and one index block of 2; the
        # backward's are blocks of 28, 28 and 16.
        assert made == [(4 * c, [7, 7])] * 5 + [(4 * c, [2]), (c, [28, 28, 16])]

    def test_node_major_output_is_c_contiguous(self, monkeypatch):
        rng = Rng(18)
        data = rng.uniform(-2, 2, (2, 3, 4, 5))
        py = rng.uniform(-1, 4, (2, 20, 9))
        px = rng.uniform(-1, 5, (2, 20, 9))
        self._small_blocks(monkeypatch, 11, 3, np.float64)
        tape = Tape()
        out = bilinear_node(tape.leaf(data), tape.leaf(py), tape.leaf(px),
                            np.arange(2)[:, None, None]).value
        assert out.shape == (2, 20, 9, 3)
        assert out.flags.c_contiguous

    def test_blocked_gradients_match_reference_and_are_bit_stable(self, monkeypatch):
        rng = Rng(19)
        n, c, h, w = 3, 4, 5, 6
        data = rng.uniform(-2, 2, (n, c, h, w))
        b, py, px = self._batch_sorted_positions(rng, n, h, w, 30)
        g = rng.uniform(-1, 1, (py.size, c))
        made = self._small_blocks(monkeypatch, 7, c, np.float64)
        _, grads = reference_bilinear(data, b, py, px)
        first = sampler_grads(data, b, py, px, g)
        second = sampler_grads(data, b, py, px, g)
        assert py.size == 72
        assert made == 2 * ([(4 * c, [7, 7])] * 5 + [(4 * c, [2]), (c, [28, 28, 16])])
        for have, want in zip(first[1:], grads(g)):
            assert np.abs(have - want).max() <= 1e-12 * np.abs(want).max()
        for a, z in zip(first, second):
            assert a.tobytes() == z.tobytes()

    def test_blocked_f32_map_gives_f32_output(self, monkeypatch):
        rng = Rng(20)
        data = rng.uniform(-2, 2, (2, 3, 4, 5)).astype(np.float32)
        b, py, px = self._batch_sorted_positions(rng, 2, 4, 5, 20)
        py, px = py.astype(np.float32), px.astype(np.float32)
        made = self._small_blocks(monkeypatch, 5, 3, np.float32)
        out, dmap, dpy, dpx = sampler_grads(data, b, py, px, np.ones((py.size, 3)))
        assert out.dtype == dmap.dtype == dpy.dtype == dpx.dtype == np.float32
        assert made == [(12, [5, 5])] * 5 + [(12, [2]), (3, [20, 20, 12])]
        want, _ = reference_bilinear(data, b, py, px)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_given_bordered_copy_gives_the_same_bytes(self, monkeypatch, dtype):
        rng = Rng(23)
        data = rng.uniform(-2, 2, (2, 5, 6, 7)).astype(dtype)
        b, py, px = hard_positions(rng, 2, 6, 7, 30)
        py, px = py.astype(dtype), px.astype(dtype)
        g = rng.uniform(-1, 1, (py.size, 5))
        want = sampler_grads(data, b, py, px, g)
        bordered = ops._pixel_major(data, dtype)
        built = []
        monkeypatch.setattr(ops, "_pixel_major", lambda *a: built.append(a) or bordered)
        tape = Tape()
        x, ny, nx = tape.leaf(data), tape.leaf(py), tape.leaf(px)
        out = bilinear_node(x, ny, nx, b, bordered=bordered)
        backward(weighted_sum(out, g))
        assert built == []
        for have, expect in zip((out.value, x.grad, ny.grad, nx.grad), want):
            assert have.tobytes() == expect.tobytes()

    def test_a_bordered_copy_of_another_shape_or_dtype_is_a_shape_error(self):
        data = Rng(24).uniform(-2, 2, (2, 3, 4, 5))
        tape = Tape(grad=False)
        x, py = tape.leaf(data), tape.leaf(np.zeros(6))
        for bordered in (ops._pixel_major(data[:1], np.float64),
                         ops._pixel_major(data[:, :2], np.float64),
                         ops._pixel_major(data, np.float32)):
            with pytest.raises(ShapeError, match="bordered copy"):
                bilinear_node(x, py, py, np.zeros(6, dtype=np.int64), bordered=bordered)

    def test_rejects_malformed_positions(self):
        pos = np.zeros((4, 2))
        tape = Tape()
        with pytest.raises(ShapeError):
            bilinear_node(tape.leaf(self.grid.data), tape.leaf(pos[:, 0]),
                          tape.leaf(pos), np.zeros(4, dtype=np.int64))


class TestAvgPoolGrid:
    def test_g1_is_identity(self):
        x = Rng(6).tensor((2, 3, 4, 5))
        assert np.array_equal(avg_pool(x, 1), x.data)

    def test_constant_tensor(self):
        x = Tensor4(np.full((1, 2, 5, 7), 2.5))
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_special_values_match_where_bit_for_bit(self, dtype):
        # NaN, -0.0 and -inf give +0.0 and +inf stays, as in where(x > 0, x, 0),
        # at every array length (vector loops and their scalar tails).
        tiny = np.finfo(dtype).smallest_subnormal
        special = np.array([np.nan, -np.nan, -0.0, 0.0, np.inf, -np.inf, -1.0, 2.0,
                            tiny, -tiny], dtype=dtype)
        for size in (1, 7, 10, 33, 70):
            data = np.resize(special, size).reshape(1, 1, 1, size)
            tape = Tape()
            x = tape.leaf(data)
            out = relu_node(x)
            want = np.where(data > 0, data, 0)
            assert out.value.dtype == want.dtype == dtype
            assert out.value.tobytes() == want.tobytes()
            backward(weighted_sum(out, np.full(data.shape, 3.0)))
            assert x.grad.tobytes() == (np.full(data.shape, 3.0) * (data > 0)).tobytes()

    def test_fixed_point_on_normalized_data(self):
        rng = Rng(9)
        raw = rng.uniform(-1, 1, (4, 3, 8, 8))
        raw = (raw - raw.mean(axis=(0, 2, 3), keepdims=True)) / raw.std(axis=(0, 2, 3), keepdims=True)
        params = BatchNormParams.create(3)
        out = batch_norm(Tensor4(raw), params, training=True)
        assert np.abs(out - raw / np.sqrt(1.0 + BatchNormParams.eps)).max() < 1e-6

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
        params = BatchNormParams.create(2)
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

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_match_the_one_line_formulas(self, training, dtype):
        rng = Rng(12)
        data = rng.tensor((2, 3, 5, 4), dtype=dtype).data
        probe = rng.uniform(-1, 1, data.shape, dtype=dtype)
        params = BatchNormParams.create(3, dtype=dtype)
        params.gamma = rng.uniform(0.5, 1.5, 3, dtype=dtype)
        params.beta = rng.uniform(-1, 1, 3, dtype=dtype)
        params.running_mean[...] = rng.uniform(-1, 1, 3)
        params.running_var[...] = rng.uniform(0.5, 2, 3)

        def ch(v):
            return v[None, :, None, None]

        gamma, beta, mom = params.gamma, params.beta, params.momentum
        running_mean, running_var = params.running_mean.copy(), params.running_var.copy()
        if training:
            mu, var = data.mean(axis=(0, 2, 3)), data.var(axis=(0, 2, 3))
            inv = 1.0 / np.sqrt(var + params.eps)
            xhat = (data - ch(mu)) * ch(inv)
            running_mean = (1.0 - mom) * running_mean + mom * mu
            running_var = (1.0 - mom) * running_var + mom * var
        else:
            inv = 1.0 / np.sqrt(running_var + params.eps)
            xhat = (data - ch(running_mean)) * ch(inv)
        want = ch(gamma) * xhat + ch(beta)
        dxhat = probe * ch(gamma)
        if training:
            want_dx = (dxhat - dxhat.mean(axis=(0, 2, 3), keepdims=True)
                       - xhat * (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)) * ch(inv)
        else:
            want_dx = dxhat * ch(inv)

        tape = Tape()
        x, g, b = tape.leaf(data), tape.leaf(gamma), tape.leaf(beta)
        out = batch_norm_node(x, g, b, params, training)
        backward(weighted_sum(out, probe))
        assert out.value.dtype == dtype
        assert out.value.tobytes() == want.tobytes()
        assert params.running_mean.tobytes() == running_mean.tobytes()
        assert params.running_var.tobytes() == running_var.tobytes()
        assert x.grad.tobytes() == want_dx.tobytes()
        assert g.grad.tobytes() == (probe * xhat).sum(axis=(0, 2, 3)).tobytes()
        assert b.grad.tobytes() == probe.sum(axis=(0, 2, 3)).tobytes()

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_keeps_the_statistics_of_its_forward(self, training, dtype):
        # The backward recomputes xhat from the input.  A second node on the
        # same record runs a training step, which updates the running
        # statistics in place before the backward; the first node's value and
        # gradients must keep the bytes they have without it.
        rng = Rng(13)
        data = rng.tensor((2, 3, 5, 4), dtype=dtype).data
        probe = rng.uniform(-1, 1, data.shape, dtype=dtype)
        gamma = rng.uniform(0.5, 1.5, 3, dtype=dtype)
        beta = rng.uniform(-1, 1, 3, dtype=dtype)
        mean, var = rng.uniform(-1, 1, 3), rng.uniform(0.5, 2, 3)

        def run(update_between):
            params = BatchNormParams.create(3, dtype=dtype)
            params.running_mean[...] = mean
            params.running_var[...] = var
            tape = Tape()
            x, g, b = tape.leaf(data), tape.leaf(gamma), tape.leaf(beta)
            out = batch_norm_node(x, g, b, params, training)
            if update_between:
                batch_norm_node(tape.leaf(3 * data + 1), tape.leaf(gamma),
                                tape.leaf(beta), params, training=True)
            backward(weighted_sum(out, probe))
            return out.value, x.grad, g.grad, b.grad

        for got, want in zip(run(True), run(False)):
            assert got.tobytes() == want.tobytes()

    def test_empty_batch_rejected(self):
        params = BatchNormParams.create(2)
        with pytest.raises(ContractError):
            batch_norm(Tensor4(np.zeros((0, 2, 2, 2))), params, training=True)
