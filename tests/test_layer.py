import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repgraph import (
    AttentionWeights,
    ContractError,
    LayerConfig,
    OffsetField,
    Projection1x1,
    Rng,
    ShapeError,
    Tensor4,
    dense_equivalence_diff,
    full_grid_offsets,
    init_layer_params,
    project_1x1,
    repgraph_forward,
)
from repgraph import layer, ops
from repgraph.autograd import Tape, backward, weighted_sum
from repgraph.bench import peak_mib
from repgraph.layer import (
    _attention,
    _positions_node,
    _query_spans,
    buffer_arrays,
    layer_forward_node,
)
from repgraph.ops import bilinear_node


def regress_offsets(x, w_off):
    """The offset field a simple layer regresses from ``x`` with ``w_off``."""
    cfg = LayerConfig(c=x.shape[1], cp=2, s=max(1, w_off.c_out // 2))
    params = init_layer_params(cfg, Rng(0))
    params.w_off = w_off
    collect = {}
    repgraph_forward(x, params, cfg, collect=collect)
    return collect["offsets"]


def sample_representative(x, off):
    """Sample ``x`` at (query position + offset): features [n, S, c, P], positions [n, S, 2, P]."""
    n, _, h, w = off.data.shape
    tape = Tape()
    py, px = _positions_node(tape.leaf(off.data), np.repeat(np.arange(h, dtype=float), w),
                             np.tile(np.arange(w, dtype=float), h))
    # The layer samples node-major, [n, P, S, c] and positions [n, P, S].
    batch = np.arange(n)[:, None, None]
    features = bilinear_node(tape.leaf(x.data), py, px, batch).value.transpose(0, 2, 3, 1)
    return features, np.stack([py.value, px.value], axis=-1).transpose(0, 2, 3, 1)


def attention(theta, key_features, value_features):
    """Attend the [N, C'] queries over [1, S, C', N] sampled sets in one group.

    Returns x_tilde [N, C'] and the [1, N, 1, S] weights.
    """
    tape = Tape()
    # The layer attends over node-major [n, N, S, C'] sets.
    xt, w = _attention(tape.leaf(theta[None]),
                       tape.leaf(key_features.transpose(0, 3, 1, 2)),
                       tape.leaf(value_features.transpose(0, 3, 1, 2)), groups=1)
    return xt.value[0], AttentionWeights(w.value)


class TestLayerConfig:
    def test_validates_enums(self):
        with pytest.raises(ContractError):
            LayerConfig(c=4, cp=2, variant="huge").validate()
        with pytest.raises(ContractError):
            LayerConfig(c=4, cp=2, s=0).validate()

    def test_pretrained_insert_requires_sum(self):
        with pytest.raises(ContractError):
            LayerConfig(c=4, cp=2, fusion="concat", init_mode="pretrained_insert")

    def test_dense_block_inherits_the_insertion_guard(self):
        # Concat fusion has no residual path: a zero output branch gives zeros,
        # not the identity.
        with pytest.raises(ContractError):
            LayerConfig(c=6, cp=3, variant="nonlocal", fusion="concat",
                        init_mode="pretrained_insert")

    @pytest.mark.parametrize("mode", [{"gs": 2}, {"groups": 2}], ids=["gs", "groups"])
    def test_dense_block_takes_no_grid_or_channel_groups(self, mode):
        LayerConfig(c=4, cp=2, variant="nonlocal")
        with pytest.raises(ContractError):
            LayerConfig(c=4, cp=2, variant="nonlocal", **mode)

    def test_dense_block_takes_no_offsets(self):
        cfg = LayerConfig(c=4, cp=2, s=4, variant="nonlocal")
        x = Rng(0).tensor((1, 4, 2, 2))
        with pytest.raises(ContractError):
            repgraph_forward(x, init_layer_params(cfg, Rng(0)), cfg,
                             offsets=full_grid_offsets(1, 2, 2))

    def test_parameters_need_an_explicit_stream(self):
        # A layer description carries no random stream; the caller brings one.
        with pytest.raises(TypeError):
            init_layer_params(LayerConfig(c=4, cp=2))


class TestRegressOffsets:
    def test_zero_weights_give_zero_offsets(self):
        x = Rng(0).tensor((1, 4, 3, 3))
        w_off = Projection1x1(np.zeros((6, 4)), np.zeros(6))
        off = regress_offsets(x, w_off)
        assert off.s == 3
        assert np.array_equal(off.data, np.zeros((1, 6, 3, 3)))

    def test_bias_only_shifts_one_row_down(self):
        x = Rng(1).tensor((1, 3, 4, 4))
        bias = np.zeros(2)
        bias[0] = 1.0  # dy of the single sample
        w_off = Projection1x1(np.zeros((2, 3)), bias)
        off = regress_offsets(x, w_off)
        features, positions = sample_representative(x, off)
        # Every query's sample sits one row below it; bottom row falls outside.
        want_y = np.repeat(np.arange(4), 4) + 1.0
        assert np.array_equal(positions[0, 0, 0], want_y)
        for p in range(16):
            i, j = divmod(p, 4)
            want = x.data[0, :, i + 1, j] if i + 1 < 4 else np.zeros(3)
            assert np.array_equal(features[0, 0, :, p], want)

    def test_equals_projection_oracle(self):
        rng = Rng(2)
        x = rng.tensor((2, 5, 3, 4))
        w_off = Projection1x1(rng.uniform(-1, 1, (8, 5)), rng.uniform(-1, 1, 8))
        off = regress_offsets(x, w_off)
        assert np.array_equal(off.data, project_1x1(x, w_off).data)

    def test_odd_channel_count_rejected(self):
        with pytest.raises(ContractError):
            regress_offsets(Rng(0).tensor((1, 3, 2, 2)), Projection1x1(np.zeros((3, 3))))


class TestSampleRepresentative:
    def test_zero_offsets_self_sample(self):
        rng = Rng(3)
        x = rng.tensor((2, 4, 3, 3))
        off = OffsetField(np.zeros((2, 4, 3, 3)))
        features, _ = sample_representative(x, off)
        flat = x.data.reshape(2, 4, 9)
        for s in range(2):
            assert np.array_equal(features[:, s], flat)

    def test_offsets_outside_map_sample_zero(self):
        x = Rng(4).tensor((1, 3, 3, 3))
        off = OffsetField(np.full((1, 2, 3, 3), 50.0))
        features, _ = sample_representative(x, off)
        assert np.array_equal(features, np.zeros_like(features))

    def test_matches_bilinear_oracle_per_position(self):
        rng = Rng(5)
        x = rng.tensor((1, 3, 4, 5))
        off = OffsetField(rng.uniform(-2.0, 2.0, (1, 4, 4, 5)))
        features, positions = sample_representative(x, off)
        tape = Tape()
        x_node = tape.leaf(x.data)
        for s in range(2):
            for p in range(20):
                i, j = divmod(p, 5)
                py = i + off.data[0, 2 * s, i, j]
                px = j + off.data[0, 2 * s + 1, i, j]
                want = bilinear_node(x_node, tape.leaf([py]), tape.leaf([px]), 0).value[0]
                assert np.abs(features[0, s, :, p] - want).max() < 1e-12
                assert positions[0, s, 0, p] == py
                assert positions[0, s, 1, p] == px

    def test_spatial_mismatch_rejected(self):
        cfg = LayerConfig(c=3, cp=2, s=1)
        with pytest.raises(ShapeError):
            repgraph_forward(
                Rng(0).tensor((1, 3, 4, 4)), init_layer_params(cfg, Rng(0)), cfg,
                offsets=OffsetField(np.zeros((1, 2, 3, 3))),
            )


class TestRepGraphAttention:
    def test_single_sample_weight_is_one(self):
        rng = Rng(6)
        theta = rng.uniform(-1, 1, (10, 4))
        feats = rng.uniform(-1, 1, (1, 1, 4, 10))
        val = rng.uniform(-1, 1, (1, 1, 4, 10))
        x_tilde, weights = attention(theta, feats, val)
        assert np.array_equal(weights.data, np.ones((1, 10, 1, 1)))
        assert np.abs(x_tilde - val[0, 0].T).max() < 1e-15

    def test_zero_queries_give_uniform_weights_and_mean(self):
        rng = Rng(7)
        s = 5
        feats = rng.uniform(-1, 1, (1, s, 3, 8))
        val = rng.uniform(-1, 1, (1, s, 3, 8))
        x_tilde, weights = attention(np.zeros((8, 3)), feats, val)
        assert np.abs(weights.data - 1.0 / s).max() < 1e-15
        want = val[0].mean(axis=0).T
        assert np.abs(x_tilde - want).max() < 1e-12

    def test_s_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            attention(np.zeros((4, 3)), np.zeros((1, 2, 3, 4)), np.zeros((1, 3, 3, 4)))

    def test_attention_weights_validation(self):
        with pytest.raises(ContractError):
            AttentionWeights(np.full((1, 2, 1, 2), 0.9))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("row", [
        [np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf],
    ], ids=["all-nan", "nan-and-one", "inf", "minus-inf", "inf-minus-inf"])
    def test_attention_weights_reject_non_finite_rows(self, row, dtype):
        data = np.array([[0.5, 0.5], row], dtype=dtype).reshape(1, 2, 1, 2)
        with pytest.raises(ContractError, match="distributions summing to 1"):
            AttentionWeights(data)

    def test_attention_weights_need_a_group_axis(self):
        with pytest.raises(ShapeError, match=r"\[n, N, G, S\]"):
            AttentionWeights(np.full((1, 2, 2), 0.5))


class TestDenseEquivalence:
    @pytest.mark.parametrize("side", [2, 4, 6])
    def test_full_grid_sampling_matches_dense(self, side):
        diff = dense_equivalence_diff(side * side, seed=side)
        assert diff < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        side=st.integers(2, 5),
        c=st.integers(1, 8),
        cp=st.integers(1, 6),
        batch=st.integers(1, 3),
        fusion=st.sampled_from(["sum", "concat"]),
        seed=st.integers(0, 2**16),
    )
    def test_dense_equivalence_over_geometries(self, side, c, cp, batch, fusion, seed):
        diff = dense_equivalence_diff(side * side, seed=seed, c=c, cp=cp,
                                      batch=batch, fusion=fusion)
        assert diff < 1e-9

    def test_full_grid_offsets_enumerate_grid(self):
        off = full_grid_offsets(1, 2, 3)
        rep_y = off.data[0, 0::2]  # dy of every sample at every query
        qy = np.repeat(np.arange(2), 3).reshape(2, 3)
        node_y = np.arange(6) // 3
        for k in range(6):
            assert np.array_equal(rep_y[k] + qy, np.full((2, 3), node_y[k]))


class TestSimpleLayer:
    def test_pretrained_insert_is_exact_identity(self):
        rng = Rng(8)
        cfg = LayerConfig(c=5, cp=3, s=4, init_mode="pretrained_insert")
        params = init_layer_params(cfg, rng)
        for seed in range(3):
            x = Rng(seed).tensor((2, 5, 4, 3))
            y = repgraph_forward(x, params, cfg)
            assert np.array_equal(y.data, x.data)

    def test_single_node_hand_trace(self):
        # h = w = 1, C = C' = S = 1: the layer collapses to one bilinear
        # weight on a 1x1 map, evaluated here from the closed formula.
        cfg = LayerConfig(c=1, cp=1, s=1)
        xv, wt, wp, wg, wy = 2.0, 1.3, 0.7, -0.9, 0.5
        dy, dx = 0.2, -0.15  # per-unit-input offset regression weights
        params = init_layer_params(cfg, Rng(0))
        params.theta.weight[:] = wt
        params.phi.weight[:] = wp
        params.g.weight[:] = wg
        params.w_out.weight[:] = wy
        params.w_off.weight[0, 0] = dy
        params.w_off.weight[1, 0] = dx
        params.w_off.bias[:] = 0.0
        for proj in (params.theta, params.phi, params.g, params.w_out):
            proj.bias[:] = 0.0

        x = Tensor4(np.full((1, 1, 1, 1), xv))
        y = repgraph_forward(x, params, cfg)

        off_y, off_x = dy * xv, dx * xv
        kernel = max(0.0, 1.0 - abs(off_y)) * max(0.0, 1.0 - abs(off_x))
        want = wy * (kernel * (wg * xv)) + xv  # softmax over one sample is 1
        assert abs(y.data[0, 0, 0, 0] - want) < 1e-12

    def test_single_node_with_out_of_range_offset(self):
        cfg = LayerConfig(c=1, cp=1, s=1)
        params = init_layer_params(cfg, Rng(0))
        params.w_off.weight[:] = 0.0
        params.w_off.bias[:] = np.array([7.0, -3.0])  # sample far off the map
        x = Tensor4(np.full((1, 1, 1, 1), 2.0))
        y = repgraph_forward(x, params, cfg)
        want = params.w_out.weight[0, 0] * 0.0 + params.w_out.bias[0] + 2.0
        assert abs(y.data[0, 0, 0, 0] - want) < 1e-12

    def test_offset_weights_receive_gradient(self):
        rng = Rng(9)
        cfg = LayerConfig(c=4, cp=3, s=2)
        params = init_layer_params(cfg, rng)
        tape = Tape()
        x = tape.leaf(rng.uniform(-1, 1, (1, 4, 4, 4)))
        y = layer_forward_node(tape, x, params, cfg)
        backward(weighted_sum(y, rng.uniform(-1, 1, y.value.shape)))
        assert np.linalg.norm(tape.params["w_off.w"].grad) > 0

    def test_concat_fusion_restores_width(self):
        rng = Rng(10)
        cfg = LayerConfig(c=5, cp=3, s=2, fusion="concat")
        params = init_layer_params(cfg, rng)
        x = rng.tensor((1, 5, 3, 3))
        y = repgraph_forward(x, params, cfg)
        assert y.shape == x.shape
        assert params.w_out.c_in == 5 + 3

    def test_offsets_from_theta_source(self):
        rng = Rng(11)
        cfg = LayerConfig(c=5, cp=3, s=2, offset_source="theta")
        params = init_layer_params(cfg, rng)
        assert params.w_off.c_in == 3
        x = rng.tensor((1, 5, 3, 3))
        assert repgraph_forward(x, params, cfg).shape == x.shape


class TestBottleneckLayer:
    def test_pretrained_insert_is_exact_identity(self):
        cfg = LayerConfig(c=6, cp=3, s=2, variant="bottleneck",
                          init_mode="pretrained_insert")
        params = init_layer_params(cfg, Rng(12))
        for seed in range(3):
            x = Rng(seed).tensor((1, 6, 3, 4))
            y = repgraph_forward(x, params, cfg)
            assert np.array_equal(y.data, x.data)

    def test_fresh_mode_final_relu_hand_trace(self):
        # 1x1 spatial map in eval mode: every stage is a closed-form affine
        # map, so the full output (including the final ReLU) is hand-computable.
        cfg = LayerConfig(c=2, cp=1, s=1, variant="bottleneck")
        params = init_layer_params(cfg, Rng(13))
        x = Tensor4(np.array([[[[1.5]], [[-0.5]]]]))
        y = repgraph_forward(x, params, cfg, training=False)

        v = x.data[0, :, 0, 0]
        eps = params.bn_reduce.eps
        red = params.reduce.weight @ v + params.reduce.bias
        red = params.bn_reduce.gamma * red / np.sqrt(1.0 + eps) + params.bn_reduce.beta
        red = np.maximum(red, 0.0)
        off = params.w_off.weight @ red + params.w_off.bias
        kernel = max(0.0, 1.0 - abs(off[0])) * max(0.0, 1.0 - abs(off[1]))
        x_tilde = kernel * red  # single sample, weight 1
        exp = params.expand.weight @ x_tilde + params.expand.bias
        exp = params.bn_expand.gamma * exp / np.sqrt(1.0 + eps) + params.bn_expand.beta
        want = np.maximum(exp + v, 0.0)
        assert np.abs(y.data[0, :, 0, 0] - want).max() < 1e-12
        assert (want > 0).any() and (exp + v < want + 1e-12).all()

    def test_no_final_relu_in_pretrained_mode(self):
        cfg = LayerConfig(c=3, cp=2, s=1, variant="bottleneck",
                          init_mode="pretrained_insert")
        params = init_layer_params(cfg, Rng(14))
        x = Tensor4(-np.abs(Rng(15).uniform(0.1, 1.0, (1, 3, 2, 2))))
        y = repgraph_forward(x, params, cfg)
        assert np.array_equal(y.data, x.data)  # negatives survive


class TestAttentionRowSums:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([1, 9, 27]),
        st.integers(0, 10_000),
        st.sampled_from(["simple", "bottleneck"]),
    )
    def test_rows_sum_to_one_across_fuzzed_configs(self, s, seed, variant):
        rng = Rng(seed)
        cfg = LayerConfig(c=4, cp=2, s=s, variant=variant)
        params = init_layer_params(cfg, rng)
        collect = {}
        repgraph_forward(rng.tensor((1, 4, 3, 3)), params, cfg, collect=collect)
        w = collect["weights"].data
        assert w.shape == (1, 9, 1, s)
        assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-10


# Every structural combination a layer config exposes; the dense block takes
# neither grid nor channel groups.
_FORWARD_CASES = [
    (variant, fusion, gs, groups)
    for variant, fusion, gs, groups in itertools.product(
        ("simple", "bottleneck", "nonlocal"), ("sum", "concat"), (1, 2), (1, 2))
    if variant != "nonlocal" or (gs, groups) == (1, 1)
]


def _collected(collect):
    return {k: np.asarray(getattr(v, "data", v)) for k, v in collect.items()}


class TestForwardWithoutGradients:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("variant,fusion,gs,groups", _FORWARD_CASES)
    def test_bytes_match_a_grad_tape_forward(self, variant, fusion, gs, groups, training,
                                             dtype):
        cfg = LayerConfig(c=6, cp=4, s=3, variant=variant, fusion=fusion, gs=gs,
                          groups=groups)
        x = Rng(21).tensor((2, 6, 5, 4), dtype=dtype)
        # Training batch norm updates the running statistics, so each run
        # gets its own copy of the same record.
        params = [init_layer_params(cfg, Rng(22), dtype=dtype) for _ in range(2)]
        collects = [{}, {}]
        tape = Tape()
        want = layer_forward_node(tape, tape.leaf(x.data), params[0], cfg,
                                  training=training, collect=collects[0]).value
        got = repgraph_forward(x, params[1], cfg, training=training, collect=collects[1]).data
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        want_c, got_c = _collected(collects[0]), _collected(collects[1])
        assert sorted(got_c) == sorted(want_c) and "weights" in got_c
        for key in want_c:
            assert got_c[key].dtype == want_c[key].dtype
            assert got_c[key].tobytes() == want_c[key].tobytes(), key
        for a, b in zip(buffer_arrays(params[0]).values(), buffer_arrays(params[1]).values()):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def _peaks(variant):
        """Grad-tape and no-grad forward peaks in MiB at c=64, C'=16, S=9 on 1x64x32x32 f64."""
        cfg = LayerConfig(c=64, cp=16, s=9, variant=variant)
        x = Rng(23).tensor((1, 64, 32, 32))
        params = init_layer_params(cfg, Rng(0))

        def grad_tape():
            tape = Tape()
            return layer_forward_node(tape, tape.leaf(x.data), params, cfg).value

        return peak_mib(grad_tape), peak_mib(lambda: repgraph_forward(x, params, cfg))

    def test_forward_peak_is_below_the_grad_tape_peak(self):
        # The grad tape peaks at 4.22 MiB and the no-grad forward at 2.56.  A
        # no-grad forward that kept its graph would peak where the grad tape
        # does, above 2.99 MiB (0.6 of the grad tape's 4.99 before the bias
        # and residual added into the projections' products).
        with_graph, without = self._peaks("bottleneck")
        assert without <= 2.99 and without < with_graph

    # The grad tape's peak with the bias and residual added into each
    # projection's product: bottleneck 4.22 MiB, simple 4.08.  Each kept a
    # pre-bias copy before (4.98 and 5.35 MiB).
    @pytest.mark.parametrize("variant,bound", [("bottleneck", 4.4), ("simple", 4.3)])
    def test_grad_tape_peak_keeps_no_pre_bias_copies(self, variant, bound):
        with_graph, _ = self._peaks(variant)
        assert with_graph <= bound


class TestQuerySpans:
    """The span rule both attention cores run their queries in."""

    # 13 units of 10 bytes.  (units that fit, units per span): 6 fit give 3
    # spans of 5, 5, 3; 8 or 12 give 2 spans of 7 and 6.
    @pytest.mark.parametrize("fit,size", [(1, 1), (4, 4), (6, 5), (8, 7), (12, 7), (13, 13),
                                          (99, 13)])
    def test_spans_are_the_fewest_that_fit_with_the_fewest_units(self, fit, size):
        want = [(lo, min(13, lo + size)) for lo in range(0, 13, size)]
        assert len(want) == -(-13 // fit)
        for budget in (fit * 10, fit * 10 + 9):
            assert _query_spans(False, 13, 10, budget) == want

    def test_a_span_takes_one_unit_at_least(self):
        assert _query_spans(False, 13, 10, 1) == [(i, i + 1) for i in range(13)]
        assert _query_spans(False, 13, 10, 0) == [(i, i + 1) for i in range(13)]

    def test_min_units_floor_keeps_a_short_last_span(self):
        # The dense block's floor: below 64 rows a span takes 64, and so does
        # the first of 65 rows that two spans would otherwise split evenly.
        assert _query_spans(False, 208, 10, 1, 64) == [(0, 64), (64, 128), (128, 192),
                                                        (192, 208)]
        assert _query_spans(False, 65, 10, 640, 64) == [(0, 64), (64, 65)]
        assert _query_spans(False, 208, 10, 1000, 64) == [(0, 70), (70, 140), (140, 208)]
        assert _query_spans(False, 13, 10, 1, 64) == [(0, 13)]

    @pytest.mark.parametrize("min_units", [1, 64])
    def test_a_grad_tape_gets_one_span(self, min_units):
        # Its backward keeps every span's working set anyway.
        assert _query_spans(True, 208, 10, 1, min_units) == [(0, 208)]
        assert _query_spans(True, 13, 1 << 40, 1, min_units) == [(0, 13)]


class TestSparseQueryBlocks:
    # (variant, gs, groups, input shape); gs=2 over 13 rows and gs=3 over 37
    # rows both end in a partial group row.
    CASES = [
        ("simple", 1, 1, (2, 6, 13, 11)),
        ("bottleneck", 1, 1, (2, 6, 13, 11)),
        ("bottleneck", 2, 1, (2, 6, 13, 11)),
        ("bottleneck", 3, 1, (1, 6, 37, 23)),
        ("bottleneck", 1, 2, (2, 6, 13, 11)),
    ]

    @pytest.fixture
    def forward(self, monkeypatch):
        """``forward(cfg, params, data, block_bytes, grad)`` -> (blocks, output,
        collected arrays)."""
        softmax = ops.softmax_node
        calls = []
        monkeypatch.setattr(ops, "softmax_node", lambda a: calls.append(a.shape) or softmax(a))

        def run(cfg, params, data, block_bytes, grad=False):
            monkeypatch.setattr(layer, "_SPARSE_BLOCK_BYTES", block_bytes)
            calls.clear()
            tape, collect = Tape(grad=grad), {}
            out = layer_forward_node(tape, tape.leaf(data), params, cfg, collect=collect)
            return len(calls), out.value, _collected(collect)
        return run

    @pytest.mark.parametrize("fusion", ["sum", "concat"])
    @pytest.mark.parametrize("variant,gs,groups,shape", CASES)
    def test_result_does_not_depend_on_the_block_size(self, forward, variant, gs, groups,
                                                      shape, fusion):
        cfg = LayerConfig(c=6, cp=4, s=3, variant=variant, fusion=fusion, gs=gs,
                          groups=groups)
        x = Rng(40).uniform(-1, 1, shape)
        group_rows = -(-shape[2] // gs)
        for dtype in (np.float32, np.float64):
            params = init_layer_params(cfg, Rng(42), dtype=dtype)
            data = x.astype(dtype)
            blocks, want_out, want_collected = forward(cfg, params, data, 1 << 40)
            assert blocks == 1
            # One byte per block: every block is one group row.
            blocks, out, collected = forward(cfg, params, data, 1)
            assert blocks == group_rows
            assert out.dtype == dtype
            assert out.tobytes() == want_out.tobytes()
            assert sorted(collected) == ["offsets", "positions", "weights"]
            for key in want_collected:
                assert collected[key].tobytes() == want_collected[key].tobytes(), key
            # A grad tape keeps every block's sets for the backward anyway, so
            # it runs one block, whose bytes are the blocked forward's.
            blocks, grad_out, grad_collected = forward(cfg, params, data, 1, grad=True)
            assert blocks == 1
            assert grad_out.tobytes() == out.tobytes()
            for key in collected:
                assert grad_collected[key].tobytes() == collected[key].tobytes(), key

    @pytest.mark.parametrize("variant,n_sets", [("simple", 2), ("bottleneck", 1)])
    def test_a_block_holds_at_most_its_budget_of_sets(self, forward, variant, n_sets):
        cfg = LayerConfig(c=8, cp=4, s=2, variant=variant, gs=3)
        params = init_layer_params(cfg, Rng(45))
        data = Rng(46).uniform(-1, 1, (2, 8, 37, 10))
        # 37 rows are 13 group rows.  A group row's sets hold 3 x 10 queries'
        # S x C' values per map and set, in f64.
        row_bytes = 2 * n_sets * 3 * 10 * 2 * 4 * 8
        for fit in (4, 7, 13):
            assert forward(cfg, params, data, fit * row_bytes)[0] == -(-13 // fit)
            assert forward(cfg, params, data, fit * row_bytes - 1)[0] == -(-13 // (fit - 1))

    @pytest.mark.parametrize("variant,maps", [("simple", 2), ("bottleneck", 1)])
    def test_each_sampled_map_is_bordered_once_per_forward(self, monkeypatch, variant, maps):
        # The simple layer samples phi and g, the bottleneck one reduced map
        # for key and value.  Each map's bordered copy is built once, before
        # the spans, however many spans sample it.
        cfg = LayerConfig(c=6, cp=4, s=3, variant=variant)
        params = init_layer_params(cfg, Rng(47))
        x = Rng(48).tensor((2, 6, 13, 11))
        built, sampled = [], []
        pixel_major, bilinear = ops._pixel_major, ops.bilinear_node
        monkeypatch.setattr(ops, "_pixel_major",
                            lambda *a: built.append(a[0].shape) or pixel_major(*a))
        monkeypatch.setattr(ops, "bilinear_node",
                            lambda *a, **k: sampled.append(a[1].value.shape) or bilinear(*a, **k))
        _, row_bytes, _, _ = layer._span_plan(cfg, 2, 13, 11, 8)
        want = None
        # 13 rows run in 1, 4 and 13 spans.
        for block_bytes, spans in ((1 << 40, 1), (4 * row_bytes, 4), (1, 13)):
            monkeypatch.setattr(layer, "_SPARSE_BLOCK_BYTES", block_bytes)
            built.clear()
            sampled.clear()
            out = repgraph_forward(x, params, cfg).data
            assert built == [(2, 4, 13, 11)] * maps
            assert len(sampled) == spans * maps
            want = out if want is None else want
            assert out.tobytes() == want.tobytes()

    def test_forward_never_holds_every_querys_sampled_set(self):
        # At c=256 the bottleneck's tail holds 20 MiB of [C, N] maps, so the
        # input width is C'; the sets then set the peak.
        cfg = LayerConfig(c=64, cp=64, s=9, variant="bottleneck")
        params = init_layer_params(cfg, rng=Rng(43), dtype=np.float32)
        x = Rng(44).tensor((1, 64, 128, 64), dtype=np.float32)
        set_mib = 128 * 64 * cfg.s * cfg.cp * 4 / 2**20
        assert set_mib == 18
        assert peak_mib(lambda: repgraph_forward(x, params, cfg)) < set_mib
