import numpy as np
import pytest

from repgraph import (
    AttentionWeights,
    LayerConfig,
    Rng,
    ValidationError,
    affinity_stats,
    init_layer_params,
    repgraph_forward,
    softmax_rows,
)
from repgraph.autograd import Tape
from repgraph.layer import layer_forward_node
from repgraph.stats import write_affinity_csv


class TestImbalance:
    def test_uniform_rows_score_zero(self):
        stats = affinity_stats(np.full((8, 8), 1.0 / 8))
        assert np.array_equal(stats.imbalance, np.zeros(8))
        want = np.arange(1, 9) / 8.0
        assert np.abs(stats.topk_mass - want).max() < 1e-12

    def test_one_hot_rows_score_one(self):
        stats = affinity_stats(np.eye(6))
        assert np.array_equal(stats.imbalance, np.ones(6))
        assert np.array_equal(stats.topk_mass[:, 0], np.ones(6))

    def test_single_column_rows_defined_as_zero(self):
        stats = affinity_stats(np.ones((4, 1)))
        assert np.array_equal(stats.imbalance, np.zeros(4))


class TestTopKCurves:
    def test_matches_sort_and_prefix_sum_oracle(self):
        rng = Rng(0)
        rows = softmax_rows(rng.uniform(-2, 2, (10, 7)))
        stats = affinity_stats(rows)
        for r in range(10):
            want = np.cumsum(sorted(rows[r], reverse=True))
            assert np.abs(stats.topk_mass[r] - want).max() < 1e-12

    def test_monotone_and_terminates_at_one(self):
        rng = Rng(1)
        rows = softmax_rows(rng.uniform(-3, 3, (20, 12)))
        stats = affinity_stats(rows)
        diffs = np.diff(stats.topk_mass, axis=1)
        assert np.all(diffs >= -1e-15)
        assert np.abs(stats.topk_mass[:, -1] - 1.0).max() < 1e-9

    def test_accepts_batched_weights(self):
        rng = Rng(2)
        w = softmax_rows(rng.uniform(-1, 1, (2, 5, 3)))
        stats = affinity_stats(w)
        assert stats.n_rows == 10
        assert stats.row_len == 3

    def test_grouped_layer_weights_give_one_row_per_query_and_group(self):
        cfg = LayerConfig(c=4, cp=6, s=5, groups=2)
        collect = {}
        repgraph_forward(Rng(3).tensor((2, 4, 3, 4)), init_layer_params(cfg, Rng(4)), cfg,
                         collect=collect)
        stats = affinity_stats(collect["weights"].data)
        assert stats.n_rows == 2 * 12 * 2
        assert stats.row_len == 5

    def test_collected_weights_pass_straight_in(self):
        cfg = LayerConfig(c=4, cp=6, s=5, groups=2)
        tape = Tape(grad=False)
        collect = {}
        layer_forward_node(tape, tape.leaf(Rng(3).tensor((2, 4, 3, 4)).data),
                           init_layer_params(cfg, Rng(4)), cfg, collect=collect)
        weights = collect["weights"]
        assert isinstance(weights, AttentionWeights)
        got, want = affinity_stats(weights, "x"), affinity_stats(weights.data, "x")
        assert got.histogram == want.histogram
        assert got.topk_mass.tobytes() == want.topk_mass.tobytes()
        assert got.imbalance.tobytes() == want.imbalance.tobytes()
        assert (got.n_rows, got.row_len, got.source) == (want.n_rows, want.row_len, "x")


class TestValidation:
    def test_rejects_rows_not_summing_to_one(self):
        bad = np.full((3, 4), 0.3)
        with pytest.raises(ValidationError, match="row 0"):
            affinity_stats(bad)

    def test_rejects_negative_entries(self):
        bad = np.array([[1.5, -0.5]])
        with pytest.raises(ValidationError):
            affinity_stats(bad)

    @pytest.mark.parametrize("rows,bad", [
        ([[np.nan, 1.0], [0.5, 0.5]], 0),
        ([[0.5, 0.5], [np.nan, np.nan]], 1),
        ([[0.5, 0.5], [np.inf, 0.0]], 1),
        ([[-np.inf, 1.0]], 0),
        ([[np.inf, -np.inf]], 0),
    ], ids=["nan-and-one", "all-nan", "inf", "minus-inf", "inf-minus-inf"])
    def test_rejects_non_finite_rows(self, rows, bad):
        with pytest.raises(ValidationError, match=f"row {bad} holds a non-finite weight"):
            affinity_stats(np.array(rows))

    @pytest.mark.parametrize("a", [np.zeros((0, 4)), [], [0.5, 0.5], [[]]],
                             ids=["no-rows", "empty-list", "flat-list", "empty-row"])
    def test_rejects_empty(self, a):
        with pytest.raises(ValidationError, match=r"got shape \("):
            affinity_stats(a)


class TestHistogram:
    def test_counts_cover_all_entries(self):
        rng = Rng(3)
        rows = softmax_rows(rng.uniform(-4, 4, (6, 9)))
        stats = affinity_stats(rows)
        assert sum(c for _, _, c in stats.histogram) == 6 * 9

    def test_uniform_lands_in_single_bin(self):
        stats = affinity_stats(np.full((4, 16), 1.0 / 16))
        nonzero = [entry for entry in stats.histogram if entry[2] > 0]
        assert len(nonzero) == 1
        lo, hi, count = nonzero[0]
        assert lo <= 1.0 / 16 <= hi
        assert count == 64

    def test_one_hot_zeros_fall_in_underflow_bin(self):
        stats = affinity_stats(np.eye(5))
        lo, hi, count = stats.histogram[0]
        assert lo == 0.0
        assert count == 20  # the 25 - 5 zeros


class TestCsvOutput:
    def test_two_files_with_declared_schemas(self, tmp_path):
        rng = Rng(4)
        rows = softmax_rows(rng.uniform(-1, 1, (4, 3)))
        stats = affinity_stats(rows)
        hist_path, topk_path = write_affinity_csv(stats, tmp_path / "aff")
        hist = open(hist_path).read().splitlines()
        topk = open(topk_path).read().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"
        assert topk[0] == "row,k,mass"
        assert len(topk) == 1 + 4 * 3
        assert topk[1].startswith("0,1,")
