from dataclasses import replace

import numpy as np
import pytest

from repgraph import (
    ContractError,
    LayerConfig,
    Rng,
    Tensor4,
    init_layer_params,
    repgraph_forward,
)
from repgraph.autograd import Tape
from repgraph.layer import layer_forward_node

from layer_oracles import naive_grid_forward, slice_dispatch_oracle


class TestGridRepGraph:
    def test_gs1_matches_naive_per_group_oracle(self):
        rng = Rng(0)
        cfg = LayerConfig(c=4, cp=3, s=2)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((2, 4, 5, 4))
        got = repgraph_forward(x, params, replace(cfg, gs=1))
        want = naive_grid_forward(x, params, cfg, 1)
        assert np.abs(got.data - want).max() < 1e-12

    def test_matches_naive_per_group_oracle(self):
        rng = Rng(1)
        cfg = LayerConfig(c=4, cp=3, s=2)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((1, 4, 6, 6))
        got = repgraph_forward(x, params, replace(cfg, gs=3))
        want = naive_grid_forward(x, params, cfg, 3)
        assert np.abs(got.data - want).max() < 1e-12

    def test_oracle_also_covers_uneven_grids(self):
        rng = Rng(2)
        cfg = LayerConfig(c=3, cp=2, s=3)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((2, 3, 5, 7))
        got = repgraph_forward(x, params, replace(cfg, gs=2))
        want = naive_grid_forward(x, params, cfg, 2)
        assert np.abs(got.data - want).max() < 1e-12

    def test_single_group_when_gs_covers_map(self):
        rng = Rng(3)
        cfg = LayerConfig(c=3, cp=2, s=2)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((1, 3, 4, 4))
        collect = {}
        got = repgraph_forward(x, params, replace(cfg, gs=4), collect=collect)
        # One offset site anchored at (0, 0); every position shares its set.
        assert collect["offsets"].data.shape == (1, 4, 1, 1)
        assert collect["positions"].shape == (1, 2, 2, 1)
        off = collect["offsets"].data
        assert np.array_equal(collect["positions"][0, :, 0, 0], off[0, 0::2, 0, 0])
        want = naive_grid_forward(x, params, cfg, 4)
        assert np.abs(got.data - want).max() < 1e-12

    def test_f32_input_gives_f32_output(self):
        cfg = LayerConfig(c=4, cp=3, s=2)
        x = Rng(12).tensor((1, 4, 5, 7), dtype=np.float32)
        got = repgraph_forward(x, init_layer_params(cfg, Rng(13), dtype=np.float32),
                               replace(cfg, gs=2))
        want = repgraph_forward(Tensor4(x.data.astype(np.float64)),
                                init_layer_params(cfg, Rng(13)), replace(cfg, gs=2))
        assert got.data.dtype == np.float32
        tol = 1e3 * np.finfo(np.float32).eps * max(1.0, np.abs(want.data).max())
        assert np.abs(got.data - want.data).max() <= tol

    def test_invalid_gs_rejected(self):
        cfg = LayerConfig(c=3, cp=2, s=2)
        params = init_layer_params(cfg, Rng(0))
        with pytest.raises(ContractError):
            repgraph_forward(Rng(0).tensor((1, 3, 4, 4)), params, replace(cfg, gs=0))


class TestGroupRepGraph:
    def test_g1_matches_slice_dispatch_oracle(self):
        rng = Rng(4)
        cfg = LayerConfig(c=5, cp=4, s=3)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((1, 5, 3, 4))
        got = repgraph_forward(x, params, replace(cfg, groups=1))
        want, _ = slice_dispatch_oracle(x, params, cfg, 1)
        assert np.abs(got.data - want).max() < 1e-12

    def test_matches_slice_dispatch_oracle(self):
        rng = Rng(5)
        cfg = LayerConfig(c=6, cp=8, s=3)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((2, 6, 3, 3))
        collect = {}
        got = repgraph_forward(x, params, replace(cfg, groups=4), collect=collect)
        want, slice_weights = slice_dispatch_oracle(x, params, cfg, 4)
        assert np.abs(got.data - want).max() < 1e-12
        for g, weights in enumerate(slice_weights):
            assert np.abs(collect["weights"].data[:, :, g] - weights[:, :, 0]).max() < 1e-12

    def test_one_channel_per_group(self):
        rng = Rng(6)
        cfg = LayerConfig(c=4, cp=4, s=2)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((1, 4, 3, 3))
        got = repgraph_forward(x, params, replace(cfg, groups=4))
        want, _ = slice_dispatch_oracle(x, params, cfg, 4)
        assert np.abs(got.data - want).max() < 1e-12

    def test_per_group_rows_sum_to_one(self):
        rng = Rng(7)
        cfg = LayerConfig(c=4, cp=6, s=4)
        params = init_layer_params(cfg, rng)
        collect = {}
        repgraph_forward(rng.tensor((1, 4, 3, 3)), params, replace(cfg, groups=3),
                         collect=collect)
        w = collect["weights"].data
        assert w.shape == (1, 9, 3, 4)
        assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-10

    @pytest.mark.parametrize("variant", ["simple", "bottleneck"])
    def test_group_count_adds_no_tape_nodes(self, variant):
        rng = Rng(8)
        cfg = LayerConfig(c=4, cp=8, s=3, variant=variant)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((1, 4, 3, 3))
        recorded = []
        for groups in (1, 4):
            tape = Tape()
            layer_forward_node(tape, tape.leaf(x.data), params, replace(cfg, groups=groups))
            recorded.append(tape.next_id)
        assert recorded[0] == recorded[1]

    def test_non_divisible_width_names_both(self):
        cfg = LayerConfig(c=4, cp=6, s=2)
        params = init_layer_params(cfg, Rng(0))
        with pytest.raises(ContractError, match=r"C'=6.*G=4"):
            repgraph_forward(Rng(0).tensor((1, 4, 3, 3)), params, replace(cfg, groups=4))


class TestVariantFlops:
    def test_grid_macs_monotone_in_gs(self):
        from repgraph import count_flops

        totals = [
            count_flops("grid", 32, 32, 64, 16, s=9, gs=gs).total_macs
            for gs in (1, 2, 4, 8, 16, 32)
        ]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_grid_gs1_equals_brg(self):
        from repgraph import count_flops

        a = count_flops("grid", 16, 16, 32, 8, s=5, gs=1)
        b = count_flops("brg", 16, 16, 32, 8, s=5)
        assert a.total_macs == b.total_macs

    def test_group_equals_brg_total(self):
        from repgraph import count_flops

        a = count_flops("group", 16, 16, 32, 8, s=5, groups=4)
        b = count_flops("brg", 16, 16, 32, 8, s=5)
        assert a.total_macs == b.total_macs
