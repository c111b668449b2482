import numpy as np
import pytest

from repgraph import ContractError, LayerConfig, Rng, count_flops, fit_scaling_exponent
from repgraph.flops import BLOCKS
from repgraph.layer import init_layer_params

TABLE_GEOMETRY = dict(h=256, w=128, c=2048, cp=256, s=9)


class TestHandCounts:
    """Unit geometry (N = 1, S = 1, C = C' = 1): every part is hand-countable."""

    def test_nl_parts(self):
        report = count_flops("nl", 1, 1, 1, 1, s=1)
        assert dict(report.parts) == {
            "theta_proj": 1,
            "phi_proj": 1,
            "g_proj": 1,
            "attn_logits": 1,
            "attn_aggregate": 1,
            "fusion_out": 1,
        }
        assert report.total_macs == 6

    def test_srg_parts(self):
        report = count_flops("srg", 1, 1, 1, 1, s=1)
        assert dict(report.parts) == {
            "theta_proj": 1,
            "phi_proj": 1,
            "g_proj": 1,
            "offset_conv": 2,
            "sample_key": 4,
            "sample_value": 4,
            "attn_logits": 1,
            "attn_aggregate": 1,
            "fusion_out": 1,
        }
        assert report.total_macs == 16

    def test_brg_parts(self):
        report = count_flops("brg", 1, 1, 1, 1, s=1)
        assert dict(report.parts) == {
            "reduce_proj": 1,
            "offset_conv": 2,
            "sample_shared": 4,
            "attn_logits": 1,
            "attn_aggregate": 1,
            "expand_proj": 1,
        }
        assert report.total_macs == 10


class TestReferenceGeometry:
    def test_nl_reproduces_published_total(self):
        report = count_flops("nl", **TABLE_GEOMETRY)
        assert abs(report.gflops - 601.4) / 601.4 < 0.10

    def test_brg_reproduces_published_total(self):
        report = count_flops("brg", **TABLE_GEOMETRY)
        assert abs(report.gflops - 34.96) / 34.96 < 0.10

    def test_dense_to_sparse_ratio(self):
        nl = count_flops("nl", **TABLE_GEOMETRY)
        brg = count_flops("brg", **TABLE_GEOMETRY)
        assert nl.total_macs / brg.total_macs >= 15

    def test_srg_cheaper_than_nl(self):
        nl = count_flops("nl", **TABLE_GEOMETRY)
        srg = count_flops("srg", **TABLE_GEOMETRY)
        assert srg.total_macs < nl.total_macs


class TestScaling:
    def test_dense_attention_quadratic_in_n(self):
        exp = fit_scaling_exponent("nl", [256, 1024, 4096], c=64, cp=16)
        assert abs(exp - 2.0) < 0.05

    def test_sparse_attention_linear_in_n(self):
        for block in ("srg", "brg"):
            exp = fit_scaling_exponent(block, [256, 1024, 4096], c=64, cp=16, s=9)
            assert abs(exp - 1.0) < 0.05

    def test_exact_part_formulas_over_sweep(self):
        for side in (4, 8, 16):
            n = side * side
            nl = count_flops("nl", side, side, 8, 4)
            assert nl.attention_core_macs == 2 * n * n * 4
            srg = count_flops("srg", side, side, 8, 4, s=3)
            assert srg.attention_core_macs == 2 * n * 3 * 4


class TestReportShape:
    def test_total_is_sum_of_parts(self):
        report = count_flops("srg", 16, 8, 32, 16, s=5, fusion="concat")
        assert report.total_macs == sum(m for _, m in report.parts)

    def test_concat_fusion_widens_output(self):
        s = count_flops("srg", 8, 8, 16, 4, s=2, fusion="sum")
        c = count_flops("srg", 8, 8, 16, 4, s=2, fusion="concat")
        assert dict(c.parts)["fusion_out"] == 8 * 8 * (16 + 4) * 16
        assert c.total_macs > s.total_macs

    def test_batch_scales_counts(self):
        a = count_flops("brg", 8, 8, 16, 4, s=2, n=1)
        b = count_flops("brg", 8, 8, 16, 4, s=2, n=3)
        assert b.total_macs == 3 * a.total_macs

    @pytest.mark.parametrize("block,variant", [("srg", "simple"), ("brg", "bottleneck")])
    def test_offset_conv_is_the_layers_offset_projection(self, block, variant):
        cfg = LayerConfig(c=16, cp=8, s=3, variant=variant)
        params = init_layer_params(cfg, Rng(0))
        report = count_flops(block, 4, 4, cfg.c, cfg.cp, s=cfg.s)
        assert dict(report.parts)["offset_conv"] == 4 * 4 * params.w_off.weight.size

    def test_unknown_block_rejected(self):
        with pytest.raises(ContractError, match="unknown block"):
            count_flops("danet", 8, 8, 16, 4)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ContractError):
            count_flops("nl", 0, 8, 16, 4)

    def test_csv_schema(self, tmp_path):
        from repgraph.flops import write_flops_csv

        report = count_flops("brg", 8, 8, 16, 4, s=2)
        path = tmp_path / "flops.csv"
        write_flops_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,suboperation,macs"
        assert len(lines) == 1 + len(report.parts)
        assert lines[1].startswith("brg,reduce_proj,")


def _refuses(fn) -> bool:
    try:
        fn()
    except ContractError:
        return True
    return False


# Layer fields and whether LayerConfig refuses them.  The non-local block
# drops gs and G as block_config does, so it too accepts the first case.
_LAYER_FIELDS = {
    "grid-and-groups": (dict(c=16, cp=8, s=3, gs=2, groups=2), False),
    "concat": (dict(c=16, cp=8, s=3, fusion="concat"), False),
    "groups-not-dividing-cp": (dict(c=16, cp=6, s=3, groups=4), True),
    "unknown-fusion": (dict(c=16, cp=8, s=3, fusion="mean"), True),
    "s0": (dict(c=16, cp=8, s=0), True),
    "gs0": (dict(c=16, cp=8, s=3, gs=0), True),
}


@pytest.mark.parametrize("fields,refused", _LAYER_FIELDS.values(), ids=_LAYER_FIELDS)
@pytest.mark.parametrize("block", BLOCKS)
def test_count_flops_refuses_exactly_what_layer_config_refuses(block, fields, refused):
    assert _refuses(lambda: LayerConfig(**fields)) == refused
    assert _refuses(lambda: count_flops(block, 4, 4, **fields)) == refused


def test_parts_at_the_perfbench_geometries():
    # dense_fwd's nl at 64x32 and sparse_fwd's blocks at 128x64, c=256,
    # C'=64, S=9, gs = G = 2.
    proj, dense_attn = 33_554_432, 268_435_456
    want = {
        "nl": [("theta_proj", proj), ("phi_proj", proj), ("g_proj", proj),
               ("attn_logits", dense_attn), ("attn_aggregate", dense_attn),
               ("fusion_out", proj)],
    }
    proj, attn = 134_217_728, 4_718_592
    want["srg"] = [("theta_proj", proj), ("phi_proj", proj), ("g_proj", proj),
                   ("offset_conv", 37_748_736), ("sample_key", 18_874_368),
                   ("sample_value", 18_874_368), ("attn_logits", attn),
                   ("attn_aggregate", attn), ("fusion_out", proj)]
    # Grid mode regresses and samples one set per 2x2 group, a quarter of N.
    for block, offsets, shared in (("brg", 9_437_184, 18_874_368),
                                   ("grid", 2_359_296, 4_718_592),
                                   ("group", 9_437_184, 18_874_368)):
        want[block] = [("reduce_proj", proj), ("offset_conv", offsets),
                       ("sample_shared", shared), ("attn_logits", attn),
                       ("attn_aggregate", attn), ("expand_proj", proj)]
    got = {"nl": count_flops("nl", 64, 32, 256, 64)}
    got.update((block, count_flops(block, 128, 64, 256, 64, s=9, gs=2, groups=2))
               for block in BLOCKS[1:])
    assert {block: report.parts for block, report in got.items()} == want
    assert got["nl"].total_macs == 671_088_640


def test_flops_table_script_prints_the_totals_its_docstring_claims(capsys):
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).parent.parent / "scripts" / "reproduce_flops_table.py"
    spec = importlib.util.spec_from_file_location("reproduce_flops_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    lines = capsys.readouterr().out.splitlines()
    totals = {line.split(":")[0]: float(line.split()[1]) for line in lines
              if line.endswith("pooling excluded)")}
    assert sorted(totals) == ["brg", "nl", "srg"]
    # "around 618 GFLOPs" dense, "~35 GFLOPs" bottleneck, "a ~17x reduction".
    assert abs(totals["nl"] - 618) < 1
    assert abs(totals["brg"] - 35) < 0.5
    ratio = float(lines[-1].removeprefix("dense / sparse ratio: ").removesuffix("x"))
    assert 17 <= ratio < 18
    assert abs(ratio - totals["nl"] / totals["brg"]) < 0.1
