import tracemalloc

import numpy as np
import pytest

from repgraph import ContractError, LayerConfig
from repgraph.bench import (
    _block_config,
    _estimate_bytes,
    _make_forward,
    peak_mib,
    run_benchmark,
    time_callable,
    write_bench_csv,
)
from repgraph.flops import BLOCKS

TINY = [(8, 8)]
LAYER = LayerConfig(c=8, cp=4)


class TestContracts:
    def test_too_few_repeats_rejected(self):
        with pytest.raises(ContractError):
            run_benchmark(["brg"], TINY, LAYER, repeats=4)

    def test_too_little_warmup_rejected(self):
        with pytest.raises(ContractError):
            run_benchmark(["brg"], TINY, LAYER, warmup=1)

    def test_unknown_block_rejected(self):
        with pytest.raises(ContractError):
            run_benchmark(["danet"], TINY, LAYER)

    def test_bad_dtype_rejected(self):
        with pytest.raises(ContractError):
            run_benchmark(["brg"], TINY, LAYER, dtype="f16")


class TestTimer:
    def test_noop_iqr_near_zero(self):
        median, iqr = time_callable(lambda: None, repeats=5, warmup=2)
        assert median < 0.5
        assert iqr < 0.5


class TestPeakMemory:
    def test_counts_the_arrays_one_call_allocates(self):
        def allocate():
            big = np.ones(1 << 20)  # 8 MiB, freed before the 1-MiB array
            del big
            return np.zeros(1 << 17)

        assert 8.0 <= peak_mib(allocate) < 8.1
        assert not tracemalloc.is_tracing()


class TestMemoryEstimate:
    LAYER = LayerConfig(c=256, cp=64, s=9, gs=2, groups=2)

    def test_block_config_takes_the_variant_and_only_its_own_mode(self):
        cfgs = {block: _block_config(block, self.LAYER) for block in BLOCKS}
        assert {b: c.variant for b, c in cfgs.items()} == {
            "nl": "nonlocal", "srg": "simple", "brg": "bottleneck",
            "grid": "bottleneck", "group": "bottleneck"}
        assert {b: (c.gs, c.groups) for b, c in cfgs.items()} == {
            "nl": (1, 1), "srg": (1, 1), "brg": (1, 1), "grid": (2, 1), "group": (1, 2)}

    @pytest.mark.parametrize("h,w", [(64, 32), (32, 16)])
    def test_estimate_bounds_the_measured_peak_within_3x(self, h, w):
        # The estimate decides skips, so it must never read below the peak.
        for block in BLOCKS:
            cfg = _block_config(block, self.LAYER)
            forward = _make_forward(cfg, h, w, np.float32)
            forward()
            peak = peak_mib(forward) * 2**20
            ratio = _estimate_bytes(cfg, h, w, 4) / peak
            assert 1.0 <= ratio <= 3.0, f"{block} at {h}x{w}: estimate is {ratio:.2f}x the peak"


class TestRuns:
    def test_tiny_geometry_produces_rows(self):
        results, skips = run_benchmark(["nl", "brg", "srg"], TINY, LayerConfig(c=8, cp=4, s=3))
        assert [r.block for r in results] == ["nl", "brg", "srg"]
        assert not skips
        for r in results:
            assert r.median_ms > 0
            assert r.repeats == 5
            assert r.dtype == "f32"
            assert r.peak_mib > 0

    def test_memory_budget_skips_gracefully(self, capsys):
        results, skips = run_benchmark(["nl", "brg"], [(64, 64)], LAYER,
                                       mem_budget_bytes=1 << 20)
        assert [s.block for s in skips] == ["nl", "brg"]
        assert results == []
        assert "exceeds budget" in capsys.readouterr().err

    def test_csv_schema(self, tmp_path):
        results, _ = run_benchmark(["brg"], TINY, LayerConfig(c=8, cp=4, s=2))
        path = tmp_path / "bench.csv"
        write_bench_csv(results, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,h,w,c,cp,s,dtype,median_ms,iqr_ms,peak_mib,repeats"
        assert lines[1].startswith("brg,8,8,8,4,2,f32,")
        assert float(lines[1].split(",")[9]) == round(results[0].peak_mib, 2) > 0


def test_sampler_bench_script_sweeps_and_restores_the_block(monkeypatch, capsys):
    import importlib.util
    import pathlib

    from repgraph import ops

    path = pathlib.Path(__file__).parent.parent / "scripts" / "bench_sampler.py"
    spec = importlib.util.spec_from_file_location("bench_sampler", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "GEOMETRIES", {"tiny": (2, 3, 5, 4, 3, np.float64)})
    before = ops._BLOCK_BYTES
    script.main(["--kib", "1", "64", "--repeats", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert ops._BLOCK_BYTES == before
    assert len(lines) == 2
    for line, kib in zip(lines, (1, 64)):
        assert line.split()[0] == "tiny" and f"block {kib:5d} KiB" in line
        fwd, bwd = (float(part.split()[1]) for part in line.split(": ")[1].split(", "))
        assert fwd > 0 and bwd > 0
