import importlib.util
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from repgraph import ContractError, LayerConfig, bench, count_flops, layer, ops
from repgraph.bench import (
    _estimate_bytes,
    _make_forward,
    peak_mib,
    run_benchmark,
    time_callable,
    write_bench_csv,
)
from repgraph.flops import BLOCKS, block_config

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

    def test_empty_block_list_rejected(self):
        with pytest.raises(ContractError, match="no block to run"):
            run_benchmark([], TINY, LAYER)

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
        cfgs = {block: block_config(block, self.LAYER) for block in BLOCKS}
        assert {b: c.variant for b, c in cfgs.items()} == {
            "nl": "nonlocal", "srg": "simple", "brg": "bottleneck",
            "grid": "bottleneck", "group": "bottleneck"}
        assert {b: (c.gs, c.groups) for b, c in cfgs.items()} == {
            "nl": (1, 1), "srg": (1, 1), "brg": (1, 1), "grid": (2, 1), "group": (1, 2)}

    @pytest.mark.parametrize("h,w", [(128, 64), (64, 32), (32, 16)])
    def test_estimate_bounds_the_measured_peak_within_3x(self, h, w):
        # The estimate decides skips, so it must never read below the peak.
        # At 128x64 the sparse blocks run their queries in more than one block.
        for block in BLOCKS:
            cfg = block_config(block, self.LAYER)
            forward = _make_forward(cfg, h, w, np.float32, 0)
            forward()
            peak = peak_mib(forward) * 2**20
            ratio = _estimate_bytes(cfg, h, w, 4) / peak
            assert 1.0 <= ratio <= 3.0, f"{block} at {h}x{w}: estimate is {ratio:.2f}x the peak"

    # The cores read the budgets at call time, and so does the estimate.  At
    # 4 MiB srg runs 10 spans of 13 group rows (the last 11) at 128x64, where
    # 16 MiB runs 3 of 43; at 1 MiB nl runs 16 spans of 128 query rows at
    # 64x32, where 2 MiB runs 8 of 256.
    @pytest.mark.parametrize("block,h,w,rows,want", [
        ("srg", 128, 64, [13 * 64] * 9 + [11 * 64], 38_436_864),
        ("nl", 64, 32, [128] * 16, 10_485_760),
    ], ids=["srg", "nl"])
    def test_estimate_is_sized_from_the_spans_the_cores_run(self, monkeypatch, block, h, w,
                                                            rows, want):
        monkeypatch.setattr(layer, "_SPARSE_BLOCK_BYTES", 4 << 20)
        monkeypatch.setattr(layer, "_DENSE_BLOCK_BYTES", 1 << 20)
        softmax = ops.softmax_node
        queries = []
        monkeypatch.setattr(ops, "softmax_node",
                            lambda a: queries.append(a.shape[1]) or softmax(a))
        cfg = block_config(block, self.LAYER)
        _make_forward(cfg, h, w, np.float32, 0)()
        assert queries == rows
        assert _estimate_bytes(cfg, h, w, 4) == want

    def test_dense_block_at_256x128_fits_the_default_budget(self):
        assert (_estimate_bytes(block_config("nl", self.LAYER), 256, 128, 4)
                <= bench._MEM_BUDGET_BYTES)


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

    def test_memory_budget_skips_gracefully(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "_MEM_BUDGET_BYTES", 1 << 20)
        results, skips = run_benchmark(["nl", "brg"], [(64, 64)], LAYER)
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


def _load_script(name):
    path = pathlib.Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sampler_bench_script_sweeps_and_restores_the_block(monkeypatch, capsys):
    script = _load_script("bench_sampler")
    monkeypatch.setattr(script, "GEOMETRIES", {"tiny": (2, 3, 5, 4, 3, np.float64)})
    before = ops._BLOCK_BYTES
    script.main(["--kib", "1", "64", "--repeats", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert ops._BLOCK_BYTES == before
    assert len(lines) == 2
    # A forward block holds four taps per position, a backward block one
    # output-gradient row: at c=3, f64, 1 KiB is 10 and 42 positions.
    for line, kib, fwd_len, bwd_len in zip(lines, (1, 64), (10, 682), (42, 2730)):
        assert line.split()[0] == "tiny"
        assert f"block {kib:5d} KiB, {fwd_len} fwd / {bwd_len} bwd positions: " in line
        fwd, bwd = (float(part.split()[1]) for part in line.split(": ")[1].split(", "))
        assert fwd > 0 and bwd > 0


def test_dense_vs_sparse_script_prints_every_block_against_nl(monkeypatch, tmp_path, capsys):
    script = _load_script("bench_dense_vs_sparse")
    monkeypatch.setattr(script, "SIZES", [(8, 8)])
    monkeypatch.setattr(script, "LAYER", LayerConfig(c=8, cp=4, s=3, gs=2, groups=2))
    # The CSV goes next to the script, so the script is moved into tmp_path.
    monkeypatch.setattr(script, "__file__", str(tmp_path / "bench_dense_vs_sparse.py"))
    script.main()
    lines = capsys.readouterr().out.splitlines()
    out = tmp_path / "bench_results.csv"
    assert lines[-1] == f"wrote {out}"
    assert [line.split()[0] for line in lines[:-1]] == script.BLOCKS
    for line in lines[1:-1]:
        assert f"{line.split()[0]}/nl = " in line
    assert out.read_text().splitlines()[0] == (
        "block,h,w,c,cp,s,dtype,median_ms,iqr_ms,peak_mib,repeats")


def test_train_step_script_prints_time_peak_and_faults(monkeypatch, capsys):
    from repgraph.toytask import ToyTaskConfig
    from repgraph.train import TrainConfig

    script = _load_script("bench_train_step")

    monkeypatch.setattr(script, "CONFIG", TrainConfig(
        width=4, layer=LayerConfig(c=4, cp=2, s=2), batch=1,
        task=ToyTaskConfig(size=8, min_side=2, max_side=4)))
    monkeypatch.setattr(script, "STEPS", 3)
    monkeypatch.setattr(script, "WARMUP", 1)
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("train step, batch 1 x 8x8, width 4, layer simple S=2: median ")
    assert lines[0].endswith(" ms over 3 steps")
    assert float(lines[0].split("median ")[1].split()[0]) > 0
    assert lines[1].startswith("tracemalloc peak of one step: ") and lines[1].endswith(" MiB")
    assert float(lines[1].split(": ")[1].split()[0]) > 0
    assert lines[2].startswith("minor page faults per step: ")
    assert float(lines[2].split(": ")[1]) >= 0
    assert lines[3].startswith("system CPU per step: ") and lines[3].endswith(" ms")
    assert float(lines[3].split(": ")[1].split()[0]) >= 0
    assert not tracemalloc.is_tracing()


def test_grad_step_script_prints_every_block_at_every_size(monkeypatch, capsys):
    script = _load_script("bench_grad_step")
    monkeypatch.setattr(script, "LAYER", LayerConfig(c=8, cp=4, s=3, gs=2, groups=2))
    monkeypatch.setattr(script, "REPEATS", 2)
    script.main(["6x4", "4X8"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("C=8, C'=4, S=3, gs=2, G=2, float32, "
                        "one forward plus backward per block")
    assert [line.split()[:2] for line in lines[1:]] == [
        [block, f"{size}:"] for size in ("6x4", "4x8") for block in BLOCKS]
    for line in lines[1:]:
        fields = re.fullmatch(r"median +(\S+) ms \(iqr (\S+)\) over 2, peak +(\S+) MiB",
                              line.split(": ")[1])
        ms, iqr, peak = (float(field) for field in fields.groups())
        assert ms > 0 and iqr >= 0 and peak > 0
    assert not tracemalloc.is_tracing()
    with pytest.raises(SystemExit):
        script.main(["6"])


# The script's step at two cells of its grad-step table.  Both cores span on
# a grad tape, and the consuming backward frees each span's working set in
# turn: nl at 64x32 peaks at 27.6 MiB and srg at 128x64 at 84.6.  A grad tape
# that ran each core as one span would peak at 54.1 and 104.3.
@pytest.mark.parametrize("block,h,w,bound", [("nl", 64, 32, 35), ("srg", 128, 64, 95)])
def test_grad_step_peak_stays_under_its_bound(block, h, w, bound):
    script = _load_script("bench_grad_step")
    step = script.make_step(block_config(block, script.LAYER), h, w)
    assert peak_mib(step) < bound


def test_paper_geometry_script_prints_every_block_with_its_macs(monkeypatch, capsys):
    script = _load_script("bench_paper_geometry")
    geometry = dict(h=8, w=6, c=8, cp=4, s=3)
    monkeypatch.setattr(script, "GEOMETRY", geometry)
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "8x6, C=8, C'=4, S=3, float32, one no-grad forward per block"
    assert [line.split(":")[0].strip() for line in lines[1:]] == list(script.BLOCKS)
    for block, line in zip(script.BLOCKS, lines[1:]):
        ms, peak, macs, rate = (part.split()[-2] for part in line.split(", "))
        assert float(ms) > 0 and float(peak) >= 0 and float(rate) >= 0
        assert int(macs.replace(",", "")) == count_flops(block, **geometry).total_macs
    assert not tracemalloc.is_tracing()


def test_train_toy_script_trains_compares_and_writes_the_attention_csvs(monkeypatch, tmp_path,
                                                                         capsys):
    from repgraph.toytask import ToyTaskConfig
    from repgraph.train import TrainConfig

    script = _load_script("train_toy")
    monkeypatch.setattr(script, "CONFIG", TrainConfig(
        iters=3, seed=7, width=4, layer=LayerConfig(c=4, cp=2, s=2), batch=1,
        task=ToyTaskConfig(size=8, min_side=2, max_side=4)))
    # The script writes into ./toy_run.
    monkeypatch.chdir(tmp_path)
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    full, control = lines[0].removeprefix("held-out pixel accuracy: ").split(" (ablated control ")
    assert 0 <= float(full) <= 1 and 0 <= float(control.removesuffix(")")) <= 1
    assert 0 <= float(lines[1].removeprefix("mean attention imbalance: ")) <= 1
    assert lines[2] == "wrote toy_run/attention_hist.csv and toy_run/attention_topk.csv"
    run = tmp_path / "toy_run"
    assert sorted(p.name for p in run.iterdir()) == [
        "attention_hist.csv", "attention_topk.csv", "ckpt", "train.csv"]
    assert len((run / "train.csv").read_text().splitlines()) == 4
