"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
training criterion reuses one 500-iteration run (plus its ablated control)
through a module-scoped fixture; everything else is self-contained.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repgraph import (
    LayerConfig,
    Rng,
    affinity_stats,
    count_flops,
    dense_equivalence_diff,
    fit_scaling_exponent,
    init_layer_params,
    repgraph_forward,
)
from repgraph.bench import run_benchmark
from repgraph.gradcheck import all_passed, run_all
from repgraph.stats import write_affinity_csv
from repgraph.train import TrainConfig, ablated_control, toy_train

from layer_oracles import naive_grid_forward, slice_dispatch_oracle


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("toy") / "ckpt"
    log = ckpt.parent / "train.csv"
    cfg = TrainConfig(iters=500, seed=7, log_path=str(log), checkpoint_dir=str(ckpt))
    t0 = time.perf_counter()
    full = toy_train(cfg)
    control = ablated_control(cfg)
    elapsed = time.perf_counter() - t0
    return full, control, elapsed, ckpt


def test_criterion_1_dense_equivalence():
    t0 = time.perf_counter()
    diff = dense_equivalence_diff(36, seed=0, c=8, cp=4)
    elapsed = time.perf_counter() - t0
    ok = diff < 1e-6 and elapsed < 1.0
    _report(1, "dense-equivalence oracle", ok,
            f"max abs diff {diff:.3e}, {elapsed:.2f}s")


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    results = run_all(seeds=(0, 1, 2))
    elapsed = time.perf_counter() - t0
    worst = max(rep.max_rel_err for res in results for rep in res.reports)
    ok = all_passed(results) and elapsed < 120.0
    _report(2, "gradient suite", ok,
            f"{len(results)} case runs, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_flops_reproduction():
    nl = count_flops("nl", 256, 128, 2048, 256, s=9)
    brg = count_flops("brg", 256, 128, 2048, 256, s=9)
    ratio = nl.total_macs / brg.total_macs
    ok = (
        abs(nl.gflops - 601.4) / 601.4 < 0.10
        and abs(brg.gflops - 34.96) / 34.96 < 0.10
        and ratio >= 15
    )
    _report(3, "FLOPs reproduction", ok,
            f"NL {nl.gflops:.2f}G, BRG {brg.gflops:.2f}G, ratio {ratio:.1f}x")


def test_criterion_4_complexity_scaling():
    sweep = [256, 1024, 4096]
    dense = fit_scaling_exponent("nl", sweep, c=64, cp=16)
    sparse = fit_scaling_exponent("brg", sweep, c=64, cp=16, s=9)
    ok = abs(dense - 2.0) < 0.05 and abs(sparse - 1.0) < 0.05
    _report(4, "complexity scaling", ok,
            f"dense exponent {dense:.3f}, sparse exponent {sparse:.3f}")


def test_criterion_5_wall_clock_ratio():
    results, skips = run_benchmark(["nl", "brg"], [(128, 64)],
                                   LayerConfig(c=256, cp=64, s=9),
                                   repeats=5, warmup=2, dtype="f32")
    assert not skips
    nl, brg = results
    ratio = brg.median_ms / nl.median_ms
    ok = ratio <= 0.5
    _report(5, "wall-clock ratio", ok,
            f"BRG {brg.median_ms:.0f}ms vs NL {nl.median_ms:.0f}ms "
            f"(ratio {ratio:.3f})")


def test_criterion_6_identity_at_init():
    exact = 0
    total = 0
    for seed in range(10):
        rng = Rng(100 + seed)
        shape = (1, int(rng.integers(3, 8)), int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        x = rng.tensor(shape)
        c = shape[1]
        cp = max(1, c // 2)
        cfg_s = LayerConfig(c=c, cp=cp, s=3, variant="simple",
                            init_mode="pretrained_insert")
        cfg_b = LayerConfig(c=c, cp=cp, s=3, variant="bottleneck",
                            init_mode="pretrained_insert")
        y_s = repgraph_forward(x, init_layer_params(cfg_s, rng), cfg_s)
        y_b = repgraph_forward(x, init_layer_params(cfg_b, rng), cfg_b)
        total += 2
        exact += int(np.array_equal(y_s.data, x.data))
        exact += int(np.array_equal(y_b.data, x.data))
    ok = exact == total
    _report(6, "identity at init", ok, f"{exact}/{total} forwards bit-exact")


def test_criterion_7_variant_reductions():
    # The gs = 1 and G = 1 layers against the naive per-group and per-slice
    # references, which build the base layer without the grid or group code.
    worst = 0.0
    checked = 0
    for seed in range(10):
        rng = Rng(200 + seed)
        c = int(rng.integers(3, 7))
        cp = int(rng.integers(2, 5))
        s = int(rng.integers(1, 5))
        h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        variant = "simple" if seed % 2 == 0 else "bottleneck"
        fusion = "sum" if seed % 3 else "concat"
        cfg = LayerConfig(c=c, cp=cp, s=s, variant=variant, fusion=fusion)
        params = init_layer_params(cfg, rng)
        x = rng.tensor((1, c, h, w))
        grid = repgraph_forward(x, params, replace(cfg, gs=1)).data
        grouped = repgraph_forward(x, params, replace(cfg, groups=1)).data
        worst = max(worst, float(np.abs(grid - naive_grid_forward(x, params, cfg, 1)).max()),
                    float(np.abs(grouped - slice_dispatch_oracle(x, params, cfg, 1)[0]).max()))
        checked += 2
    ok = worst < 1e-12
    _report(7, "variant reductions", ok,
            f"{checked} reductions against the oracles, worst abs diff {worst:.2e}")


def test_criterion_8_attention_normalization():
    worst = 0.0
    checked = 0
    for s in (1, 9, 27):
        for seed in range(4):
            rng = Rng(300 + 10 * s + seed)
            c = int(rng.integers(3, 7))
            cp = int(rng.integers(2, 5))
            variant = "simple" if seed % 2 == 0 else "bottleneck"
            cfg = LayerConfig(c=c, cp=cp, s=s, variant=variant)
            collect = {}
            repgraph_forward(rng.tensor((2, c, 4, 5)), init_layer_params(cfg, rng), cfg,
                             collect=collect)
            w = collect["weights"].data
            worst = max(worst, float(np.abs(w.sum(axis=-1) - 1.0).max()))
            checked += 1
    ok = worst < 1e-10
    _report(8, "attention normalization", ok,
            f"{checked} configs, worst row-sum error {worst:.2e}")


def test_criterion_9_toy_training(trained):
    full, control, elapsed, _ = trained
    ok = (
        full.holdout_acc >= 0.95
        and full.holdout_acc > control.holdout_acc
        and full.offset_grad_norm_iter1 > 0
        and elapsed < 300.0
    )
    _report(9, "toy training", ok,
            f"acc {full.holdout_acc:.4f} vs ablated {control.holdout_acc:.4f}, "
            f"offset grad {full.offset_grad_norm_iter1:.2e}, {elapsed:.0f}s")


def test_criterion_10_affinity_statistics(trained, tmp_path):
    uniform = affinity_stats(np.full((16, 16), 1.0 / 16))
    onehot = affinity_stats(np.eye(16))
    exact = (
        np.array_equal(uniform.imbalance, np.zeros(16))
        and np.array_equal(onehot.imbalance, np.ones(16))
    )

    _, _, _, ckpt = trained
    from repgraph.autograd import Tape
    from repgraph.train import holdout_batch, load_checkpoint, toy_model_logits

    model, tcfg = load_checkpoint(str(ckpt))
    images, _ = holdout_batch(tcfg.seed, 4, tcfg.task)
    collect = {}
    toy_model_logits(Tape(), model, images, collect=collect)
    stats = affinity_stats(collect["weights"].data, source="toy-trained layer")
    hist_path, topk_path = write_affinity_csv(stats, tmp_path / "trained")
    emitted = sum(c for _, _, c in stats.histogram) == stats.n_rows * stats.row_len

    ok = exact and emitted
    _report(10, "affinity statistics", ok,
            f"uniform/one-hot exact, trained-model mean imbalance "
            f"{stats.mean_imbalance:.3f}, CSVs at {hist_path}")
