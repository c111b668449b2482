"""Command-line benchmark and analysis front end.

Subcommands: bench, flops, affinity, train, gradcheck, oracle.  Each writes
CSV to --out where applicable.  Exit codes: 0 success, 1 validation failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import bench as bench_mod
from . import flops as flops_mod
from . import gradcheck as gradcheck_mod
from . import ops
from . import stats as stats_mod
from . import train as train_mod
from .autograd import Tape
from .config import load_config_file, write_csv
from .errors import ContractError, RepGraphError
from .layer import _FUSIONS, _VARIANTS, LayerConfig
from .oracle import dense_equivalence_diff
from .tensor import Rng

ORACLE_TOL = 1e-6


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h", type=int, default=32)
    p.add_argument("--w", type=int, default=32)
    p.add_argument("--c", type=int, default=256)
    p.add_argument("--cp", type=int, default=64)
    p.add_argument("--nodes", type=int, default=LayerConfig.s, help="sample count S")
    p.add_argument("--gs", type=int, default=LayerConfig.gs, help="spatial group edge")
    p.add_argument("--groups", type=int, default=LayerConfig.groups, help="channel group count")
    p.add_argument("--fusion", choices=_FUSIONS, default=LayerConfig.fusion)
    p.add_argument("--config", default=None, help="key=value layer config file")


def _layer(args) -> LayerConfig:
    """The ``--config`` file's layer, or else the one the layer flags describe.

    Both are built as a :class:`LayerConfig`, so flags and files are validated alike.
    """
    if args.config:
        return load_config_file(args.config)
    return LayerConfig(c=args.c, cp=args.cp, s=args.nodes, fusion=args.fusion,
                       gs=args.gs, groups=args.groups)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repgraph",
        description="Sparse representative-node attention: benchmarks and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flops", help="closed-form MAC counts for one block")
    p.add_argument("--block", choices=flops_mod.BLOCKS, default="brg")
    _add_geometry_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bench", help="wall-clock forward latency")
    p.add_argument("--block", default="nl,brg", help="comma-separated block list")
    _add_geometry_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--dtype", choices=bench_mod._DTYPES, default="f32")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="dense-equivalence check of the sparse layer")
    p.add_argument("--n", type=int, default=36, help="node count (perfect square)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("affinity", help="attention weight distribution statistics")
    p.add_argument("--out", required=True, help="CSV base path")
    p.add_argument("--ckpt", default=None, help="toy-trainer checkpoint directory")
    p.add_argument("--demo", choices=["uniform", "onehot"], default=None)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--cp", type=int, default=8)
    p.add_argument("--seed", type=int, default=None,
                   help="held-out draw with --ckpt (default: the checkpoint's seed), else 0")
    p.set_defaults(func=cmd_affinity)

    p = sub.add_parser("train", help="toy end-to-end training run")
    p.add_argument("--iters", type=int, default=train_mod.TrainConfig.iters)
    p.add_argument("--seed", type=int, default=train_mod.TrainConfig.seed)
    p.add_argument("--nodes", type=int, default=train_mod.TrainConfig.layer.s)
    p.add_argument("--lr", type=float, default=train_mod.TrainConfig.lr)
    p.add_argument("--variant", choices=_VARIANTS, default=train_mod.TrainConfig.layer.variant)
    p.add_argument("--ablate", action="store_true")
    p.add_argument("--out", default=None, help="training log CSV")
    p.add_argument("--ckpt-dir", default=None)
    p.set_defaults(func=cmd_train)

    return parser


def cmd_flops(args) -> int:
    layer = _layer(args)
    report = flops_mod.count_flops(args.block, args.h, args.w, layer.c, layer.cp, s=layer.s,
                                   gs=layer.gs, groups=layer.groups, fusion=layer.fusion)
    print(report)
    if args.out:
        flops_mod.write_flops_csv(report, args.out)
    return 0


def cmd_bench(args) -> int:
    layer = _layer(args)
    blocks = [b.strip() for b in args.block.split(",") if b.strip()]
    results, _ = bench_mod.run_benchmark(
        blocks, [(args.h, args.w)], layer, repeats=args.repeats, warmup=args.warmup,
        dtype=args.dtype, seed=args.seed,
    )
    for r in results:
        print(f"{r.block}: median {r.median_ms:.2f} ms (iqr {r.iqr_ms:.2f}), "
              f"peak {r.peak_mib:.1f} MiB at {r.h}x{r.w} c={r.c} cp={r.cp} [{r.dtype}]")
    if args.out:
        bench_mod.write_bench_csv(results, args.out)
    return 0


def cmd_oracle(args) -> int:
    diff = dense_equivalence_diff(args.n, args.seed)
    ok = diff < ORACLE_TOL
    print(f"dense-equivalence max abs diff: {diff:.3e} "
          f"({'pass' if ok else 'FAIL'} at {ORACLE_TOL:g})")
    if args.out:
        write_csv(args.out, ["n", "seed", "max_abs_diff", "tolerance", "passed"],
                  [[args.n, args.seed, f"{diff:.6e}", ORACLE_TOL, int(ok)]])
    return 0 if ok else 1


def cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_all(seeds=(args.seed, args.seed + 1, args.seed + 2))
    rows = []
    for res in results:
        for report in res.reports:
            rows.append((res.case, res.seed, report.target, report.max_rel_err,
                         report.eps, int(report.passed)))
        status = "pass" if res.passed else "FAIL"
        worst = max(r.max_rel_err for r in res.reports)
        print(f"{status}  {res.case} (seed {res.seed}): worst rel err {worst:.3e}")
    if args.out:
        write_csv(args.out, ["case", "seed", "target", "max_rel_err", "eps", "passed"], rows)
    return 0 if gradcheck_mod.all_passed(results) else 1


def cmd_affinity(args) -> int:
    if min(args.n, args.cp) < 1:
        raise ContractError(f"--n and --cp must be >= 1, got {args.n} and {args.cp}")
    if args.ckpt:
        model, tcfg = train_mod.load_checkpoint(args.ckpt)
        if model.layer is None:
            raise ContractError(
                f"checkpoint {args.ckpt} is an ablated run without an attention layer"
            )
        seed = tcfg.seed if args.seed is None else args.seed
        images, _ = train_mod.holdout_batch(seed, 4, tcfg.task)
        collect: dict = {}
        train_mod.toy_model_logits(Tape(grad=False), model, images, collect=collect)
        weights = collect["weights"].data
        source = f"checkpoint {args.ckpt}"
    elif args.demo == "uniform":
        weights = np.full((args.n, args.n), 1.0 / args.n)
        source = "uniform demo"
    elif args.demo == "onehot":
        weights = np.eye(args.n)
        source = "one-hot demo"
    else:
        rng = Rng(args.seed or 0)
        theta = rng.uniform(-1, 1, (args.n, args.cp))
        phi = rng.uniform(-1, 1, (args.n, args.cp))
        weights = ops.softmax_rows(theta @ phi.T)
        source = "random dense affinity"
    result = stats_mod.affinity_stats(weights, source=source)
    hist_path, topk_path = stats_mod.write_affinity_csv(result, args.out)
    print(f"{source}: {result.n_rows} rows of {result.row_len}, "
          f"mean imbalance {result.mean_imbalance:.4f}")
    print(f"wrote {hist_path} and {topk_path}")
    return 0


def cmd_train(args) -> int:
    layer = None if args.ablate else replace(train_mod.TrainConfig.layer, s=args.nodes,
                                             variant=args.variant)
    cfg = train_mod.TrainConfig(iters=args.iters, seed=args.seed, lr=args.lr, layer=layer,
                                log_path=args.out, checkpoint_dir=args.ckpt_dir)
    result = train_mod.toy_train(cfg)
    print(f"final loss {result.rows[-1][2]:.4f}, "
          f"held-out pixel accuracy {result.holdout_acc:.4f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (RepGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
