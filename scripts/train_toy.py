#!/usr/bin/env python3
"""Full toy-task run: train, evaluate against the ablated control, and dump
attention-weight statistics of the trained layer.

Artifacts land in ./toy_run/: training log, checkpoint, and the histogram /
top-k CSVs of the learned attention distribution.
"""

import pathlib
from dataclasses import replace

from repgraph import affinity_stats
from repgraph.autograd import Tape
from repgraph.stats import write_affinity_csv
from repgraph.train import (
    TrainConfig,
    ablated_control,
    holdout_batch,
    load_checkpoint,
    toy_model_logits,
    toy_train,
)

CONFIG = TrainConfig(iters=500, seed=7)


def main() -> None:
    out = pathlib.Path("toy_run")
    out.mkdir(exist_ok=True)
    cfg = replace(CONFIG, log_path=str(out / "train.csv"), checkpoint_dir=str(out / "ckpt"))
    full = toy_train(cfg)
    control = ablated_control(cfg)
    print(f"held-out pixel accuracy: {full.holdout_acc:.4f} "
          f"(ablated control {control.holdout_acc:.4f})")

    model, tcfg = load_checkpoint(cfg.checkpoint_dir)
    images, _ = holdout_batch(tcfg.seed, 4, tcfg.task)
    collect = {}
    toy_model_logits(Tape(grad=False), model, images, collect=collect)
    stats = affinity_stats(collect["weights"], source="trained toy layer")
    paths = write_affinity_csv(stats, out / "attention")
    print(f"mean attention imbalance: {stats.mean_imbalance:.3f}")
    print(f"wrote {paths[0]} and {paths[1]}")


if __name__ == "__main__":
    main()
