#!/usr/bin/env python3
"""Time, peak memory and page faults of one training step of the toy model.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/bench_train_step.py

A step is what ``toy_train`` does per iteration: draw a batch, run the
default toy model's forward on a tape with gradients, the per-pixel
cross-entropy, ``backward`` and the momentum-SGD update.  After ``WARMUP``
steps, ``STEPS`` steps are timed with ``repgraph.bench.time_callable``;
then one more step runs under ``tracemalloc`` (``repgraph.bench.peak_mib``).
Prints four lines:

* the median step time in ms;
* the tracemalloc peak of the traced step in MiB;
* the minor page faults per timed step, from ``getrusage(RUSAGE_SELF)``;
* the system CPU ms per timed step, from the same call's ``ru_stime``.

A change that lowers the peak can make the allocator hand memory back to the
system and fault it in again on the next step, which costs system time that
the peak does not show; the fault count shows it, and the system time what
it costs.
"""

from __future__ import annotations

import resource

import numpy as np

from repgraph.autograd import Tape, backward
from repgraph.bench import peak_mib, time_callable
from repgraph.tensor import Rng
from repgraph.toytask import make_batch
from repgraph.train import (
    TrainConfig,
    init_toy_model,
    poly_lr,
    softmax_xent_node,
    toy_model_logits,
)

# Every TrainConfig default but the learning rate, as in the train_step
# benchmark workload: at the default 0.3 some seeds diverge within 20-40
# steps, and the steps after that time arithmetic on non-finite values.
CONFIG = TrainConfig(lr=0.1)
STEPS = 40
WARMUP = 3


def make_stepper(cfg: TrainConfig):
    """A function that runs the next training step of ``cfg``."""
    model = init_toy_model(cfg)
    params = model.parameter_arrays()
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    data_rng = Rng(cfg.seed + 1)
    it = 0

    def step() -> None:
        nonlocal it
        images, labels = make_batch(data_rng, cfg.batch, cfg.task)
        tape = Tape()
        loss = softmax_xent_node(toy_model_logits(tape, model, images, training=True), labels)
        backward(loss)
        lr = poly_lr(cfg.lr, it, cfg.iters, cfg.poly_power)
        for name, arr in params.items():
            velocity[name] = cfg.momentum * velocity[name] + tape.params[name].grad
            arr -= lr * velocity[name]
        it += 1

    return step


def main() -> None:
    cfg = CONFIG
    step = make_stepper(cfg)
    for _ in range(WARMUP):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF)
    median_ms, _ = time_callable(step, STEPS, 0)
    after = resource.getrusage(resource.RUSAGE_SELF)
    peak = peak_mib(step)
    task, layer = cfg.task, cfg.layer
    print(f"train step, batch {cfg.batch} x {task.size}x{task.size}, width {cfg.width}, "
          f"layer {layer.variant} S={layer.s}: median {median_ms:.2f} ms over {STEPS} steps")
    print(f"tracemalloc peak of one step: {peak:.2f} MiB")
    print(f"minor page faults per step: {(after.ru_minflt - before.ru_minflt) / STEPS:.0f}")
    print(f"system CPU per step: {(after.ru_stime - before.ru_stime) / STEPS * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
