"""Toy end-to-end trainer: two 3x3 convs, one attention layer, 1x1 classifier.

The layer is any :class:`LayerConfig`: the simple or bottleneck sparse layer
in any mode, or the dense non-local block in the same slot.

Desk-scale stand-in for full segmentation training: SGD with momentum and a
polynomial learning-rate decay, per-pixel cross-entropy on the synthetic
rectangle task, CSV logging and RGT4 checkpoints.  A non-finite loss aborts
the run and leaves the last-good checkpoint on disk.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from dataclasses import InitVar, dataclass, field, replace
from typing import ClassVar, Optional

import numpy as np

from . import ops
from .autograd import Node, Tape, backward, matmul
from .config import layer_config_to_text, load_config_file, read_entries
from .errors import CheckpointError, ContractError, DivergenceError, ShapeError
from .layer import (
    LayerConfig,
    buffer_arrays,
    init_layer_params,
    layer_forward_node,
    param_arrays,
)
from .ops import Projection1x1
from .tensor import Rng, Tensor4, load_tensor, save_tensor
from .toytask import ToyTaskConfig, make_batch


# ---------------------------------------------------------------------------
# Ops the trainer owns: 3x3 convolution and fused softmax cross-entropy
# ---------------------------------------------------------------------------


def _im2col3x3(x: np.ndarray) -> np.ndarray:
    """[n, c, h, w] -> [n, c*9, h*w] patch matrix, zero-padded, (c, ky, kx) order."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * 9, h * w)


def conv3x3_node(x: Node, weight: Node, bias: Node) -> Node:
    """Stride-1, pad-1 3x3 convolution; weight is [c_out, c_in, 3, 3].

    Forward and backward build one image's im2col columns at a time, so no
    whole-batch patch matrix exists; the tape keeps none, and the backward
    rebuilds them for ``dw``.  Each image's GEMM has the shapes of one batch
    entry of the whole-batch matmul, and the per-image ``dw`` products are
    summed over the batch axis as its products were, so the bytes are the
    whole-batch formulas'.
    """
    n, c, h, w = x.value.shape
    c_out = weight.value.shape[0]
    if weight.value.shape[1] != c:
        raise ContractError(
            f"conv weight expects {weight.value.shape[1]} input channels, map has {c}"
        )
    if bias.value.shape != (c_out,):
        raise ShapeError(f"conv bias has shape {bias.value.shape}, the conv has {c_out} outputs")
    w2d = weight.value.reshape(c_out, c * 9)

    def cols(i: int) -> np.ndarray:
        """Image ``i``'s [9c, h*w] patch matrix."""
        return _im2col3x3(x.value[i:i + 1])[0]

    out = np.empty((n, c_out, h * w), dtype=np.result_type(w2d, x.value))
    for i in range(n):
        matmul(w2d, cols(i), out=out[i])
    out = ops.add_in_place(out.reshape(n, c_out, h, w), bias.value[None, :, None, None])

    def bwd(g):
        g2 = g.reshape(n, c_out, h * w)
        dws = np.empty((n, c_out, c * 9), dtype=np.result_type(g2, x.value))
        for i in range(n):
            matmul(g2[i], cols(i).T, out=dws[i])
        dw = dws.sum(axis=0).reshape(weight.value.shape)
        db = g2.sum(axis=(0, 2))
        # Tap (ky, kx)'s patch gradient adds into a bordered map shifted by
        # (ky, kx), taps in the order 2, 1, 0: the bytes of w2d.T @ g2 summed
        # per pixel in that order.  Contiguous taps keep each matmul on BLAS.
        taps = np.ascontiguousarray(weight.value.transpose(2, 3, 0, 1))
        dx = np.zeros((n, c, h + 2, w + 2), dtype=np.result_type(taps, g2))
        for ky in (2, 1, 0):
            for kx in (2, 1, 0):
                dx[:, :, ky:ky + h, kx:kx + w] += matmul(taps[ky, kx].T, g2).reshape(n, c, h, w)
        return dx[:, :, 1:-1, 1:-1], dw, db

    return x.tape.record(out, (x, weight, bias), bwd, op="conv3x3")


def softmax_xent_node(logits: Node, labels: np.ndarray) -> Node:
    """Mean per-pixel negative log-likelihood of integer labels [n, h, w]."""
    n, k, h, w = logits.value.shape
    lab = np.asarray(labels, dtype=np.int64).reshape(n, h * w)
    z = logits.value.reshape(n, k, h * w)
    # An infinite logit makes inf - inf here (finite ones never do), and the
    # NaN loss that follows marks the run as diverged.
    with np.errstate(invalid="ignore"):
        shifted = z - z.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    count = n * h * w
    idx_b = np.arange(n)[:, None]
    idx_p = np.arange(h * w)[None, :]
    loss = -logp[idx_b, lab, idx_p].sum() / count

    def bwd(g):
        grad = np.exp(logp)
        grad[idx_b, lab, idx_p] -= 1.0
        return ((g * grad / count).reshape(n, k, h, w),)

    return logits.tape.record(np.asarray(loss), (logits,), bwd, op="softmax_xent")


def poly_lr(base_lr: float, iteration: int, max_iter: int, power: float) -> float:
    """base_lr * (1 - iter/iter_max)^power."""
    return base_lr * (1.0 - iteration / max_iter) ** power


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


@dataclass
class ToyModel:
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    classifier: Projection1x1
    layer_cfg: Optional[LayerConfig]
    layer: object = None  # a record of init_layer_params, or None when ablated

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        """Trainable arrays, keyed by their tape leaf names."""
        params = {
            "conv1.w": self.conv1_w,
            "conv1.b": self.conv1_b,
            "conv2.w": self.conv2_w,
            "conv2.b": self.conv2_b,
            "cls.w": self.classifier.weight,
            "cls.b": self.classifier.bias,
        }
        if self.layer is not None:
            params.update({f"layer.{k}": v for k, v in param_arrays(self.layer).items()})
        return params

    def buffer_arrays(self) -> dict[str, np.ndarray]:
        """Non-trainable state (batch-norm running stats), checkpointed only."""
        if self.layer is None:
            return {}
        return {f"layer.{k}": v for k, v in buffer_arrays(self.layer).items()}


@dataclass(frozen=True)
class TrainConfig:
    """``layer``, with ``c`` = ``width``, fills the attention slot; ``None`` ablates it."""

    momentum: ClassVar[float] = 0.9
    poly_power: ClassVar[float] = 0.9
    holdout_batch: ClassVar[int] = 8

    iters: int = 500
    seed: int = 7
    lr: float = 0.3
    batch: int = 4
    width: int = 16
    layer: Optional[LayerConfig] = LayerConfig(c=16, cp=8)
    task: ToyTaskConfig = field(default_factory=ToyTaskConfig)
    log_path: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    cp: InitVar[Optional[int]] = None  # if set, the default layer at c=width and this C'

    def __post_init__(self, cp: Optional[int]) -> None:
        if cp is not None:
            object.__setattr__(self, "layer", replace(self.layer, c=self.width, cp=cp))
        self.validate()

    def validate(self) -> None:
        if self.iters < 1 or self.batch < 1:
            raise ContractError("iters and batch must be positive")
        if self.lr <= 0:
            raise ContractError(f"learning rate must be positive, got {self.lr}")
        if self.width < 1:
            raise ContractError(f"model width must be positive, got {self.width}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")
        if self.layer is not None and self.layer.c != self.width:
            raise ContractError(f"layer C={self.layer.c} is not the model width {self.width}")


@dataclass
class TrainResult:
    rows: list  # (iter, lr, loss, pix_acc)
    holdout_acc: float
    offset_grad_norm_iter1: float
    checkpoint_dir: Optional[str]
    final_loss: float


def init_toy_model(cfg: TrainConfig) -> ToyModel:
    """A new f64 model drawn from ``Rng(cfg.seed)``."""
    rng = Rng(cfg.seed)
    c_in = 3
    k = cfg.task.num_classes
    layer = None if cfg.layer is None else init_layer_params(cfg.layer, rng=rng)
    return ToyModel(
        conv1_w=rng.init_weight((cfg.width, c_in, 3, 3), fan_in=9 * c_in),
        conv1_b=np.zeros(cfg.width),
        conv2_w=rng.init_weight((cfg.width, cfg.width, 3, 3), fan_in=9 * cfg.width),
        conv2_b=np.zeros(cfg.width),
        classifier=Projection1x1(
            weight=rng.init_weight((k, cfg.width), fan_in=cfg.width),
            bias=np.zeros(k),
        ),
        layer_cfg=cfg.layer,
        layer=layer,
    )


def toy_model_logits(tape: Tape, model: ToyModel, images: np.ndarray,
                     training: bool = False, collect: Optional[dict] = None) -> Node:
    x = tape.leaf(images)
    h = ops.relu_node(conv3x3_node(x, tape.leaf(model.conv1_w, "conv1.w"),
                                   tape.leaf(model.conv1_b, "conv1.b")))
    h = ops.relu_node(conv3x3_node(h, tape.leaf(model.conv2_w, "conv2.w"),
                                   tape.leaf(model.conv2_b, "conv2.b")))
    if model.layer is not None:
        h = layer_forward_node(tape, h, model.layer, model.layer_cfg,
                               training=training, collect=collect, prefix="layer.")
    cls_w = tape.leaf(model.classifier.weight, "cls.w")
    cls_b = tape.leaf(model.classifier.bias, "cls.b")
    return ops.project_node(h, cls_w, cls_b)


def pixel_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def holdout_batch(seed: int, batch: int, task: ToyTaskConfig) -> tuple[np.ndarray, np.ndarray]:
    """``seed``'s held-out batch, from ``seed + 10_000``; a negative seed is refused."""
    if seed < 0:
        raise ContractError(f"seed must be non-negative, got {seed}")
    return make_batch(Rng(seed + 10_000), batch, task)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: ToyModel, cfg: TrainConfig, out_dir: str) -> None:
    """Write ``model`` and ``cfg`` to ``out_dir``, replacing the checkpoint there.

    The files go to a sibling temporary directory, which then takes the place
    of ``out_dir``, so a save that fails partway leaves the previous
    checkpoint loadable.  A directory that holds anything but checkpoint
    files is not replaced: that raises :class:`CheckpointError`.
    """
    out_dir = os.path.realpath(out_dir)
    if os.path.lexists(out_dir) and not (os.path.isdir(out_dir) and all(
        name in ("config.txt", "layer.txt", "manifest.txt") or name.endswith(".rgt4")
        for name in os.listdir(out_dir)
    )):
        raise CheckpointError(f"{out_dir} exists and is not a checkpoint directory")
    parent = os.path.dirname(out_dir)
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(out_dir) + ".", suffix=".tmp", dir=parent)
    try:
        _write_checkpoint(model, cfg, tmp)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if os.path.isdir(out_dir):
        # A directory cannot be renamed onto a non-empty one, so the old
        # checkpoint steps aside first.
        old = tmp + ".old"
        os.rename(out_dir, old)
        os.rename(tmp, out_dir)
        shutil.rmtree(old)
    else:
        os.rename(tmp, out_dir)


def _write_checkpoint(model: ToyModel, cfg: TrainConfig, out_dir: str) -> None:
    lines = [f"width={cfg.width}", f"seed={cfg.seed}", f"num_classes={cfg.task.num_classes}"]
    manifest = []
    state = {**model.parameter_arrays(), **model.buffer_arrays()}
    for name, arr in state.items():
        fname = name.replace(".", "_") + ".rgt4"
        arr4 = arr.reshape((1,) * (4 - arr.ndim) + arr.shape)
        save_tensor(Tensor4(arr4), os.path.join(out_dir, fname))
        manifest.append(f"{name}={fname}:{','.join(map(str, arr.shape))}")
    files = {"config.txt": "\n".join(lines) + "\n", "manifest.txt": "\n".join(manifest) + "\n"}
    if cfg.layer is not None:
        files["layer.txt"] = layer_config_to_text(cfg.layer)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)


def load_checkpoint(ckpt_dir: str) -> tuple[ToyModel, TrainConfig]:
    """Rebuild the model saved in ``ckpt_dir`` by :func:`save_checkpoint`.

    ``config.txt`` holds ``width``, ``seed`` and ``num_classes`` and no other
    key; ``layer.txt``, absent for an ablated model, holds the layer.  The
    manifest must list every parameter and buffer of the model they describe,
    and nothing else, each with the model's shape; anything else raises
    :class:`CheckpointError` naming the file.
    """
    if not os.path.isdir(ckpt_dir):
        raise CheckpointError(f"checkpoint directory {ckpt_dir} does not exist")
    config_path = os.path.join(ckpt_dir, "config.txt")
    kv = read_entries(config_path, CheckpointError)
    unknown = kv.keys() - {"width", "seed", "num_classes"}
    if unknown:
        raise CheckpointError(f"{config_path}: unknown keys {sorted(unknown)}")
    layer_path = os.path.join(ckpt_dir, "layer.txt")
    layer = load_config_file(layer_path, CheckpointError) if os.path.exists(layer_path) else None
    try:
        cfg = TrainConfig(width=int(kv["width"]), seed=int(kv["seed"]), layer=layer,
                          task=ToyTaskConfig(num_classes=int(kv["num_classes"])))
    except KeyError as exc:
        raise CheckpointError(f"{config_path}: missing entry {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"{config_path}: {exc}") from exc
    model = init_toy_model(cfg)
    arrays = {**model.parameter_arrays(), **model.buffer_arrays()}
    manifest_path = os.path.join(ckpt_dir, "manifest.txt")
    manifest = read_entries(manifest_path, CheckpointError)
    if manifest.keys() != arrays.keys():
        raise CheckpointError(
            f"{manifest_path} does not match the model: missing "
            f"{sorted(arrays.keys() - manifest.keys())}, unexpected "
            f"{sorted(manifest.keys() - arrays.keys())}"
        )
    for name, entry in manifest.items():
        fname, _, shape_s = entry.partition(":")
        shape = arrays[name].shape
        if shape_s != ",".join(map(str, shape)):
            raise CheckpointError(
                f"{manifest_path}: {name} has shape {shape_s}, the model has {shape}"
            )
        loaded = load_tensor(os.path.join(ckpt_dir, fname)).data
        if loaded.shape != (1,) * (4 - len(shape)) + shape:
            raise CheckpointError(f"{fname} holds shape {loaded.shape}, {name} has {shape}")
        arrays[name][...] = loaded.reshape(shape)
    return model, cfg


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def toy_train(cfg: TrainConfig) -> TrainResult:
    """Run the full loop; returns per-iteration rows and held-out accuracy.

    The log at ``cfg.log_path`` is opened before the first step and gains one
    row per step, so an unwritable path fails before any training.
    """
    with open(cfg.log_path or os.devnull, "w", newline="") as log_file:
        log = csv.writer(log_file)
        log.writerow(["iter", "lr", "loss", "pix_acc"])
        model = init_toy_model(cfg)
        params = model.parameter_arrays()
        state = {**params, **model.buffer_arrays()}
        velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
        data_rng = Rng(cfg.seed + 1)
        holdout = holdout_batch(cfg.seed, cfg.holdout_batch, cfg.task)

        rows = []
        offset_grad_norm = 0.0
        snapshot = {name: arr.copy() for name, arr in state.items()}
        for it in range(cfg.iters):
            images, labels = make_batch(data_rng, cfg.batch, cfg.task)
            tape = Tape()
            logits = toy_model_logits(tape, model, images, training=True)
            loss = softmax_xent_node(logits, labels)
            loss_val = float(loss.value)
            if not np.isfinite(loss_val):
                for name, arr in state.items():
                    arr[...] = snapshot[name]
                if cfg.checkpoint_dir:
                    save_checkpoint(model, cfg, cfg.checkpoint_dir)
                raise DivergenceError(
                    f"non-finite loss at iteration {it}; last-good checkpoint kept"
                )
            backward(loss)
            if it == 0 and "layer.w_off.w" in tape.params:
                offset_grad_norm = float(np.linalg.norm(tape.params["layer.w_off.w"].grad))
            lr = poly_lr(cfg.lr, it, cfg.iters, cfg.poly_power)
            for name, arr in state.items():
                snapshot[name][...] = arr
            for name, arr in params.items():
                g = tape.params[name].grad
                velocity[name] = cfg.momentum * velocity[name] + g
                arr -= lr * velocity[name]
            acc = pixel_accuracy(logits.value, labels)
            rows.append((it, lr, loss_val, acc))
            log.writerow([it, f"{lr:.6f}", f"{loss_val:.6f}", f"{acc:.6f}"])

        eval_tape = Tape(grad=False)
        eval_logits = toy_model_logits(eval_tape, model, holdout[0], training=False)
        holdout_acc = pixel_accuracy(eval_logits.value, holdout[1])

        if cfg.checkpoint_dir:
            save_checkpoint(model, cfg, cfg.checkpoint_dir)
        return TrainResult(
            rows=rows,
            holdout_acc=holdout_acc,
            offset_grad_norm_iter1=offset_grad_norm,
            checkpoint_dir=cfg.checkpoint_dir,
            final_loss=rows[-1][2],
        )


def ablated_control(cfg: TrainConfig) -> TrainResult:
    """Same run with the attention layer removed (identity in its place)."""
    return toy_train(replace(cfg, layer=None, log_path=None, checkpoint_dir=None))
