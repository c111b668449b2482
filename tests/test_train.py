import os
import warnings

import numpy as np
import pytest

from repgraph import CheckpointError, DivergenceError, Rng
from repgraph.autograd import Tape, backward, weighted_sum
from repgraph.toytask import ToyTaskConfig, make_batch
from repgraph.train import (
    TrainConfig,
    conv3x3_node,
    init_toy_model,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
    softmax_xent_node,
    toy_model_logits,
    toy_train,
)

FAST = TrainConfig(iters=8, batch=2, holdout_batch=2, width=8, cp=4, s=3)


def naive_conv3x3(x, w, b):
    n, c, h, width = x.shape
    c_out = w.shape[0]
    out = np.zeros((n, c_out, h, width))
    for bi in range(n):
        for o in range(c_out):
            for i in range(h):
                for j in range(width):
                    acc = b[o]
                    for ci in range(c):
                        for ky in range(3):
                            for kx in range(3):
                                yy, xx = i + ky - 1, j + kx - 1
                                if 0 <= yy < h and 0 <= xx < width:
                                    acc += w[o, ci, ky, kx] * x[bi, ci, yy, xx]
                    out[bi, o, i, j] = acc
    return out


class TestTrainerOps:
    def test_conv3x3_matches_naive_loops(self):
        rng = Rng(0)
        x = rng.uniform(-1, 1, (2, 3, 5, 4))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        b = rng.uniform(-1, 1, 4)
        tape = Tape()
        out = conv3x3_node(tape.leaf(x), tape.leaf(w), tape.leaf(b))
        assert np.abs(out.value - naive_conv3x3(x, w, b)).max() < 1e-12

    def test_conv3x3_input_gradient_matches_naive_loops(self):
        rng = Rng(3)
        x = rng.uniform(-1, 1, (2, 3, 5, 4))
        w = rng.uniform(-1, 1, (4, 3, 3, 3))
        probe = rng.uniform(-1, 1, (2, 4, 5, 4))
        tape = Tape()
        xn = tape.leaf(x)
        backward(weighted_sum(conv3x3_node(xn, tape.leaf(w), tape.leaf(np.zeros(4))), probe))
        want = np.zeros_like(x)
        n, c, h, width = x.shape
        for bi, o, i, j in np.ndindex(n, 4, h, width):
            for ky, kx in np.ndindex(3, 3):
                yy, xx = i + ky - 1, j + kx - 1
                if 0 <= yy < h and 0 <= xx < width:
                    want[bi, :, yy, xx] += w[o, :, ky, kx] * probe[bi, o, i, j]
        assert np.abs(xn.grad - want).max() < 1e-12

    def test_softmax_xent_matches_manual(self):
        rng = Rng(1)
        logits = rng.uniform(-2, 2, (1, 3, 2, 2))
        labels = rng.integers(0, 3, (1, 2, 2))
        tape = Tape()
        loss = softmax_xent_node(tape.leaf(logits), labels)
        manual = 0.0
        for i in range(2):
            for j in range(2):
                z = logits[0, :, i, j]
                p = np.exp(z - z.max())
                p /= p.sum()
                manual -= np.log(p[labels[0, i, j]])
        assert abs(float(loss.value) - manual / 4) < 1e-12

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_softmax_xent_of_a_non_finite_logit_is_non_finite(self, bad):
        logits = Rng(2).uniform(-2, 2, (1, 3, 2, 2))
        logits[0, :, 1, 0] = bad
        tape = Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = softmax_xent_node(tape.leaf(logits), np.zeros((1, 2, 2), dtype=np.int64))
        assert not np.isfinite(loss.value)

    def test_poly_schedule(self):
        assert poly_lr(0.3, 0, 500, 0.9) == 0.3
        mid = poly_lr(0.3, 250, 500, 0.9)
        assert abs(mid - 0.3 * 0.5**0.9) < 1e-15
        assert poly_lr(0.3, 499, 500, 0.9) < 0.01


class TestToyTask:
    def test_batch_shapes_and_determinism(self):
        cfg = ToyTaskConfig()
        a_img, a_lab = make_batch(Rng(3), 2, cfg)
        b_img, b_lab = make_batch(Rng(3), 2, cfg)
        assert a_img.shape == (2, 3, 32, 32)
        assert a_lab.shape == (2, 32, 32)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_lab, b_lab)

    def test_labels_cover_foreground_and_background(self):
        _, labels = make_batch(Rng(4), 4, ToyTaskConfig())
        assert labels.min() == 0
        assert labels.max() <= 3
        assert (labels > 0).mean() > 0.1


class TestTrainingLoop:
    def test_loss_decreases_and_offsets_move(self):
        result = toy_train(TrainConfig(iters=40, batch=2, holdout_batch=2,
                                       width=8, cp=4, s=3))
        first = np.mean([r[2] for r in result.rows[:5]])
        last = np.mean([r[2] for r in result.rows[-5:]])
        assert last < first
        assert result.offset_grad_norm_iter1 > 0

    def test_log_csv_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        cfg = TrainConfig(iters=4, batch=2, holdout_batch=2, width=8, cp=4,
                          s=2, log_path=str(path))
        toy_train(cfg)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,lr,loss,pix_acc"
        assert len(lines) == 5
        assert lines[1].startswith("0,0.3")

    def test_divergence_aborts_with_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        cfg = TrainConfig(iters=50, batch=2, holdout_batch=2, width=8, cp=4,
                          s=2, lr=1e9, checkpoint_dir=str(ckpt))
        with pytest.raises(DivergenceError):
            toy_train(cfg)
        model, _ = load_checkpoint(str(ckpt))
        for arr in model.parameter_arrays().values():
            assert np.all(np.isfinite(arr))

    def test_ablated_model_has_no_layer(self):
        model = init_toy_model(TrainConfig(ablate=True))
        assert model.layer is None
        assert "layer.w_off.w" not in model.parameter_arrays()

    def test_bottleneck_variant_trains_and_checkpoints(self, tmp_path):
        ckpt = tmp_path / "ck"
        cfg = TrainConfig(iters=12, batch=2, holdout_batch=2, width=8, cp=4,
                          s=2, variant="bottleneck", checkpoint_dir=str(ckpt))
        result = toy_train(cfg)
        assert result.rows[-1][2] < result.rows[0][2]
        model, lcfg = load_checkpoint(str(ckpt))
        assert lcfg.variant == "bottleneck"
        # Running stats moved off their init and survive the round trip.
        rv = model.buffer_arrays()["layer.bn_reduce.running_var"]
        assert not np.array_equal(rv, np.ones_like(rv))


class TestCheckpoint:
    def test_round_trip_restores_every_array(self, tmp_path):
        cfg = TrainConfig(width=8, cp=4, s=2)
        model = init_toy_model(cfg)
        save_checkpoint(model, cfg, str(tmp_path / "ck"))
        loaded, loaded_cfg = load_checkpoint(str(tmp_path / "ck"))
        assert loaded_cfg.width == 8 and loaded_cfg.s == 2
        orig = model.parameter_arrays()
        back = loaded.parameter_arrays()
        assert orig.keys() == back.keys()
        for name in orig:
            assert np.array_equal(orig[name], back[name]), name

    @pytest.fixture
    def ckpt(self, tmp_path):
        cfg = TrainConfig(width=8, cp=4, s=2)
        save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path / "ck"))
        return tmp_path / "ck"

    def _edit_manifest(self, ckpt, edit):
        lines = (ckpt / "manifest.txt").read_text().splitlines()
        (ckpt / "manifest.txt").write_text("\n".join(edit(lines)) + "\n")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(str(tmp_path / "nowhere"))

    @pytest.mark.parametrize("name", ["config.txt", "manifest.txt"])
    def test_missing_text_file_rejected(self, ckpt, name):
        (ckpt / name).unlink()
        with pytest.raises(CheckpointError, match=name):
            load_checkpoint(str(ckpt))

    @pytest.mark.parametrize("name", ["config.txt", "manifest.txt"])
    def test_duplicate_entry_rejected_naming_the_file_and_line(self, ckpt, name):
        path = ckpt / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[0]]) + "\n")
        key = lines[0].partition("=")[0]
        with pytest.raises(CheckpointError,
                           match=rf"{name}: line {len(lines) + 1}: duplicate key '{key}'"):
            load_checkpoint(str(ckpt))

    def test_manifest_omitting_an_array_rejected(self, ckpt):
        self._edit_manifest(ckpt, lambda lines: [line for line in lines
                                                 if not line.startswith("layer.w_off.b=")])
        with pytest.raises(CheckpointError, match=r"missing \['layer.w_off.b'\]"):
            load_checkpoint(str(ckpt))

    def test_manifest_naming_an_unknown_array_rejected(self, ckpt):
        self._edit_manifest(ckpt, lambda lines: lines + ["layer.extra.w=cls_b.rgt4:4"])
        with pytest.raises(CheckpointError, match=r"unexpected \['layer.extra.w'\]"):
            load_checkpoint(str(ckpt))

    def test_shape_mismatch_rejected(self, ckpt):
        self._edit_manifest(ckpt, lambda lines: [
            "cls.b=cls_w.rgt4:4,8" if line.startswith("cls.b=") else line for line in lines])
        with pytest.raises(CheckpointError, match="cls.b"):
            load_checkpoint(str(ckpt))

    def test_num_classes_comes_from_the_config(self, tmp_path):
        cfg = TrainConfig(width=8, cp=4, s=2, task=ToyTaskConfig(num_classes=3))
        model = init_toy_model(cfg)
        save_checkpoint(model, cfg, str(tmp_path / "ck"))
        loaded, loaded_cfg = load_checkpoint(str(tmp_path / "ck"))
        assert loaded_cfg.task.num_classes == 3
        assert np.array_equal(loaded.classifier.weight, model.classifier.weight)

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        from repgraph import train

        cfg = TrainConfig(width=8, cp=4, s=2)
        model = init_toy_model(cfg)
        save_checkpoint(model, cfg, str(tmp_path / "ck"))
        saved = {k: v.copy() for k, v in model.parameter_arrays().items()}
        for arr in model.parameter_arrays().values():
            arr += 1.0
        calls = []
        real_save = train.save_tensor

        def failing_save(tensor, path):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            real_save(tensor, path)

        monkeypatch.setattr(train, "save_tensor", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, cfg, str(tmp_path / "ck"))
        assert len(calls) == 3
        assert os.listdir(tmp_path) == ["ck"]
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        for name, arr in loaded.parameter_arrays().items():
            assert np.array_equal(arr, saved[name]), name

        monkeypatch.setattr(train, "save_tensor", real_save)
        save_checkpoint(model, cfg, str(tmp_path / "ck"))
        assert os.listdir(tmp_path) == ["ck"]
        loaded, _ = load_checkpoint(str(tmp_path / "ck"))
        for name, arr in loaded.parameter_arrays().items():
            assert np.array_equal(arr, model.parameter_arrays()[name]), name

    def test_save_refuses_to_replace_a_directory_with_other_files(self, tmp_path):
        cfg = TrainConfig(width=8, cp=4, s=2)
        (tmp_path / "notes.txt").write_text("keep me")
        with pytest.raises(CheckpointError, match="not a checkpoint directory"):
            save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path))
        assert (tmp_path / "notes.txt").read_text() == "keep me"

    def test_checkpointed_model_runs_forward(self, tmp_path):
        cfg = TrainConfig(width=8, cp=4, s=2)
        model = init_toy_model(cfg)
        save_checkpoint(model, cfg, str(tmp_path / "ck"))
        loaded, lcfg = load_checkpoint(str(tmp_path / "ck"))
        images, _ = make_batch(Rng(0), 1, lcfg.task)
        collect = {}
        logits = toy_model_logits(Tape(), loaded, images, collect=collect)
        assert logits.value.shape == (1, 4, 32, 32)
        assert collect["weights"].data.shape == (1, 1024, 1, 2)
