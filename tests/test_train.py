import os
import tracemalloc
import warnings
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest

from repgraph import CheckpointError, ContractError, DivergenceError, LayerConfig, Rng, ShapeError
from repgraph import layer as layer_module
from repgraph.autograd import Tape, backward, weighted_sum
from repgraph.bench import peak_mib
from repgraph.toytask import ToyTaskConfig, make_batch
from repgraph.train import (
    TrainConfig,
    _im2col3x3,
    conv3x3_node,
    init_toy_model,
    load_checkpoint,
    poly_lr,
    save_checkpoint,
    softmax_xent_node,
    toy_model_logits,
    toy_train,
)

SMALL = LayerConfig(c=8, cp=4, s=2)


def non_default_layers():
    """For each ``LayerConfig`` field with a default, ``SMALL`` with that field changed.

    A number moves by one and a string takes the first other name that
    ``layer.py`` lists and that validates, so a new field needs no edit here.
    """
    names = sorted({x for v in vars(layer_module).values() if isinstance(v, tuple)
                    for x in v if isinstance(x, str)})
    for f in fields(LayerConfig):
        if f.default is MISSING:
            continue
        if isinstance(f.default, str):
            candidates = [n for n in names if n != f.default]
        else:
            candidates = [not f.default if isinstance(f.default, bool) else f.default + 1]
        for value in candidates:
            try:
                layer = replace(SMALL, **{f.name: value})
            except ContractError:
                continue
            yield f.name, layer
            break
        else:
            raise AssertionError(f"no valid non-default value for LayerConfig.{f.name}")


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

    @staticmethod
    def _conv_case(shape, dtype, c_out=4):
        """A grad-tape conv3x3 on ``shape`` with its output gradient and bwd results."""
        n, c, h, w = shape
        rng = Rng(5)
        x = rng.uniform(-1, 1, shape, dtype=dtype)
        weight = rng.uniform(-1, 1, (c_out, c, 3, 3), dtype=dtype)
        bias = rng.uniform(-1, 1, c_out, dtype=dtype)
        g = rng.uniform(-1, 1, (n, c_out, h, w), dtype=dtype)
        tape = Tape()
        out = conv3x3_node(tape.leaf(x), tape.leaf(weight), tape.leaf(bias))
        return x, weight, g, out.backward_fn(g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 16, 32, 32), (2, 3, 5, 4), (1, 1, 1, 1),
                                       (3, 5, 7, 2)])
    def test_input_gradient_bytes_match_the_strided_sum(self, shape, dtype):
        # Reference: the patch gradients w2d.T @ g, their nine taps lined up
        # by one strided view of them zero-padded by one, added by a single sum.
        n, c, h, w = shape
        x, weight, g, (dx, _, _) = self._conv_case(shape, dtype)
        w2d = weight.reshape(len(weight), c * 9)
        cols = np.matmul(w2d.T, g.reshape(n, -1, h * w)).reshape(n, c, 3, 3, h, w)
        pad = np.zeros((n, c, 3, 3, h + 2, w + 2), dtype=dtype)
        pad[..., 1:-1, 1:-1] = cols
        flip = pad[:, :, ::-1, ::-1]
        sn, sc, sj, si, sy, sx = flip.strides
        taps = np.lib.stride_tricks.as_strided(
            flip, (n, c, 3, 3, h, w), (sn, sc, sj + sy, si + sx, sy, sx), writeable=False)
        want = taps.sum(axis=(2, 3))
        assert dx.shape == want.shape and dx.dtype == want.dtype
        assert dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 16, 32, 32), (2, 3, 5, 4), (1, 1, 1, 1),
                                       (3, 5, 7, 2), (9, 2, 6, 5)])
    def test_weight_and_bias_gradient_bytes_match_the_im2col_formula(self, shape, dtype):
        n, c, h, w = shape
        x, weight, g, (_, dw, db) = self._conv_case(shape, dtype)
        g2 = g.reshape(n, -1, h * w)
        want_dw = np.matmul(g2, _im2col3x3(x).transpose(0, 2, 1)).sum(axis=0)
        want_db = g2.sum(axis=(0, 2))
        assert dw.shape == weight.shape and dw.dtype == dtype and db.dtype == dtype
        assert dw.tobytes() == want_dw.tobytes()
        assert db.tobytes() == want_db.tobytes()

    def test_forward_keeps_no_patch_matrix_on_the_tape(self):
        # The columns of this map are 2.25 MiB; the output is 256 KiB.
        rng = Rng(6)
        tape = Tape()
        x = tape.leaf(rng.uniform(-1, 1, (2, 16, 32, 32)))
        weight = tape.leaf(rng.uniform(-1, 1, (16, 16, 3, 3)))
        bias = tape.leaf(rng.uniform(-1, 1, 16))
        tracemalloc.start()
        try:
            out = conv3x3_node(x, weight, bias)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= out.value.nbytes + 16 * 1024

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 16, 32, 32), (1, 1, 1, 1), (9, 2, 6, 5)])
    def test_forward_bytes_match_the_whole_batch_formula(self, shape, dtype):
        rng = Rng(7)
        x = rng.uniform(-1, 1, shape, dtype=dtype)
        weight = rng.uniform(-1, 1, (5, shape[1], 3, 3), dtype=dtype)
        bias = rng.uniform(-1, 1, 5, dtype=dtype)
        tape = Tape()
        out = conv3x3_node(tape.leaf(x), tape.leaf(weight), tape.leaf(bias)).value
        want = np.matmul(weight.reshape(5, -1), _im2col3x3(x)).reshape(out.shape)
        want = want + bias[None, :, None, None]
        assert out.dtype == dtype and out.tobytes() == want.tobytes()

    def test_backward_builds_one_images_patches_at_a_time(self):
        # At 4x16x32x32 f64 the whole batch's columns are 4.5 MiB and one
        # image's 1.1 MiB.  The rest of the backward holds the bordered input
        # gradient (0.6 MiB) and one tap's product (0.5 MiB) at a time.
        x, weight, g, _ = self._conv_case((4, 16, 32, 32), np.float64, c_out=16)
        tape = Tape()
        out = conv3x3_node(tape.leaf(x), tape.leaf(weight), tape.leaf(np.zeros(16)))
        tracemalloc.start()
        try:
            out.backward_fn(g)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 2 << 20

    @pytest.mark.parametrize("length", [3, 5])
    def test_bias_of_the_wrong_length_is_a_shape_error(self, length):
        tape = Tape()
        x = tape.leaf(np.zeros((1, 2, 3, 3)))
        weight = tape.leaf(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ShapeError, match=rf"bias has shape \({length},\), .* 4 outputs"):
            conv3x3_node(x, weight, tape.leaf(np.zeros(length)))

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

    @pytest.mark.parametrize("seed", range(3))
    def test_global_shift_moves_each_image_by_one_color(self, seed):
        images, labels = make_batch(Rng(seed), 3, ToyTaskConfig())
        shifted, shifted_labels = make_batch(Rng(seed), 3, ToyTaskConfig(global_shift=0.6))
        assert shifted_labels.tobytes() == labels.tobytes()
        delta = shifted - images
        per_channel = delta[:, :, :1, :1]
        assert np.abs(delta - per_channel).max() < 1e-12
        assert np.abs(per_channel).max() <= 0.6
        assert np.abs(per_channel).min() > 0

    # Sides the rectangles cannot take: longer than the image, or an empty range.
    @pytest.mark.parametrize("size,min_side,max_side", [(8, 2, 12), (32, 9, 4), (32, 0, 4)])
    def test_impossible_rectangle_sides_are_refused(self, size, min_side, max_side):
        message = (rf"1 <= min_side <= max_side <= size, got min_side={min_side}, "
                   rf"max_side={max_side}, size={size}")
        with pytest.raises(ContractError, match=message):
            ToyTaskConfig(size=size, min_side=min_side, max_side=max_side)

    @pytest.mark.parametrize("size,min_side,max_side", [(32, 8, 16), (8, 2, 4), (16, 4, 8),
                                                        (4, 1, 4), (8, 8, 8)])
    def test_possible_rectangle_sides_draw_a_batch(self, size, min_side, max_side):
        cfg = ToyTaskConfig(size=size, min_side=min_side, max_side=max_side)
        images, labels = make_batch(Rng(0), 2, cfg)
        assert images.shape == (2, 3, size, size) and labels.shape == (2, size, size)

    def test_configs_are_checked_where_they_are_built(self):
        # The class count is the color table's, not a field.
        with pytest.raises(TypeError, match="num_classes"):
            ToyTaskConfig(num_classes=3)
        with pytest.raises(ContractError, match="iters and batch must be positive"):
            TrainConfig(iters=0)
        with pytest.raises(ContractError, match="C=8 is not the model width 16"):
            TrainConfig(layer=SMALL)
        # Frozen, so no field can change after the check.
        with pytest.raises(FrozenInstanceError):
            TrainConfig().iters = 0


class TestTrainingLoop:
    def test_loss_decreases_and_offsets_move(self):
        result = toy_train(TrainConfig(iters=40, batch=2, width=8,
                                       layer=LayerConfig(c=8, cp=4, s=3)))
        first = np.mean([r[2] for r in result.rows[:5]])
        last = np.mean([r[2] for r in result.rows[-5:]])
        assert last < first
        assert result.offset_grad_norm_iter1 > 0

    def test_log_csv_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        cfg = TrainConfig(iters=4, batch=2, width=8, layer=SMALL,
                          log_path=str(path))
        toy_train(cfg)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,lr,loss,pix_acc"
        assert len(lines) == 5
        assert lines[1].startswith("0,0.3")

    def test_divergence_aborts_with_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        cfg = TrainConfig(iters=50, batch=2, width=8, layer=SMALL,
                          lr=1e9, checkpoint_dir=str(ckpt))
        with pytest.raises(DivergenceError):
            toy_train(cfg)
        model, _ = load_checkpoint(str(ckpt))
        for arr in model.parameter_arrays().values():
            assert np.all(np.isfinite(arr))

    def test_default_step_peak_stays_under_its_bound(self):
        # One default step holds its logits through backward, as toy_train
        # does.  It peaks at about 18 MiB, in the first sampler backward; a
        # backward that kept every node and gradient until it returned would
        # peak at 21.35 MiB, at its end.
        cfg = TrainConfig()
        model = init_toy_model(cfg)
        images, labels = make_batch(Rng(cfg.seed + 1), cfg.batch, cfg.task)

        def step():
            tape = Tape()
            logits = toy_model_logits(tape, model, images, training=True)
            backward(softmax_xent_node(logits, labels))
            return logits, tape.params["layer.w_off.w"].grad

        assert peak_mib(step) < 19.5

    def test_layer_width_must_be_the_model_width(self):
        with pytest.raises(ContractError, match="C=8 is not the model width 16"):
            toy_train(TrainConfig(iters=1, layer=SMALL))

    def test_ablated_model_has_no_layer(self):
        model = init_toy_model(TrainConfig(layer=None))
        assert model.layer is None
        assert "layer.w_off.w" not in model.parameter_arrays()

    def test_bottleneck_variant_trains_and_checkpoints(self, tmp_path):
        ckpt = tmp_path / "ck"
        cfg = TrainConfig(iters=12, batch=2, width=8,
                          layer=replace(SMALL, variant="bottleneck"), checkpoint_dir=str(ckpt))
        result = toy_train(cfg)
        assert result.rows[-1][2] < result.rows[0][2]
        model, lcfg = load_checkpoint(str(ckpt))
        assert lcfg.layer.variant == "bottleneck"
        # Running stats moved off their init and survive the round trip.
        rv = model.buffer_arrays()["layer.bn_reduce.running_var"]
        assert not np.array_equal(rv, np.ones_like(rv))


class TestCheckpoint:
    def test_round_trip_restores_every_array(self, tmp_path):
        cfg = TrainConfig(width=8, layer=SMALL)
        model = init_toy_model(cfg)
        save_checkpoint(model, cfg, str(tmp_path / "ck"))
        loaded, loaded_cfg = load_checkpoint(str(tmp_path / "ck"))
        assert loaded_cfg.width == 8 and loaded_cfg.layer.s == 2
        orig = model.parameter_arrays()
        back = loaded.parameter_arrays()
        assert orig.keys() == back.keys()
        for name in orig:
            assert np.array_equal(orig[name], back[name]), name

    def test_every_layer_field_survives_the_round_trip(self, tmp_path):
        changed = dict(non_default_layers())
        assert changed.keys() == {f.name for f in fields(LayerConfig)} - {"c", "cp"}
        assert (SMALL.c, SMALL.cp) != (TrainConfig.layer.c, TrainConfig.layer.cp)
        for name, layer in changed.items():
            assert getattr(layer, name) != getattr(SMALL, name)
            cfg = TrainConfig(width=8, layer=layer)
            model = init_toy_model(cfg)
            save_checkpoint(model, cfg, str(tmp_path / name))
            loaded, loaded_cfg = load_checkpoint(str(tmp_path / name))
            assert loaded_cfg.layer == layer, name
            assert loaded.layer_cfg == layer, name
            for key, arr in model.parameter_arrays().items():
                assert np.array_equal(loaded.parameter_arrays()[key], arr), (name, key)

    def test_ablated_checkpoint_has_no_layer_file(self, tmp_path):
        cfg = TrainConfig(width=8, layer=None)
        save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path / "ck"))
        assert not (tmp_path / "ck" / "layer.txt").exists()
        loaded, loaded_cfg = load_checkpoint(str(tmp_path / "ck"))
        assert loaded.layer is None and loaded_cfg.layer is None

    @pytest.fixture
    def ckpt(self, tmp_path):
        cfg = TrainConfig(width=8, layer=SMALL)
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

    @pytest.mark.parametrize("name", ["config.txt", "layer.txt", "manifest.txt"])
    def test_duplicate_entry_rejected_naming_the_file_and_line(self, ckpt, name):
        path = ckpt / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[0]]) + "\n")
        key = lines[0].partition("=")[0]
        with pytest.raises(CheckpointError,
                           match=rf"{name}: line {len(lines) + 1}: duplicate key '{key}'"):
            load_checkpoint(str(ckpt))

    def test_config_keeps_only_width_seed_and_classes(self, ckpt):
        assert (ckpt / "config.txt").read_text() == "width=8\nseed=7\nnum_classes=4\n"

    @pytest.mark.parametrize("line", ["gs=2", "cp=4", "ablate=0"])
    def test_unknown_config_key_rejected(self, ckpt, line):
        path = ckpt / "config.txt"
        path.write_text(path.read_text() + line + "\n")
        key = line.partition("=")[0]
        with pytest.raises(CheckpointError, match=rf"config\.txt: unknown keys \['{key}'\]"):
            load_checkpoint(str(ckpt))

    @pytest.mark.parametrize("line,message", [
        ("variant=huge", "unknown variant 'huge'"),
        ("cp=0", "channel widths must be positive"),
        ("gs=zero", "gs must be an integer"),
        ("stride=2", "unknown config key 'stride'"),
    ])
    def test_bad_layer_file_rejected_naming_it(self, ckpt, line, message):
        path = ckpt / "layer.txt"
        key = line.partition("=")[0]
        kept = [old for old in path.read_text().splitlines() if not old.startswith(key + "=")]
        path.write_text("\n".join(kept + [line]) + "\n")
        with pytest.raises(CheckpointError, match=rf"layer\.txt: {message}"):
            load_checkpoint(str(ckpt))

    def test_layer_of_another_width_rejected(self, ckpt):
        path = ckpt / "layer.txt"
        path.write_text(path.read_text().replace("c=8\n", "c=16\n"))
        with pytest.raises(CheckpointError, match="C=16 is not the model width 8"):
            load_checkpoint(str(ckpt))

    def test_layer_arrays_without_a_layer_file_rejected(self, ckpt):
        (ckpt / "layer.txt").unlink()
        with pytest.raises(CheckpointError, match=r"unexpected \['layer\."):
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

    # A value the model cannot be built from fails in validate, naming the file.
    @pytest.mark.parametrize("layer", [SMALL, None], ids=["layer", "ablated"])
    @pytest.mark.parametrize("line,message", [
        ("width=-1", "model width must be positive, got -1"),
        ("width=0", "model width must be positive, got 0"),
        ("seed=-1", "seed must be non-negative, got -1"),
    ], ids=["negative-width", "zero-width", "negative-seed"])
    def test_bad_config_value_rejected_naming_the_file(self, tmp_path, layer, line, message):
        cfg = TrainConfig(width=8, layer=layer)
        save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path / "ck"))
        path = tmp_path / "ck" / "config.txt"
        key = line.partition("=")[0]
        kept = [old for old in path.read_text().splitlines() if not old.startswith(key + "=")]
        path.write_text("\n".join(kept + [line]) + "\n")
        with pytest.raises(CheckpointError, match=rf"config\.txt: {message}"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_num_classes_comes_from_the_config(self, tmp_path):
        # The task draws labels for the 4-color table only, so a checkpoint
        # whose config names another class count describes an untrainable task.
        cfg = TrainConfig(width=8, layer=SMALL)
        save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path / "ck"))
        assert load_checkpoint(str(tmp_path / "ck"))[1].task.num_classes == 4
        path = tmp_path / "ck" / "config.txt"
        path.write_text(path.read_text().replace("num_classes=4", "num_classes=3"))
        message = r"config\.txt: num_classes must match the color table, got 3"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(tmp_path / "ck"))

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        from repgraph import train

        cfg = TrainConfig(width=8, layer=SMALL)
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
        cfg = TrainConfig(width=8, layer=SMALL)
        (tmp_path / "notes.txt").write_text("keep me")
        with pytest.raises(CheckpointError, match="not a checkpoint directory"):
            save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path))
        assert (tmp_path / "notes.txt").read_text() == "keep me"

    def test_checkpointed_model_runs_forward(self, tmp_path):
        cfg = TrainConfig(width=8, layer=SMALL)
        model = init_toy_model(cfg)
        save_checkpoint(model, cfg, str(tmp_path / "ck"))
        loaded, lcfg = load_checkpoint(str(tmp_path / "ck"))
        images, _ = make_batch(Rng(0), 1, lcfg.task)
        collect = {}
        logits = toy_model_logits(Tape(), loaded, images, collect=collect)
        assert logits.value.shape == (1, 4, 32, 32)
        assert collect["weights"].data.shape == (1, 1024, 1, 2)
