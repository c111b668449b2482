import gc

import numpy as np
import pytest

from repgraph import ContractError, Rng, UnsupportedOpError, backward, finite_diff_check
from repgraph import autograd as ag
from repgraph.autograd import Node, Tape


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        tape = Tape()
        x = tape.leaf(Rng(0).uniform(-1, 1, (2, 3, 4)))
        backward(ag.sum_all(x))
        assert np.array_equal(x.grad, np.ones_like(x.value))

    def test_grad_of_half_sum_of_squares_is_x(self):
        tape = Tape()
        arr = Rng(1).uniform(-1, 1, (3, 5))
        x = tape.leaf(arr)
        loss = ag.scale(ag.sum_all(ag.mul(x, x)), 0.5)
        backward(loss)
        assert np.abs(x.grad - arr).max() < 1e-15

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        with pytest.raises(ContractError):
            backward(x)

    def test_missing_backward_rule_raises(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        broken = tape.record(np.asarray(x.value.sum()), (x,), None, op="broken")
        with pytest.raises(UnsupportedOpError, match="broken"):
            backward(broken)

    def test_untouched_leaves_get_zero_gradients(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        unused = tape.leaf(np.ones(5))
        backward(ag.sum_all(x))
        assert np.array_equal(unused.grad, np.zeros(5))

    def test_dropped_graphs_are_freed_without_the_cycle_collector(self):
        from repgraph import LayerConfig, init_layer_params, repgraph_forward
        from repgraph.toytask import make_batch
        from repgraph.train import (
            TrainConfig,
            init_toy_model,
            softmax_xent_node,
            toy_model_logits,
        )

        def forward():
            cfg = LayerConfig(c=4, cp=2, s=2, variant="bottleneck", gs=2, groups=2)
            repgraph_forward(Rng(0).tensor((1, 4, 4, 4)), init_layer_params(cfg), cfg,
                             training=True)

        def train_step():
            cfg = TrainConfig(width=8, cp=4, s=2)
            model = init_toy_model(cfg)
            images, labels = make_batch(Rng(1), 2, cfg.task)
            tape = Tape()
            logits = toy_model_logits(tape, model, images, training=True)
            backward(softmax_xent_node(logits, labels))
            assert tape.params["layer.w_off.w"].grad is not None

        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds in gc.garbage
        try:
            forward()
            train_step()
            gc.collect()
            found = [obj for obj in gc.garbage if isinstance(obj, Node)]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert found == []

    def test_gradient_linearity(self):
        # d(sum of two graph outputs) == sum of the individual gradients.
        arr = Rng(2).uniform(-1, 1, (4, 4))
        probe_a = Rng(3).uniform(-1, 1, (4, 4))
        probe_b = Rng(4).uniform(-1, 1, (4, 4))

        def grad_of(probes):
            tape = Tape()
            x = tape.leaf(arr)
            parts = [ag.weighted_sum(ag.mul(x, x), p) for p in probes]
            loss = parts[0]
            for p in parts[1:]:
                loss = ag.add(loss, p)
            backward(loss)
            return x.grad

        combined = grad_of([probe_a, probe_b])
        separate = grad_of([probe_a]) + grad_of([probe_b])
        assert np.abs(combined - separate).max() < 1e-14

    def test_accumulation_is_bit_stable(self):
        def run():
            tape = Tape()
            x = tape.leaf(Rng(9).uniform(-1, 1, (6, 6)))
            y = ag.add(ag.mul(x, x), ag.scale(x, 0.3))
            z = ag.einsum2("ij,jk->ik", y, y)
            backward(ag.sum_all(z))
            return x.grad

        assert np.array_equal(run(), run())

    def test_shared_node_accumulates_both_paths(self):
        tape = Tape()
        x = tape.leaf(np.full((2, 2), 3.0))
        y = ag.mul(x, x)  # both parents are the same node
        backward(ag.sum_all(y))
        assert np.array_equal(x.grad, np.full((2, 2), 6.0))


class TestFiniteDiffCheck:
    def test_stationary_point_of_sum_of_squares(self):
        def f(arr):
            tape = Tape()
            x = tape.leaf(arr)
            return ag.scale(ag.sum_all(ag.mul(x, x)), 0.5), x

        report = finite_diff_check(f, np.zeros((3, 3)), eps=1e-6)
        assert report.passed
        assert report.max_rel_err < 1e-10

    def test_softmax_cross_entropy_grad(self):
        from repgraph.train import softmax_xent_node

        rng = Rng(11)
        labels = rng.integers(0, 4, (2, 3, 3))

        def f(arr):
            tape = Tape()
            logits = tape.leaf(arr)
            return softmax_xent_node(logits, labels), logits

        report = finite_diff_check(f, rng.uniform(-2, 2, (2, 4, 3, 3)), eps=1e-6, tol=1e-6)
        assert report.passed, report

    def test_bilinear_sample_grad_at_fractional_position(self):
        from repgraph import ops

        rng = Rng(12)
        data = rng.uniform(-1, 1, (1, 2, 4, 4))
        probe = rng.uniform(-1, 1, (3, 2))

        def f(pos):
            tape = Tape()
            x = tape.constant(data)
            py = tape.leaf(pos)
            px = tape.constant(np.array([0.4, 1.6, 2.3]))
            out = ops.bilinear_node(x, py, px, np.zeros(3, dtype=np.int64))
            return ag.weighted_sum(out, probe), py

        report = finite_diff_check(f, np.array([0.5, 1.25, 2.7]), eps=1e-6)
        assert report.passed, report

    def test_nan_from_f_reported_as_failure(self):
        def f(arr):
            tape = Tape()
            x = tape.leaf(arr)
            y = tape.record(np.asarray(np.nan), (x,), lambda g: (np.zeros_like(arr),))
            return y, x

        report = finite_diff_check(f, np.ones(2), eps=1e-6)
        assert not report.passed
        assert "non-finite" in report.note

    def test_rejects_non_positive_eps(self):
        with pytest.raises(ContractError):
            finite_diff_check(lambda a: (None, None), np.ones(1), eps=0.0)


class TestZeroInitTrainability:
    def test_zero_branch_still_receives_gradient(self):
        # A zero-initialized output projection must still get a nonzero
        # gradient, otherwise insertion-mode layers could never train.
        from repgraph import LayerConfig, init_simple_params, Rng
        from repgraph.layer import layer_forward_node

        cfg = LayerConfig(c=4, cp=3, s=2, init_mode="pretrained_insert")
        params = init_simple_params(cfg, Rng(0))
        tape = Tape()
        x = tape.leaf(Rng(1).uniform(-1, 1, (1, 4, 3, 3)))
        y = layer_forward_node(tape, x, params, cfg)
        backward(ag.weighted_sum(y, Rng(2).uniform(-1, 1, y.value.shape)))
        assert np.linalg.norm(tape.params["w_out.w"].grad) > 0
