import gc
import weakref

import numpy as np
import pytest

from repgraph import (
    ContractError,
    Rng,
    ShapeError,
    UnsupportedOpError,
    backward,
    finite_diff_check,
)
from repgraph import autograd as ag
from repgraph.autograd import Node, Tape


def sum_of(x: Node) -> Node:
    """The sum of every entry of ``x``, as a scalar loss."""
    return ag.weighted_sum(x, np.ones_like(x.value))


class TestBackward:
    def test_grad_of_sum_is_ones(self):
        tape = Tape()
        x = tape.leaf(Rng(0).uniform(-1, 1, (2, 3, 4)))
        backward(sum_of(x))
        assert np.array_equal(x.grad, np.ones_like(x.value))

    def test_grad_of_half_sum_of_squares_is_x(self):
        tape = Tape()
        arr = Rng(1).uniform(-1, 1, (3, 5))
        x = tape.leaf(arr)
        loss = ag.weighted_sum(ag.einsum2("ij,ij->i", x, x), np.full(3, 0.5))
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
        unused = tape.leaf(np.ones(5), "unused")
        backward(sum_of(x))
        assert np.array_equal(unused.grad, np.zeros(5))

    def test_untouched_unnamed_leaf_keeps_no_gradient(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        unused = tape.leaf(np.ones(5))
        grads = backward(sum_of(x))
        assert unused.grad is None and unused.id not in grads

    def test_second_backward_on_the_same_loss_raises(self):
        tape = Tape()
        x = tape.leaf(Rng(5).uniform(-1, 1, (3, 3)), "x")
        loss = sum_of(ag.einsum2("ij,jk->ik", x, x))
        backward(loss)
        first = x.grad
        with pytest.raises(ContractError, match=r"^op 'weighted_sum' was consumed by an earlier"):
            backward(loss)
        assert x.grad is first

    def test_second_loss_on_a_consumed_graph_raises(self):
        tape = Tape()
        x = tape.leaf(Rng(6).uniform(-1, 1, (3, 3)))
        y = ag.einsum2("ij,jk->ik", x, x)
        backward(sum_of(ag.add_const(y, 1.0)))
        with pytest.raises(ContractError, match=r"^op 'einsum\[ij,jk->ik\]' was consumed"):
            backward(sum_of(ag.add(y, x)))

    def test_an_op_from_a_tape_without_gradients_is_a_constant(self):
        tape, plain = Tape(), Tape(grad=False)
        x = tape.leaf(np.ones((2, 2)))
        c = ag.add_const(plain.leaf(np.full((2, 2), 2.0)), 1.0)
        backward(sum_of(ag.einsum2("ij,jk->ik", x, c)))
        assert np.array_equal(x.grad, np.full((2, 2), 6.0))

    def test_an_unheld_intermediate_is_freed_before_its_parents_rule_runs(self):
        tape = Tape()
        x = tape.leaf(np.ones((4, 4)))
        alive = []

        def double_bwd(g):
            alive.append(ref() is not None)
            return (2 * g,)

        y = tape.record(2 * x.value, (x,), double_bwd, op="double")
        z = ag.add_const(y, 1.0)
        ref = weakref.ref(z.value)
        loss = sum_of(z)
        del z
        backward(loss)
        assert alive == [False]
        assert np.array_equal(x.grad, np.full((4, 4), 2.0)) and y.grad is not None

    def test_returned_gradients_are_the_leaves_only(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 2)))
        w = tape.leaf(np.full((2, 2), 3.0), "w")
        unused = tape.leaf(np.ones(3), "unused")
        loss = sum_of(ag.add(ag.einsum2("ij,jk->ik", x, w), x))
        grads = backward(loss)
        assert sorted(grads) == sorted([x.id, w.id, unused.id])
        assert all(grads[n.id] is n.grad for n in (x, w, unused))
        assert loss.grad is not None and loss.id not in grads

    def test_dropped_graphs_are_freed_without_the_cycle_collector(self):
        from repgraph import LayerConfig, init_layer_params, repgraph_forward
        from repgraph.layer import layer_forward_node
        from repgraph.toytask import make_batch
        from repgraph.train import (
            TrainConfig,
            init_toy_model,
            softmax_xent_node,
            toy_model_logits,
        )

        def forward():
            cfg = LayerConfig(c=4, cp=2, s=2, variant="bottleneck", gs=2, groups=2)
            x, params = Rng(0).tensor((1, 4, 4, 4)), init_layer_params(cfg, Rng(0))
            repgraph_forward(x, params, cfg)
            # Batch statistics, on a tape without gradients.
            tape = Tape(grad=False)
            layer_forward_node(tape, tape.leaf(x.data), params, cfg, training=True)

        def eval_pass():
            # The tape lives only as an argument, as in the held-out pass.
            cfg = TrainConfig(width=8, layer=LayerConfig(c=8, cp=4, s=2))
            images, _ = make_batch(Rng(2), 2, cfg.task)
            collect = {}
            toy_model_logits(Tape(grad=False), init_toy_model(cfg), images, collect=collect)
            assert collect["weights"].data.shape[-1] == 2

        def train_step():
            cfg = TrainConfig(width=8, layer=LayerConfig(c=8, cp=4, s=2))
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
            eval_pass()
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
            parts = [ag.weighted_sum(ag.einsum2("ij,jk->ik", x, x), p) for p in probes]
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
            y = ag.add(ag.einsum2("ij,jk->ik", x, x), ag.add(x, x))
            z = ag.einsum2("ij,jk->ik", y, y)
            backward(sum_of(z))
            return x.grad

        assert np.array_equal(run(), run())

    def test_shared_node_accumulates_both_paths(self):
        tape = Tape()
        x = tape.leaf(np.full((2, 2), 3.0))
        y = ag.einsum2("ij,ij->i", x, x)  # both parents are the same node
        backward(sum_of(y))
        assert np.array_equal(x.grad, np.full((2, 2), 6.0))


class TestTapeWithoutGradients:
    def test_nodes_keep_no_parents_or_backward_rule(self):
        tape = Tape(grad=False)
        x = tape.leaf(np.arange(4.0).reshape(2, 2), "x")
        y = ag.einsum2("ij,jk->ik", x, ag.add(x, x))
        assert y.parents == () and y.backward_fn is None and y.op == "einsum[ij,jk->ik]"
        assert np.array_equal(y.value, 2 * x.value @ x.value)
        assert tape.params["x"] is x and y.tape is tape

    def test_records_keep_no_parents_and_number_every_node(self):
        tape = Tape(grad=False)
        x = tape.leaf(np.ones(3), "x")
        tape.leaf(np.zeros(3))
        for _ in range(4):
            x = tape.record(x.value * 2, (x,), lambda g: (g * 2,), op="double")
        assert tape.next_id == 6 and x.parents == ()

    def test_backward_raises_contract_error(self):
        tape = Tape(grad=False)
        x = tape.leaf(np.ones((2, 2)), "x")
        with pytest.raises(ContractError, match="without gradients"):
            backward(sum_of(ag.add(x, x)))
        assert x.grad is None


class TestFiniteDiffCheck:
    def test_stationary_point_of_sum_of_squares(self):
        def f(arr):
            tape = Tape()
            x = tape.leaf(arr)
            return ag.weighted_sum(ag.einsum2("ij,ij->i", x, x), np.full(3, 0.5)), x

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
            x = tape.leaf(data)
            py = tape.leaf(pos)
            px = tape.leaf(np.array([0.4, 1.6, 2.3]))
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
        from repgraph import LayerConfig, init_layer_params, Rng
        from repgraph.layer import layer_forward_node

        cfg = LayerConfig(c=4, cp=3, s=2, init_mode="pretrained_insert")
        params = init_layer_params(cfg, Rng(0))
        tape = Tape()
        x = tape.leaf(Rng(1).uniform(-1, 1, (1, 4, 3, 3)))
        y = layer_forward_node(tape, x, params, cfg)
        backward(ag.weighted_sum(y, Rng(2).uniform(-1, 1, y.value.shape)))
        assert np.linalg.norm(tape.params["w_out.w"].grad) > 0


class TestFirstGradientKept:
    def test_add_of_a_node_with_itself(self):
        tape = Tape()
        x = tape.leaf(Rng(20).uniform(-1, 1, (3, 4)))
        probe = Rng(21).uniform(-1, 1, (3, 4))
        y = ag.add(x, x)
        backward(ag.weighted_sum(y, probe))
        assert np.array_equal(x.grad, 2 * probe)
        assert np.array_equal(y.grad, probe)

    def test_later_contribution_leaves_shared_gradients_alone(self):
        # ``add`` hands one array to both parents; u receives it first, from
        # the add, and a second contribution from the product with 3I after that.
        def run():
            tape = Tape()
            u = tape.leaf(Rng(22).uniform(-1, 1, (4, 5)))
            v = tape.leaf(Rng(23).uniform(-1, 1, (4, 5)))
            t = ag.einsum2("ij,jk->ik", u, tape.leaf(3.0 * np.eye(5)))
            s = ag.add(u, v)
            out = ag.add(s, t)
            backward(ag.weighted_sum(out, probe))
            return {name: node.grad for name, node in
                    dict(u=u, v=v, t=t, s=s, out=out).items()}

        probe = Rng(24).uniform(-1, 1, (4, 5))
        grads = run()
        assert np.array_equal(grads["u"], probe * 3.0 + probe)
        for name in ("v", "t", "s", "out"):
            assert np.array_equal(grads[name], probe), name
        again = run()
        assert all(np.array_equal(grads[k], again[k]) for k in grads)


# Every contraction spec the package runs, with operand shapes.
SPECS = [
    ("bnc,bmc->bnm", (2, 7, 3), (2, 5, 3)),
    ("bnm,bmc->bnc", (2, 7, 5), (2, 5, 3)),
    ("oc,bchw->bohw", (4, 3), (2, 3, 5, 6)),
    ("bpc,bpsc->bps", (2, 7, 3), (2, 7, 4, 3)),
    ("bps,bpsc->bpc", (2, 7, 4), (2, 7, 4, 3)),
]


def _einsum2_with_grads(spec, a, b, probe):
    tape = Tape()
    an, bn = tape.leaf(a), tape.leaf(b)
    out = ag.einsum2(spec, an, bn)
    backward(ag.weighted_sum(out, probe))
    return out.value, an.grad, bn.grad


class TestRoutedEinsum:
    @pytest.mark.parametrize("spec,a_shape,b_shape", SPECS)
    def test_matches_np_einsum_forward_and_gradients(self, spec, a_shape, b_shape):
        rng = Rng(30)
        a, b = rng.uniform(-1, 1, a_shape), rng.uniform(-1, 1, b_shape)
        lhs, out_spec = spec.split("->")
        a_spec, b_spec = lhs.split(",")
        want = np.einsum(spec, a, b)
        probe = rng.uniform(-1, 1, want.shape)
        got, ga, gb = _einsum2_with_grads(spec, a, b, probe)
        for x, ref in ((got, want),
                       (ga, np.einsum(f"{out_spec},{b_spec}->{a_spec}", probe, b)),
                       (gb, np.einsum(f"{out_spec},{a_spec}->{b_spec}", probe, a))):
            assert x.shape == ref.shape
            assert np.abs(x - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("spec,a_shape,b_shape", SPECS)
    def test_transposed_operands_give_the_same_result(self, spec, a_shape, b_shape):
        rng = Rng(31)
        a, b = rng.uniform(-1, 1, a_shape), rng.uniform(-1, 1, b_shape)
        # Same values, stored with every axis order reversed.
        a_t = np.ascontiguousarray(a.T).T
        b_t = np.ascontiguousarray(b.T).T
        assert not a_t.flags.c_contiguous
        tape = Tape()
        want = ag.einsum2(spec, tape.leaf(a), tape.leaf(b)).value
        got = ag.einsum2(spec, tape.leaf(a_t), tape.leaf(b_t)).value
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("spec,a_shape,b_shape", SPECS)
    def test_f32_in_f32_out(self, spec, a_shape, b_shape):
        rng = Rng(32)
        a = rng.uniform(-1, 1, a_shape).astype(np.float32)
        b = rng.uniform(-1, 1, b_shape).astype(np.float32)
        probe = np.ones(np.einsum(spec, a, b).shape, dtype=np.float32)
        got, ga, gb = _einsum2_with_grads(spec, a, b, probe)
        assert got.dtype == ga.dtype == gb.dtype == np.float32

    def test_overflow_gives_inf_without_a_warning(self):
        import warnings

        tape = Tape()
        a = tape.leaf(np.full((2, 3), 1e300))
        b = tape.leaf(np.full((3, 2), 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ag.einsum2("ij,jk->ik", a, b).value
        assert np.all(np.isinf(out))

    def test_malformed_specs_rejected(self):
        tape = Tape()
        a = tape.leaf(np.ones((2, 3)))
        with pytest.raises(ContractError):
            ag.einsum2("ij,jk->i", a, a)  # k is summed out of one operand only
        with pytest.raises(ContractError):
            ag.einsum2("ii,ij->ij", a, a)
        with pytest.raises(ShapeError):
            ag.einsum2("ij,jk->ik", a, a)  # j is 3 in one operand, 2 in the other
        with pytest.raises(ShapeError):
            ag.einsum2("ijk,jk->i", a, a)


class TestGatherLast:
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_value_and_scatter_match_a_loop(self, axis):
        rng = Rng(40)
        arr = rng.uniform(-1, 1, (2, 4, 3, 5))
        idx = np.array([3, 0, 3, 1, 3, 2, 0])
        if axis == -1:
            idx = idx % 5
        tape = Tape()
        a = tape.leaf(arr)
        out = ag.gather_last(a, idx, axis=axis)
        assert np.array_equal(out.value, np.take(arr, idx, axis=axis))
        probe = rng.uniform(-1, 1, out.value.shape)
        backward(ag.weighted_sum(out, probe))
        want = np.zeros_like(arr)
        for j, i in enumerate(idx):
            src = [slice(None)] * 4
            dst = [slice(None)] * 4
            src[axis], dst[axis] = j, i
            want[tuple(dst)] += probe[tuple(src)]
        assert np.abs(a.grad - want).max() < 1e-15
