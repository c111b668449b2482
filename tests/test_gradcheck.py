from repgraph import LayerConfig, gradcheck
from repgraph.autograd import GradCheckReport, Tape
from repgraph.tensor import Rng
from repgraph.toytask import ToyTaskConfig, make_batch
from repgraph.train import TrainConfig, init_toy_model, softmax_xent_node, toy_model_logits


def _backward_labels(loss) -> set:
    """Op labels with a backward rule in the graph of ``loss``; einsum specs fold to ``einsum``.

    ``tests/test_autograd.py`` checks every einsum spec against ``np.einsum``.
    """
    labels, seen, stack = set(), {loss.id}, [loss]
    while stack:
        node = stack.pop()
        if node.backward_fn is not None:
            labels.add("einsum" if node.op.startswith("einsum[") else node.op)
        for parent in node.parents:
            if parent.id not in seen:
                seen.add(parent.id)
                stack.append(parent)
    return labels


def test_every_op_a_model_records_has_a_passing_op_case(monkeypatch):
    """Each op a model records is recorded by some op case, and the op cases pass.

    The models are the parameter-record cases (every layer configuration and
    the non-local block) and the toy model of every variant, with its loss.
    Only the op cases run finite differences; a record case stops at one
    forward per probed array.
    """
    check = gradcheck.finite_diff_check
    op_labels, model_labels = set(), set()

    def first_forward(f, x, eps, tol, target):
        loss, node = f(x)
        labels = _backward_labels(loss)
        # Op cases probe unnamed leaves; record cases bind named parameters.
        if node.tape.params:
            model_labels.update(labels)
            return GradCheckReport(target, 0.0, eps, tol, True)
        op_labels.update(labels)
        return check(f, x, eps, tol, target)

    monkeypatch.setattr(gradcheck, "finite_diff_check", first_forward)
    results = [gradcheck.run_case(name, seed=0) for name in gradcheck.CASES]
    assert gradcheck.all_passed(results)

    task = ToyTaskConfig(size=8, min_side=2, max_side=4)
    images, labels = make_batch(Rng(0), 2, task)
    for variant in ("simple", "bottleneck", "nonlocal"):
        layer = LayerConfig(c=8, cp=4, s=3, variant=variant)
        model = init_toy_model(TrainConfig(width=8, layer=layer, task=task))
        logits = toy_model_logits(Tape(), model, images, training=True)
        model_labels.update(_backward_labels(softmax_xent_node(logits, labels)))

    assert {"add_const", "bilinear", "einsum", "conv3x3", "softmax_xent"} <= model_labels
    assert model_labels - op_labels == set()
