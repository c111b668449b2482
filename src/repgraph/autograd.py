"""Reverse-mode differentiation over a dynamically recorded graph.

Every forward op returns a :class:`Node` that holds its value, its parent
nodes and its backward rule, so the nodes own the graph: a graph nobody
refers to any more is freed by reference counting, with its closures and
intermediates.  A :class:`Tape` only numbers the nodes it records and keeps
its leaves, so that ``backward`` can give untouched leaves zero gradients.
``backward`` visits the nodes the loss depends on in decreasing id order, so
gradient accumulation order is fixed and runs are bit-stable.  One tape per
training context; independent tapes may run concurrently.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, ShapeError, UnsupportedOpError


class Node:
    """One recorded value.  ``grad`` is populated by :func:`backward`."""

    __slots__ = ("id", "_tape", "value", "parents", "backward_fn", "op", "grad")

    def __init__(self, nid, tape, value, parents, backward_fn, op):
        self.id = nid
        # The tape owns its leaves, so a leaf refers to it weakly; every other
        # node keeps its tape alive.  Nothing forms a reference cycle.
        self._tape = tape if parents else weakref.ref(tape)
        self.value = value
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op
        self.grad = None

    @property
    def tape(self) -> "Tape":
        tape = self._tape if self.parents else self._tape()
        if tape is None:
            raise ContractError("the tape this leaf was recorded on no longer exists")
        return tape

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Numbers recorded nodes and keeps the leaves and named parameters."""

    def __init__(self) -> None:
        self.next_id = 0
        self.leaves: list[Node] = []
        self.params: dict[str, Node] = {}

    def record(self, value, parents=(), backward_fn=None, op="op") -> Node:
        node = Node(self.next_id, self, np.asarray(value), tuple(parents), backward_fn, op)
        self.next_id += 1
        if not node.parents:
            self.leaves.append(node)
        return node

    def leaf(self, value, name: Optional[str] = None) -> Node:
        node = self.record(value, (), None, op="leaf")
        if name is not None:
            if name in self.params:
                raise ContractError(f"duplicate parameter name {name!r} on tape")
            self.params[name] = node
        return node

    def constant(self, value) -> Node:
        """A node gradients never propagate into."""
        return self.record(value, (), None, op="const")


def backward(loss: Node) -> dict[int, np.ndarray]:
    """Accumulate d(loss)/d(node) for every node ``loss`` depends on.

    Returns {node id -> gradient array} and stores the same arrays on
    ``node.grad``.  Leaves of the loss's tape that the loss never touched get
    zero gradients.
    """
    if loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    seen = {loss.id: loss}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if parent.id not in seen:
                seen[parent.id] = parent
                stack.append(parent)
    # A node's id is larger than its parents', so this order visits every
    # node before the nodes it depends on.
    nodes = [seen[i] for i in sorted(seen, reverse=True)]
    grads: dict[int, np.ndarray] = {loss.id: np.ones_like(loss.value)}
    for node in nodes:
        g = grads.get(node.id)
        if g is None or not node.parents:
            continue
        if node.backward_fn is None:
            raise UnsupportedOpError(f"op {node.op!r} has no backward rule")
        parent_grads = node.backward_fn(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            if parent.id not in grads:
                grads[parent.id] = np.zeros_like(parent.value)
            grads[parent.id] += pg
    for node in nodes:
        if node.id in grads:
            node.grad = grads[node.id]
    for leaf in loss.tape.leaves:
        if leaf.id not in grads:
            leaf.grad = grads[leaf.id] = np.zeros_like(leaf.value)
    return grads


# ---------------------------------------------------------------------------
# Arithmetic and structural primitives.  Neural primitives live in ops.py.
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add requires equal shapes, got {a.value.shape} and {b.value.shape}")
    return a.tape.record(a.value + b.value, (a, b), lambda g: (g, g), op="add")


def mul(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul requires equal shapes, got {a.value.shape} and {b.value.shape}")
    return a.tape.record(
        a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value), op="mul"
    )


def scale(a: Node, k: float) -> Node:
    return a.tape.record(a.value * k, (a,), lambda g: (g * k,), op="scale")


def add_const(a: Node, const: np.ndarray) -> Node:
    """Add a broadcastable constant; the constant receives no gradient."""
    out = a.value + const
    if out.shape != a.value.shape:
        raise ShapeError("add_const must not broadcast the node itself")
    return a.tape.record(out, (a,), lambda g: (g,), op="add_const")


def reshape(a: Node, shape) -> Node:
    old = a.value.shape
    return a.tape.record(
        a.value.reshape(shape), (a,), lambda g: (g.reshape(old),), op="reshape"
    )


def transpose(a: Node, axes) -> Node:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return a.tape.record(
        a.value.transpose(axes), (a,), lambda g: (g.transpose(inv),), op="transpose"
    )


def concat(nodes, axis: int) -> Node:
    sizes = [n.value.shape[axis] for n in nodes]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return nodes[0].tape.record(
        np.concatenate([n.value for n in nodes], axis=axis), tuple(nodes), bwd, op="concat"
    )


def narrow(a: Node, axis: int, start: int, length: int) -> Node:
    index = [slice(None)] * a.value.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def bwd(g):
        buf = np.zeros_like(a.value)
        buf[index] = g
        return (buf,)

    return a.tape.record(np.ascontiguousarray(a.value[index]), (a,), bwd, op="narrow")


def gather_last(a: Node, idx: np.ndarray) -> Node:
    """Gather along the last axis: out[..., j] = a[..., idx[j]]."""
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        buf = np.zeros_like(a.value)
        buf_t = np.moveaxis(buf, -1, 0)
        np.add.at(buf_t, idx, np.moveaxis(g, -1, 0))
        return (buf,)

    return a.tape.record(np.take(a.value, idx, axis=-1), (a,), bwd, op="gather_last")


def sum_all(a: Node) -> Node:
    return a.tape.record(
        np.asarray(a.value.sum()), (a,), lambda g: (np.broadcast_to(g, a.value.shape) * np.ones_like(a.value),), op="sum"
    )


def weighted_sum(a: Node, weights: np.ndarray) -> Node:
    """Scalar probe sum(a * weights) with constant weights."""
    if weights.shape != a.value.shape:
        raise ShapeError("probe weights must match the node shape")
    return a.tape.record(
        np.asarray((a.value * weights).sum()), (a,), lambda g: (g * weights,), op="weighted_sum"
    )


def einsum2(spec: str, a: Node, b: Node) -> Node:
    """Binary einsum with derived gradient contractions.

    Valid whenever every input index can be recovered from the output spec
    plus the other operand's spec and no index repeats inside one operand,
    which holds for every contraction in this package.
    """
    lhs, out_spec = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    value = np.einsum(spec, a.value, b.value)

    def bwd(g):
        ga = np.einsum(f"{out_spec},{b_spec}->{a_spec}", g, b.value)
        gb = np.einsum(f"{out_spec},{a_spec}->{b_spec}", g, a.value)
        return ga, gb

    return a.tape.record(value, (a, b), bwd, op=f"einsum[{spec}]")


# ---------------------------------------------------------------------------
# Numerical oracle
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Outcome of one central-difference comparison."""

    target: str
    max_rel_err: float
    eps: float
    tol: float
    passed: bool
    worst_index: tuple = ()
    note: str = ""

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.target}: max rel err {self.max_rel_err:.3e} (eps={self.eps:g})"


def _rel_err(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def finite_diff_check(
    f: Callable[[np.ndarray], tuple[Node, Node]],
    x: np.ndarray,
    eps: float,
    tol: float = 1e-5,
    target: str = "x",
) -> GradCheckReport:
    """Check the tape gradient of ``f`` against central differences.

    ``f`` maps an array to ``(loss_node, x_node)`` where ``x_node`` is the
    tape leaf wrapping that array; the analytic gradient is taken from a
    single backward pass and each coordinate is probed at ``x +/- eps``.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    loss, x_node = f(x)
    backward(loss)
    analytic = x_node.grad
    if analytic is None:
        analytic = np.zeros_like(x)

    numeric = np.zeros_like(x)
    flat = numeric.reshape(-1)
    base = x.reshape(-1)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + eps
        hi = float(f(bumped.reshape(x.shape))[0].value)
        bumped[i] = base[i] - eps
        lo = float(f(bumped.reshape(x.shape))[0].value)
        flat[i] = (hi - lo) / (2.0 * eps)
        if not np.isfinite(flat[i]):
            return GradCheckReport(
                target, np.inf, eps, tol, False,
                worst_index=np.unravel_index(i, x.shape),
                note="non-finite central difference",
            )

    err = _rel_err(analytic, numeric)
    worst = np.unravel_index(int(np.argmax(err)), x.shape) if err.size else ()
    max_err = float(err.max()) if err.size else 0.0
    return GradCheckReport(target, max_err, eps, tol, max_err < tol, worst_index=worst)
