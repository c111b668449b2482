"""Reverse-mode differentiation over a dynamically recorded graph.

Every forward op returns a :class:`Node` that holds its value, its parent
nodes and its backward rule, so the nodes own the graph: a graph nobody
refers to any more is freed by reference counting, with its closures and
intermediates.  A :class:`Tape` only numbers the nodes it records and owns
its named parameters, so that ``backward`` can give untouched ones zero
gradients.  ``backward`` visits the nodes the loss depends on in decreasing
id order, so gradient accumulation order is fixed and runs are bit-stable,
and it consumes the graph as it goes: each node drops its parents and its
rule once the rule has run, so a second backward through it raises.
One tape per training context; independent tapes may run concurrently.

A tape built with ``grad=False`` records no graph: its nodes keep their value
but no parents and no backward rule, so each intermediate is freed as soon as
its last consumer has run.  Every forward that only reads values runs on one.
"""

from __future__ import annotations

import math
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
        # The tape owns its named parameters, so every leaf refers to it
        # weakly; every other node keeps its tape alive.  Nothing forms a
        # reference cycle.  Every node of a tape without gradients has no
        # parents, so it too refers to its tape weakly, as does every node
        # that ``backward`` has consumed.
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
            raise ContractError("the tape this node was recorded on no longer exists")
        return tape

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Numbers recorded nodes and keeps the named parameters.

    ``grad=False`` makes a tape that records no backward graph: every node it
    records has no parents and no backward rule, and ``backward`` refuses its
    nodes.  The ops are the same on both kinds of tape and compute the same
    bytes.  Its nodes refer to the tape weakly, so keep the tape in a
    variable for the whole forward.
    ``layer.repgraph_forward`` (and so every array-level block forward),
    ``ops.project_1x1``, ``toy_train``'s held-out pass, ``repgraph affinity
    --ckpt`` and ``scripts/train_toy.py`` run on such a tape.
    """

    def __init__(self, grad: bool = True) -> None:
        self.grad = grad
        self.next_id = 0
        self.params: dict[str, Node] = {}

    def record(self, value, parents=(), backward_fn=None, op="op") -> Node:
        if not self.grad:
            parents, backward_fn = (), None
        node = Node(self.next_id, self, np.asarray(value), tuple(parents), backward_fn, op)
        self.next_id += 1
        return node

    def leaf(self, value, name: Optional[str] = None) -> Node:
        node = self.record(value, (), None, op="leaf")
        if name is not None:
            if name in self.params:
                raise ContractError(f"duplicate parameter name {name!r} on tape")
            self.params[name] = node
        return node


def backward(loss: Node) -> dict[int, np.ndarray]:
    """Accumulate d(loss)/d(node) for every node ``loss`` depends on, consuming the graph.

    Each node's finished gradient is stored on ``node.grad`` before its rule
    runs.  Once the rule has run, the node drops its parents and its rule, and
    refers to its tape weakly, so a node nobody else holds is freed, with its
    value, closure and gradient, before the traversal reaches its parents.  A
    second backward that reaches a consumed node, from the same loss or from
    a new one built on it, raises :class:`ContractError`.

    Returns {leaf id -> gradient array}, the same arrays as ``leaf.grad``.
    Named parameters of the loss's tape that the loss never touched get zero
    gradients; any other untouched leaf keeps ``grad = None``.
    """
    if loss.value.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.value.shape}")
    tape = loss.tape
    if not tape.grad:
        raise ContractError(f"op {loss.op!r} was recorded on a tape without gradients")
    pending = {loss.id: loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        if not node.parents and node.op != "leaf":
            # An op without parents on a grad tape is one an earlier backward
            # consumed; one recorded on a tape without gradients is a constant.
            owner = node._tape()
            if owner is not None and owner.grad:
                raise ContractError(f"op {node.op!r} was consumed by an earlier backward")
        for parent in node.parents:
            if parent.id not in pending:
                pending[parent.id] = parent
                stack.append(parent)
    tape_ref = weakref.ref(tape)
    grads: dict[int, np.ndarray] = {loss.id: np.ones_like(loss.value)}
    leaf_grads: dict[int, np.ndarray] = {}
    # A node's id is larger than its parents', so this order visits every
    # node before the nodes it depends on.  Each node is popped, so the
    # traversal holds it only while its rule runs.
    for nid in sorted(pending, reverse=True):
        node = pending.pop(nid)
        g = grads.pop(nid, None)
        if not node.parents:
            if g is not None:
                node.grad = leaf_grads[nid] = g
            continue
        if g is not None:
            node.grad = g
            if node.backward_fn is None:
                raise UnsupportedOpError(f"op {node.op!r} has no backward rule")
            for parent, pg in zip(node.parents, node.backward_fn(g)):
                if pg is None:
                    continue
                # A backward rule may hand out ``g`` itself or a read-only
                # view of it, and ``add`` hands the same array to both
                # parents, so a gradient is kept as it arrives and never
                # added to in place.
                if parent.id in grads:
                    grads[parent.id] = grads[parent.id] + pg
                else:
                    grads[parent.id] = pg
        node.parents, node.backward_fn, node._tape = (), None, tape_ref
    for param in tape.params.values():
        if param.id not in leaf_grads:
            param.grad = leaf_grads[param.id] = np.zeros_like(param.value)
    return leaf_grads


# ---------------------------------------------------------------------------
# Arithmetic and structural primitives.  Neural primitives live in ops.py.
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add requires equal shapes, got {a.value.shape} and {b.value.shape}")
    return a.tape.record(a.value + b.value, (a, b), lambda g: (g, g), op="add")


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


def gather_last(a: Node, idx: np.ndarray, axis: int = -1) -> Node:
    """Gather along one axis, the last by default: out = np.take(a, idx, axis).

    The backward scatter is one ``np.bincount`` over the flat index of every
    gathered element; it adds in index order, so the result is the same on
    every run.
    """
    idx = np.asarray(idx, dtype=np.int64)
    shape = a.value.shape
    axis %= len(shape)
    outer, inner = math.prod(shape[:axis]), math.prod(shape[axis + 1:])

    def bwd(g):
        rows = np.arange(outer)[:, None, None] * shape[axis] + idx.reshape(-1)[:, None]
        flat = (rows * inner + np.arange(inner)).reshape(-1)
        buf = np.bincount(flat, weights=g.reshape(-1), minlength=math.prod(shape))
        return (buf.reshape(shape).astype(a.value.dtype, copy=False),)

    return a.tape.record(np.take(a.value, idx, axis=axis), (a,), bwd, op="gather_last")


def weighted_sum(a: Node, weights: np.ndarray) -> Node:
    """Scalar probe sum(a * weights) with constant weights."""
    if weights.shape != a.value.shape:
        raise ShapeError("probe weights must match the node shape")
    return a.tape.record(
        np.asarray((a.value * weights).sum()), (a,), lambda g: (g * weights,), op="weighted_sum"
    )


def matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.matmul`` that lets overflow give inf and NaN without a warning.

    ``np.einsum`` never warned, and a diverging run must reach the trainer's
    non-finite-loss check rather than stop on a ``RuntimeWarning``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(a, b, out=out)


def _blas_ready(x: np.ndarray) -> np.ndarray:
    """``x``, or a C-contiguous copy when neither of its two matrix axes has
    unit stride; ``np.matmul`` hands BLAS only operands with one such axis and
    runs a much slower loop on the rest."""
    unit = [s == x.itemsize for s, d in zip(x.strides[-2:], x.shape[-2:]) if d > 1]
    return np.ascontiguousarray(x) if unit and not any(unit) else x


def _operand(x: np.ndarray, spec: str, loop: str, free: str, summed: str,
             sizes: dict, left: bool) -> np.ndarray:
    """``x`` as a (loop..., free, summed) or (loop..., summed, free) matmul operand.

    A loop index the operand lacks becomes a broadcast axis of length 1.
    """
    inner = free + summed if left else summed + free
    order = [spec.index(i) for i in loop if i in spec] + [spec.index(i) for i in inner]
    shape = [sizes[i] if i in spec else 1 for i in loop]
    shape += [math.prod(sizes[i] for i in part) for part in
              ((free, summed) if left else (summed, free))]
    return _blas_ready(x.transpose(order).reshape(shape))


def _contract(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(spec, a, b)`` computed as one :func:`matmul`.

    The output spec is read as loop indices, then the row indices of one
    operand, then the column indices of the other.  The columns are the
    longest suffix of indices that only one operand carries, the rows the
    run before it that only the other carries, and the loop indices the rest:
    matmul's batch axes, broadcast where an operand lacks one.  Indices both
    operands carry and the output does not are contracted.  The product then
    comes out in output order, C-contiguous, with no transpose.
    """
    lhs, out = spec.split("->")
    specs = lhs.split(",")
    if len(specs) != 2 or any(len(set(s)) != len(s) for s in (*specs, out)):
        raise ContractError(f"einsum2 needs two operands without repeated indices: {spec!r}")
    a_spec, b_spec = specs
    if a.ndim != len(a_spec) or b.ndim != len(b_spec):
        raise ShapeError(f"{spec!r} does not fit operand shapes {a.shape} and {b.shape}")
    if (set(a_spec) ^ set(b_spec)) - set(out) or set(out) - set(a_spec + b_spec):
        raise ContractError(f"every index of {spec!r} must be in the output or in both operands")
    sizes = dict(zip(b_spec, b.shape))
    for i, d in zip(a_spec, a.shape):
        if sizes.setdefault(i, d) != d:
            raise ShapeError(f"index {i!r} of {spec!r} has sizes {d} and {sizes[i]}")

    # Which operand carries each output index alone: "a", "b", or "-" for both.
    sides = "".join("-" if i in a_spec and i in b_spec else "a" if i in a_spec else "b"
                    for i in out)
    col = sides[-1:].strip("-")
    row = {"a": "b", "b": "a"}.get(col, "")
    end = len(sides.rstrip(col))
    mid = len(sides[:end].rstrip(row))
    loop, rows, cols = out[:mid], out[mid:end], out[end:]
    summed = "".join(i for i in a_spec if i in b_spec and i not in out)
    # The operand that carries the columns goes on the right.
    if col == "a":
        (a, a_spec), (b, b_spec) = (b, b_spec), (a, a_spec)
    left = _operand(a, a_spec, loop, rows, summed, sizes, left=True)
    right = _operand(b, b_spec, loop, cols, summed, sizes, left=False)
    return matmul(left, right).reshape([sizes[i] for i in out])


def einsum2(spec: str, a: Node, b: Node) -> Node:
    """Binary einsum with derived gradient contractions, each one :func:`_contract`.

    Valid whenever every input index is in the output or in both operands
    and no index repeats inside one operand, which holds for every
    contraction in this package; the gradient specs then hold it too.
    """
    lhs, out_spec = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    value = _contract(spec, a.value, b.value)

    def bwd(g):
        ga = _contract(f"{out_spec},{b_spec}->{a_spec}", g, b.value)
        gb = _contract(f"{out_spec},{a_spec}->{b_spec}", g, a.value)
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
