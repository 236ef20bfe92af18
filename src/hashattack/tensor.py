"""Reverse-mode automatic differentiation over a gradient tape.

A ``Tape`` records operations in execution order.  Leaves are registered
with ``Tape.watch`` and get the empty node ``()``; every op whose
operands touch the tape appends one node, a tuple of ``(parent
position, pull)`` edges, one per attached operand in operand order,
where ``pull`` maps the output gradient to that parent's contribution.
Used as a ``with`` block, a tape releases the leaves it watched when
the block ends, so later ops treat them as constants again.
``backward`` walks the node list once in reverse from a scalar root,
accumulating into a table indexed by node position.  Parents always
precede children in the list, so a single reverse sweep suffices and
nodes recorded after the root are never visited.

Ops take ``Tensor`` operands only; a caller wraps a constant array with
``Tensor(...)``, and the network entry points that accept raw rows
convert them with ``as_tensor``.  Values are float64 numpy arrays
throughout.  Ops require exact shape agreement (no silent
broadcasting).  ``matmul``, ``bias_add`` and ``concat`` take a row
operand of shape ``(..., rows, width)``: a matrix, or a stack of row
blocks that the weight matrix, the bias vector or the other blocks meet
on the last axis, and their pulls sum over every row of the stack.
Each op raises ``DimensionError`` on a mismatch before it returns, so
callers rely on these checks and do not repeat them.
"""

import numpy as np

from .errors import ContractError, DimensionError

# Saturating nonlinearities are clamped to the largest representable
# values strictly inside their open ranges, so downstream logs and
# divisions never see an exact 0 or +/-1.
_ONE_BELOW = np.nextafter(1.0, 0.0)
_ZERO_ABOVE = np.nextafter(0.0, 1.0)


class Tensor:
    """A float64 array plus an optional attachment to a tape."""

    __slots__ = ("values", "tape", "index")

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.tape = None
        self.index = None

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        state = "attached" if self.tape is not None else "constant"
        return f"Tensor(shape={self.values.shape}, {state})"


class Tape:
    """Insertion-ordered record of differentiable operations."""

    def __init__(self):
        self.nodes = []
        self._watched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        """Release every watched leaf still attached here; exceptions propagate."""
        for tensor in self._watched:
            if tensor.tape is self:
                tensor.tape = None
                tensor.index = None

    def watch(self, tensor):
        """Attach ``tensor`` as a leaf of this tape and return it.

        Watching a tensor already attached to this tape is a no-op, so
        op outputs keep their recorded history.  A tensor carried over
        from another tape is re-attached here as a fresh leaf.
        """
        if tensor.tape is self:
            return tensor
        tensor.tape = self
        tensor.index = len(self.nodes)
        self.nodes.append(())
        self._watched.append(tensor)
        return tensor


class Gradients:
    """Read-only view of one backward pass, keyed by watched tensor."""

    def __init__(self, tape, table):
        self._tape = tape
        self._table = table

    def wrt(self, tensor):
        """Gradient of the root with respect to ``tensor``.

        Tensors on the tape that the root does not depend on get a zero
        gradient of matching shape.  The returned array may be shared
        with other entries of the pass, so treat it as read-only.
        """
        if tensor.tape is not self._tape:
            raise ContractError("tensor is not attached to the tape this backward pass ran on")
        grad = self._table[tensor.index]
        if grad is None:
            return np.zeros_like(tensor.values)
        return grad


def backward(tape, root):
    """Accumulate gradients of scalar ``root`` over every tape node."""
    if root.tape is not tape:
        raise ContractError("backward root is not attached to this tape")
    if root.values.size != 1:
        raise ContractError(f"backward root must hold one value, got shape {root.values.shape}")
    table = [None] * len(tape.nodes)
    table[root.index] = np.ones_like(root.values)
    for i in range(root.index, -1, -1):
        grad = table[i]
        if grad is None:
            continue
        for parent, pull in tape.nodes[i]:
            contribution = pull(grad)
            # no in-place add: a pull may hand the same array to several parents
            table[parent] = contribution if table[parent] is None else table[parent] + contribution
    return Gradients(tape, table)


def as_tensor(x):
    """``x`` if it is a ``Tensor``, else a constant wrapping the array ``x``."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(values, *edges):
    """Wrap op output ``values``; if an operand is attached, append a node of the attached edges."""
    out = Tensor(values)
    tape = None
    node = []
    for operand, pull in edges:
        if operand.tape is None:
            continue
        if tape is None:
            tape = operand.tape
        elif operand.tape is not tape:
            raise ContractError("operands are recorded on different tapes")
        node.append((operand.index, pull))
    if tape is not None:
        out.tape = tape
        out.index = len(tape.nodes)
        tape.nodes.append(tuple(node))
    return out


def _need_same_shape(op, a, b):
    if a.values.shape != b.values.shape:
        raise DimensionError(f"{op} needs matching shapes, got {a.values.shape} and {b.values.shape}")


def add(a, b):
    _need_same_shape("add", a, b)
    return _node(a.values + b.values, (a, lambda g: g), (b, lambda g: g))


def sub(a, b):
    _need_same_shape("sub", a, b)
    return _node(a.values - b.values, (a, lambda g: g), (b, lambda g: -g))


def mul(a, b):
    _need_same_shape("mul", a, b)
    av, bv = a.values, b.values
    return _node(av * bv, (a, lambda g: g * bv), (b, lambda g: g * av))


def scale(t, factor):
    factor = float(factor)
    return _node(t.values * factor, (t, lambda g: g * factor))


def shift(t, offset):
    return _node(t.values + float(offset), (t, lambda g: g))


def square(t):
    tv = t.values
    return _node(tv * tv, (t, lambda g: g * (2.0 * tv)))


def matmul(a, b):
    if a.values.ndim < 2 or b.values.ndim != 2:
        raise DimensionError(
            f"matmul needs rows by a 2-D matrix, got {a.values.shape} and {b.values.shape}"
        )
    if a.values.shape[-1] != b.values.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.values.shape} by {b.values.shape}"
        )
    av, bv = a.values, b.values
    k, m = bv.shape
    # on matrices the reshapes are views of unchanged shape, so a 2-D pull keeps its bits
    return _node(av @ bv, (a, lambda g: g @ bv.T),
                 (b, lambda g: av.reshape(-1, k).T @ g.reshape(-1, m)))


def bias_add(m, v):
    if m.values.ndim < 2 or v.values.ndim != 1:
        raise DimensionError(
            f"bias_add needs rows and a vector, got {m.values.shape} and {v.values.shape}"
        )
    width = v.values.shape[0]
    if m.values.shape[-1] != width:
        raise DimensionError(
            f"bias width {width} does not match row width {m.values.shape[-1]}"
        )
    return _node(m.values + v.values, (m, lambda g: g),
                 (v, lambda g: g.reshape(-1, width).sum(axis=0)))


def transpose(t):
    if t.values.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D operand, got {t.values.shape}")
    return _node(t.values.T.copy(), (t, lambda g: g.T))


def relu(t):
    tv = t.values
    return _node(np.maximum(tv, 0.0), (t, lambda g: g * (tv > 0.0)))


def tanh(t):
    out = np.clip(np.tanh(t.values), -_ONE_BELOW, _ONE_BELOW)
    return _node(out, (t, lambda g: g * (1.0 - out * out)))


def sigmoid_values(v):
    """Numerically stable sigmoid on a plain array, clamped like the traced op."""
    v = np.asarray(v, dtype=np.float64)
    # exp(-|v|) never overflows: 1/(1+e^-v) for v >= 0, e^v/(1+e^v) below
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(out, _ZERO_ABOVE, _ONE_BELOW)


def sigmoid(t):
    out = sigmoid_values(t.values)
    return _node(out, (t, lambda g: g * out * (1.0 - out)))


def softplus(t):
    """log(1 + exp(x)), computed without overflow for large x."""
    tv = t.values
    return _node(np.logaddexp(0.0, tv), (t, lambda g: g * sigmoid_values(tv)))


def total(t):
    """Sum of all entries, as a scalar tensor."""
    shape = t.values.shape
    return _node(np.sum(t.values), (t, lambda g: np.full(shape, float(g))))


def concat(tensors):
    """Join row blocks side by side: (..., rows, a) and (..., rows, b) make (..., rows, a + b)."""
    shapes = [t.values.shape for t in tensors]
    if not shapes or any(len(shape) < 2 or shape[:-1] != shapes[0][:-1] for shape in shapes):
        raise DimensionError(f"concat joins blocks of equal leading shape, got {shapes}")
    edges = []
    start = 0
    for t in tensors:
        stop = start + t.values.shape[-1]
        edges.append((t, lambda g, lo=start, hi=stop: g[..., lo:hi]))
        start = stop
    return _node(np.concatenate([t.values for t in tensors], axis=-1), *edges)
