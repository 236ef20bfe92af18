"""Reverse-mode automatic differentiation over a gradient tape.

A ``Tape`` records operations in execution order.  Leaves are registered
with ``Tape.watch``; every op whose inputs touch the tape appends one
node holding, per recorded parent, a function that maps the output
gradient to that parent's gradient contribution.  ``backward`` walks the
node list once in reverse from a scalar root, accumulating into a table
indexed by node position.  Parents always precede children in the list,
so a single reverse sweep suffices and nodes recorded after the root are
never visited.

Values are float64 numpy arrays throughout.  Ops require exact shape
agreement (no silent broadcasting); the one blessed broadcast is
``bias_add``, which adds a vector across the rows of a matrix.  Each op
raises ``DimensionError`` on a mismatch before it returns, so callers
rely on these checks and do not repeat them.
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


class _Node:
    __slots__ = ("parents", "pulls")

    def __init__(self, parents, pulls):
        self.parents = parents
        self.pulls = pulls


class Tape:
    """Insertion-ordered record of differentiable operations."""

    def __init__(self):
        self.nodes = []

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
        self.nodes.append(_Node((), ()))
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
        node = tape.nodes[i]
        for parent, pull in zip(node.parents, node.pulls):
            contribution = pull(grad)
            # no in-place add: a pull may hand the same array to several parents
            if table[parent] is None:
                table[parent] = contribution
            else:
                table[parent] = table[parent] + contribution
    return Gradients(tape, table)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _joint_tape(operands):
    tape = None
    for t in operands:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands are recorded on different tapes")
    return tape


def _record(out, operands, pull_fns):
    """Attach ``out`` if any operand is attached; constants drop out."""
    tape = _joint_tape(operands)
    if tape is None:
        return out
    parents = []
    pulls = []
    for t, fn in zip(operands, pull_fns):
        if t.tape is not None:
            parents.append(t.index)
            pulls.append(fn)
    out.tape = tape
    out.index = len(tape.nodes)
    tape.nodes.append(_Node(tuple(parents), tuple(pulls)))
    return out


def _need_same_shape(op, a, b):
    if a.values.shape != b.values.shape:
        raise DimensionError(f"{op} needs matching shapes, got {a.values.shape} and {b.values.shape}")


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("add", a, b)
    out = Tensor(a.values + b.values)
    return _record(out, (a, b), (lambda g: g, lambda g: g))


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("sub", a, b)
    out = Tensor(a.values - b.values)
    return _record(out, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _need_same_shape("mul", a, b)
    out = Tensor(a.values * b.values)
    av, bv = a.values, b.values
    return _record(out, (a, b), (lambda g: g * bv, lambda g: g * av))


def scale(t, factor):
    t = _as_tensor(t)
    factor = float(factor)
    out = Tensor(t.values * factor)
    return _record(out, (t,), (lambda g: g * factor,))


def shift(t, offset):
    t = _as_tensor(t)
    out = Tensor(t.values + float(offset))
    return _record(out, (t,), (lambda g: g,))


def square(t):
    t = _as_tensor(t)
    out = Tensor(t.values * t.values)
    tv = t.values
    return _record(out, (t,), (lambda g: g * (2.0 * tv),))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise DimensionError(
            f"matmul needs 2-D operands, got {a.values.shape} and {b.values.shape}"
        )
    if a.values.shape[1] != b.values.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.values.shape} by {b.values.shape}"
        )
    out = Tensor(a.values @ b.values)
    av, bv = a.values, b.values
    return _record(out, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


def bias_add(m, v):
    m, v = _as_tensor(m), _as_tensor(v)
    if m.values.ndim != 2 or v.values.ndim != 1:
        raise DimensionError(
            f"bias_add needs a matrix and a vector, got {m.values.shape} and {v.values.shape}"
        )
    if m.values.shape[1] != v.values.shape[0]:
        raise DimensionError(
            f"bias width {v.values.shape[0]} does not match matrix columns {m.values.shape[1]}"
        )
    out = Tensor(m.values + v.values)
    return _record(out, (m, v), (lambda g: g, lambda g: g.sum(axis=0)))


def transpose(t):
    t = _as_tensor(t)
    if t.values.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D operand, got {t.values.shape}")
    out = Tensor(t.values.T.copy())
    return _record(out, (t,), (lambda g: g.T,))


def relu(t):
    t = _as_tensor(t)
    tv = t.values
    out = Tensor(np.maximum(tv, 0.0))
    return _record(out, (t,), (lambda g: g * (tv > 0.0),))


def detach(*tensors):
    """Drop tape attachments so later ops treat these tensors as constants."""
    for t in tensors:
        t.tape = None
        t.index = None


def tanh(t):
    t = _as_tensor(t)
    out_values = np.clip(np.tanh(t.values), -_ONE_BELOW, _ONE_BELOW)
    out = Tensor(out_values)
    return _record(out, (t,), (lambda g: g * (1.0 - out_values * out_values),))


def sigmoid_values(v):
    """Numerically stable sigmoid on a plain array, clamped like the traced op."""
    v = np.asarray(v, dtype=np.float64)
    # exp(-|v|) never overflows: 1/(1+e^-v) for v >= 0, e^v/(1+e^v) below
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(out, _ZERO_ABOVE, _ONE_BELOW)


def sigmoid(t):
    t = _as_tensor(t)
    out_values = sigmoid_values(t.values)
    out = Tensor(out_values)
    return _record(out, (t,), (lambda g: g * out_values * (1.0 - out_values),))


def softplus(t):
    """log(1 + exp(x)), computed without overflow for large x."""
    t = _as_tensor(t)
    tv = t.values
    out = Tensor(np.logaddexp(0.0, tv))
    return _record(out, (t,), (lambda g: g * sigmoid_values(tv),))


def total(t):
    """Sum of all entries, as a scalar tensor."""
    t = _as_tensor(t)
    out = Tensor(np.sum(t.values))
    shape = t.values.shape
    return _record(out, (t,), (lambda g: np.full(shape, float(g)),))


def mean(t):
    t = _as_tensor(t)
    if t.values.size == 0:
        raise DimensionError("mean of an empty tensor is undefined")
    return scale(total(t), 1.0 / t.values.size)


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    try:
        out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    except ValueError as err:
        raise DimensionError(f"cannot concat along axis {axis}: {err}") from err
    ndim = out.values.ndim
    offsets = []
    start = 0
    for t in tensors:
        width = t.values.shape[axis]
        offsets.append((start, start + width))
        start += width

    def make_pull(lo, hi):
        def pull(g):
            index = [slice(None)] * ndim
            index[axis] = slice(lo, hi)
            return g[tuple(index)]
        return pull

    return _record(out, tuple(tensors), tuple(make_pull(lo, hi) for lo, hi in offsets))
