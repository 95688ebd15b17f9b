"""Dense tensors with taped reverse-mode differentiation.

The engine is deliberately small. Values are float32/float64 numpy arrays
wrapped in :class:`Tensor`; feature maps use batch-channel-height-width
order with row-major storage. A tensor's gradient state (``grad`` and
``requires_grad``) lives in its :class:`GradSlot`. Every differentiable
operation appends one ``(output slot, backward_rule)`` node to the active
:class:`Tape`. A rule holds its inputs' slots and only the arrays its
backward reads, each op naming them in a "keeps" note; so an op output
that no backward reads is freed as soon as the forward drops its tensor,
not when backward runs. An op whose rule keeps enough to recompute its
output can leave a recipe for it on the output (``Tensor.rebuild``); a
consumer that reads the output in backward keeps what :func:`kept_values`
gives, that recipe where there is one, so the output's array is not held
a second time. A layout op's recipe (:func:`concat`, a slice of an
output that has one) is built from its inputs' :func:`kept_values`. Because the recording order is an execution order,
replaying the rules in reverse is a valid reverse-topological walk:
each node fires exactly once, and gradients of fanned-out tensors
accumulate additively. Backward consumes the tape: each node is dropped,
with its output's gradient, as it fires.

Forward evaluation with no active tape records nothing. Inside
:func:`inference`, batch norm uses its running statistics whatever the
modules' ``training`` flags say, so a forward there writes nothing and is
safe to run concurrently. Tape construction and backward are single-writer
per tape; the active-tape stack and the inference flag are thread-local.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GradSlot",
    "ShapeError",
    "Tape",
    "Tensor",
    "accumulate",
    "backward",
    "concat",
    "elementwise",
    "exp",
    "flip",
    "kept_values",
    "make_op",
    "maximum",
    "minimum",
    "recording",
]


class ShapeError(ValueError):
    """An operation rejected its operand shapes."""


_TLS = threading.local()


def _tape_stack() -> list:
    stack = getattr(_TLS, "tapes", None)
    if stack is None:
        stack = []
        _TLS.tapes = stack
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


def inferring() -> bool:
    """True inside :func:`inference` on this thread."""
    return getattr(_TLS, "inference", False)


@contextmanager
def inference():
    """Run this thread's forward passes as in eval mode, leaving the modules untouched."""
    outer, _TLS.inference = inferring(), True
    try:
        yield
    finally:
        _TLS.inference = outer


class GradSlot:
    """A tensor's gradient state: what the tape and backward rules hold of it."""

    __slots__ = ("grad", "requires_grad")

    def __init__(self, requires_grad: bool = False):
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)


class Tape:
    """Ordered record of executed operations, replayed in reverse and consumed by backward."""

    def __init__(self) -> None:
        self._nodes: list[tuple[GradSlot, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: "Tensor") -> None:
        backward(self, loss)


def backward(tape: Tape, loss: "Tensor") -> None:
    """Accumulate gradients of a scalar loss into every contributing tensor.

    Leaf tensors (parameters, inputs) end up with their total gradient in
    ``.grad``; tensors that did not contribute stay at ``grad=None``. The
    tape is consumed: each node, its output's gradient and what its rule
    closes over are dropped as the rule fires; op outputs end with ``grad=None``.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    while tape._nodes:
        slot, rule = tape._nodes.pop()
        g, slot.grad = slot.grad, None
        if g is not None:
            rule(g)


def accumulate(t: "Tensor | GradSlot", g: np.ndarray) -> None:
    """Add a gradient contribution to a tensor or its slot (fan-out sums)."""
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def make_op(out_data: np.ndarray, rule: Callable[[np.ndarray], None], *inputs) -> "Tensor":
    """Wrap a forward result, recording ``rule`` on the active tape.

    ``rule(gout)`` must route gradients into the inputs via ``accumulate``.
    When no tape is active (or no input requires grad) the rule is dropped.
    The tape holds the output's slot, not the output: a rule that holds
    its inputs' slots and no more than the arrays it reads lets every
    other array go when the forward drops it.
    """
    rec = recording(*inputs)
    out = Tensor(out_data, requires_grad=rec)
    if rec:
        active_tape()._nodes.append((out.slot, rule))
    return out


def recording(*inputs) -> bool:
    """Whether :func:`make_op` records an op on ``inputs``: a tape is active
    and one of them requires a gradient."""
    return active_tape() is not None and any(
        isinstance(t, Tensor) and t.slot.requires_grad for t in inputs)


def kept_values(t: "Tensor") -> Callable[[], np.ndarray]:
    """What a rule keeps to read ``t``'s values in backward: a function that
    returns them. It is ``t.rebuild`` where the op that made ``t`` left one, so
    ``t``'s array goes when the forward drops ``t``; otherwise it holds ``t.data``.
    Either way the array may be shared with other readers: a rule only reads it."""
    if t.rebuild is not None:
        return t.rebuild
    data = t.data
    return lambda: data


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` after forward broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def elementwise(a: "Tensor", b, out: np.ndarray, da: Callable, db: Callable | None = None) -> "Tensor":
    """Record ``out``, an elementwise function of ``a`` and ``b`` that may broadcast.

    ``b`` is a Tensor, a constant or None. ``da(g)`` and ``db(g)`` turn the
    output's gradient into each operand's contribution at the output's shape;
    it is summed down to the operand's shape. Only a Tensor ``b`` takes a
    ``db``, and an operand that does not require a gradient gets none.
    Keeps: each gradient-requiring operand's slot and shape, and its
    derivative with the arrays that derivative closes over; the other
    derivative, and what it closes over, is dropped.
    """
    if isinstance(b, Tensor):
        _check_same_dtype(a, b)
    else:
        b = None
    wants = [(t.slot, t.data.shape, d) for t, d in ((a, da), (b, db))
             if t is not None and t.slot.requires_grad]

    def rule(g):
        for slot, shape, d in wants:
            accumulate(slot, _unbroadcast(d(g), shape))

    return make_op(out, rule, a, b)


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def _reduce(a: "Tensor", how: str, axis, keepdims: bool) -> "Tensor":
    """``a.data.sum`` or ``a.data.mean`` over ``axis``; backward spreads ``g``
    (``g / n`` for a mean of ``n`` values) evenly over the reduced axes.
    Keeps: ``a``'s slot and shape."""
    axes = _axis_tuple(axis, a.ndim)
    out = getattr(a.data, how)(axis=axes if axis is not None else None, keepdims=keepdims)
    slot, shape = a.slot, a.data.shape

    def rule(g):
        if how == "mean":
            g = g / int(np.prod([shape[i] for i in axes]))
        if not keepdims and shape:
            g = np.expand_dims(g, axes)
        accumulate(slot, np.broadcast_to(g, shape).copy())

    return make_op(out, rule, a)


def _check_same_dtype(a: "Tensor", b: "Tensor") -> None:
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"dtype mismatch: {a.data.dtype} vs {b.data.dtype}")


def _axis_tuple(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def _zeros_like_later(a: np.ndarray) -> Callable[[], np.ndarray]:
    """A maker of ``np.zeros_like(a)`` that holds ``a``'s shape, dtype and axis
    order, not ``a``. The zeros get numpy's keep-order layout of ``a``, so a
    gradient built in them is laid out, and later summed, in the same order
    as one built in ``np.zeros_like(a)``."""
    shape, dtype, strides = a.shape, a.dtype, a.strides
    if a.flags.c_contiguous or a.flags.f_contiguous:
        order = "C" if a.flags.c_contiguous else "F"
        return lambda: np.zeros(shape, dtype, order)
    # numpy's keep order: axes by decreasing absolute stride, ties in axis order
    perm = sorted(range(a.ndim), key=lambda i: -abs(strides[i]))
    inv = tuple(np.argsort(perm))
    return lambda: np.zeros([shape[i] for i in perm], dtype).transpose(inv)


class Tensor:
    """Dense multi-dimensional array with a gradient slot."""

    __slots__ = ("data", "slot", "rebuild")
    __array_ufunc__ = None     # ``array - tensor`` calls __rsub__, not numpy's object loop

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.slot = GradSlot(requires_grad)
        # set only on a recorded op output: a function that recomputes ``data``
        # bit for bit from arrays the op's rule keeps anyway
        self.rebuild: Callable[[], np.ndarray] | None = None

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.slot.grad = g

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, flag: bool) -> None:
        self.slot.requires_grad = bool(flag)

    # ---- introspection ------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # ---- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return elementwise(self, other, self.data + _value(other), lambda g: g, lambda g: g)

    __radd__ = __add__

    def __neg__(self):
        return elementwise(self, None, -self.data, lambda g: -g)

    def __sub__(self, other):
        return elementwise(self, other, self.data - _value(other), lambda g: g, lambda g: -g)

    def __rsub__(self, other):
        return elementwise(self, other, other - self.data, lambda g: -g)

    # mul, div and pow keep the operand values their derivatives read
    def __mul__(self, other):
        a, b = self.data, _value(other)
        return elementwise(self, other, a * b, lambda g: g * b, lambda g: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            return self * (1.0 / other)
        a, b = self.data, other.data
        return elementwise(self, other, a / b, lambda g: g / b, lambda g: -g * a / (b * b))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        return elementwise(self, None, a ** p, lambda g: g * (p * a ** (p - 1)))

    # ---- reductions ----------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        return _reduce(self, "sum", axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return _reduce(self, "mean", axis, keepdims)

    # ---- structure -----------------------------------------------------
    # each keeps the input's slot and what it needs to shape the gradient
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        slot, orig = self.slot, self.data.shape
        return make_op(self.data.reshape(shape), lambda g: accumulate(slot, g.reshape(orig)), self)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        slot, inv = self.slot, tuple(np.argsort(axes))
        return make_op(self.data.transpose(axes), lambda g: accumulate(slot, g.transpose(inv)), self)

    def __getitem__(self, key):
        """A copy of a basic slice. Keeps: the input's slot and layout. The
        slice of an input that has a recipe gets the recipe ``rebuild()[key]``."""
        _validate_basic_key(key)
        slot, zeros, whole = self.slot, _zeros_like_later(self.data), self.rebuild

        def rule(g):
            gx = zeros()
            gx[key] += g
            accumulate(slot, gx)

        out = make_op(self.data[key].copy(), rule, self)
        if whole is not None and out.requires_grad:
            out.rebuild = lambda: whole()[key].copy()
        return out


def _validate_basic_key(key) -> None:
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if not (p is Ellipsis or p is None or isinstance(p, (int, slice))):
            raise TypeError("only basic slicing is differentiable")


# ---- free functions ------------------------------------------------------

def exp(x: Tensor) -> Tensor:
    """Keeps: its output."""
    out = np.exp(x.data)
    return elementwise(x, None, out, lambda g: g * out)


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max; ties route their gradient to the first operand. Keeps: the mask."""
    bv = _value(b)
    take_a = a.data >= bv
    return elementwise(a, b, np.maximum(a.data, bv), lambda g: g * take_a, lambda g: g * ~take_a)


def minimum(a: Tensor, b) -> Tensor:
    """Elementwise min; ties route their gradient to the first operand. Keeps: the mask."""
    bv = _value(b)
    take_a = a.data <= bv
    return elementwise(a, b, np.minimum(a.data, bv), lambda g: g * take_a, lambda g: g * ~take_a)


def flip(x: Tensor, axis: int) -> Tensor:
    """Reverse ``x`` along ``axis``: the output is a view of ``x``'s values,
    so a consumer that keeps it holds no second copy. Keeps: ``x``'s slot."""
    slot = x.slot
    return make_op(np.flip(x.data, axis=axis), lambda g: accumulate(slot, np.flip(g, axis=axis)), x)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join ``parts`` along ``axis``. Keeps: the parts' slots and offsets.

    A recorded output's recipe joins what :func:`kept_values` gives of each
    part, so a consumer that keeps it holds the parts' recipes or arrays,
    never a joined copy.
    """
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    for p in parts[1:]:
        _check_same_dtype(parts[0], p)
    slots = [p.slot for p in parts]
    offsets = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def rule(g):
        for slot, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate(slot, g[tuple(idx)])

    out = make_op(np.concatenate([p.data for p in parts], axis=axis), rule, *parts)
    if out.requires_grad:
        values = [kept_values(p) for p in parts]
        out.rebuild = lambda: np.concatenate([v() for v in values], axis=axis)
    return out
