"""Dense tensors with taped reverse-mode differentiation.

The engine is deliberately small. Values are float32/float64 numpy arrays
wrapped in :class:`Tensor`; feature maps use batch-channel-height-width
order with row-major storage. Every differentiable operation appends one
``(output, backward_rule)`` node to the active :class:`Tape`. Because the
recording order is an execution order, replaying the rules in reverse is
a valid reverse-topological walk: each node fires exactly once, and
gradients of fanned-out tensors accumulate additively. Backward consumes
the tape: each node is dropped, with its output's gradient, as it fires.

Forward evaluation with no active tape records nothing, so inference is
cheap and safe to run concurrently. Tape construction and backward are
single-writer per tape; the active-tape stack is thread-local.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tape",
    "Tensor",
    "accumulate",
    "backward",
    "concat",
    "exp",
    "flip",
    "make_op",
    "maximum",
    "minimum",
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


class Tape:
    """Ordered record of executed operations, replayed in reverse and consumed by backward."""

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

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
        out, rule = tape._nodes.pop()
        g, out.grad = out.grad, None
        if g is not None:
            rule(g)


def accumulate(t: "Tensor", g: np.ndarray) -> None:
    """Add a gradient contribution to a tensor (fan-out sums)."""
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def make_op(out_data: np.ndarray, rule: Callable[[np.ndarray], None], *inputs) -> "Tensor":
    """Wrap a forward result, recording ``rule`` on the active tape.

    ``rule(gout)`` must route gradients into the inputs via ``accumulate``.
    When no tape is active (or no input requires grad) the rule is dropped.
    """
    tape = active_tape()
    rec = tape is not None and any(
        isinstance(t, Tensor) and t.requires_grad for t in inputs
    )
    out = Tensor(out_data, requires_grad=rec)
    if rec:
        tape._nodes.append((out, rule))
    return out


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


def _check_same_dtype(a: "Tensor", b: "Tensor") -> None:
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"dtype mismatch: {a.data.dtype} vs {b.data.dtype}")


def _axis_tuple(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


class Tensor:
    """Dense multi-dimensional array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

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
        if isinstance(other, Tensor):
            _check_same_dtype(self, other)
            a, b = self, other

            def rule(g):
                accumulate(a, _unbroadcast(g, a.data.shape))
                accumulate(b, _unbroadcast(g, b.data.shape))

            return make_op(a.data + b.data, rule, a, b)
        a = self

        def rule(g):
            accumulate(a, _unbroadcast(g, a.data.shape))

        return make_op(a.data + other, rule, a)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def rule(g):
            accumulate(a, -g)

        return make_op(-a.data, rule, a)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Tensor):
            _check_same_dtype(self, other)
            a, b = self, other

            def rule(g):
                accumulate(a, _unbroadcast(g * b.data, a.data.shape))
                accumulate(b, _unbroadcast(g * a.data, b.data.shape))

            return make_op(a.data * b.data, rule, a, b)
        a = self

        def rule(g):
            accumulate(a, _unbroadcast(g * other, a.data.shape))

        return make_op(a.data * other, rule, a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            _check_same_dtype(self, other)
            a, b = self, other

            def rule(g):
                accumulate(a, _unbroadcast(g / b.data, a.data.shape))
                accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

            return make_op(a.data / b.data, rule, a, b)
        return self * (1.0 / other)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self

        def rule(g):
            accumulate(a, g * (p * a.data ** (p - 1)))

        return make_op(a.data ** p, rule, a)

    # ---- reductions ----------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        a = self
        axes = _axis_tuple(axis, a.ndim)
        out_data = a.data.sum(axis=axes if axis is not None else None, keepdims=keepdims)

        def rule(g):
            gg = g
            if not keepdims and a.ndim:
                gg = np.expand_dims(gg, axes)
            accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

        return make_op(out_data, rule, a)

    def mean(self, axis=None, keepdims: bool = False):
        a = self
        axes = _axis_tuple(axis, a.ndim)
        n = int(np.prod([a.data.shape[i] for i in axes])) if a.ndim else 1
        out_data = a.data.mean(axis=axes if axis is not None else None, keepdims=keepdims)

        def rule(g):
            gg = g / n
            if not keepdims and a.ndim:
                gg = np.expand_dims(gg, axes)
            accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

        return make_op(out_data, rule, a)

    # ---- structure -----------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape

        def rule(g):
            accumulate(a, g.reshape(orig))

        return make_op(a.data.reshape(shape), rule, a)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = tuple(np.argsort(axes))

        def rule(g):
            accumulate(a, g.transpose(inv))

        return make_op(a.data.transpose(axes), rule, a)

    def __getitem__(self, key):
        _validate_basic_key(key)
        a = self
        out_data = a.data[key]

        def rule(g):
            gx = np.zeros_like(a.data)
            gx[key] += g
            accumulate(a, gx)

        return make_op(out_data.copy(), rule, a)


def _validate_basic_key(key) -> None:
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if not (p is Ellipsis or p is None or isinstance(p, (int, slice))):
            raise TypeError("only basic slicing is differentiable")


# ---- free functions ------------------------------------------------------

def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def rule(g):
        accumulate(x, g * out_data)

    return make_op(out_data, rule, x)


def maximum(a: Tensor, b) -> Tensor:
    """Elementwise max; ties route their gradient to the first operand."""
    bdata = b.data if isinstance(b, Tensor) else b
    if isinstance(b, Tensor):
        _check_same_dtype(a, b)
    take_a = a.data >= bdata

    def rule(g):
        accumulate(a, _unbroadcast(g * take_a, a.data.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(g * ~take_a, b.data.shape))

    return make_op(np.maximum(a.data, bdata), rule, a, b)


def minimum(a: Tensor, b) -> Tensor:
    bdata = b.data if isinstance(b, Tensor) else b
    if isinstance(b, Tensor):
        _check_same_dtype(a, b)
    take_a = a.data <= bdata

    def rule(g):
        accumulate(a, _unbroadcast(g * take_a, a.data.shape))
        if isinstance(b, Tensor):
            accumulate(b, _unbroadcast(g * ~take_a, b.data.shape))

    return make_op(np.minimum(a.data, bdata), rule, a, b)


def flip(x: Tensor, axis: int) -> Tensor:
    def rule(g):
        accumulate(x, np.flip(g, axis=axis))

    return make_op(np.ascontiguousarray(np.flip(x.data, axis=axis)), rule, x)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    for p in parts[1:]:
        _check_same_dtype(parts[0], p)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            accumulate(p, g[tuple(idx)])

    return make_op(np.concatenate([p.data for p in parts], axis=axis), rule, *parts)
