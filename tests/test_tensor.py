"""Tape and primitive-op behavior."""

import tracemalloc
import weakref

import numpy as np
import pytest

from ssmdet import ops
from ssmdet.tensor import (
    ShapeError,
    Tape,
    Tensor,
    backward,
    exp,
    flip,
    maximum,
    minimum,
)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        with Tape() as tape:
            x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            loss = x.sum()
        tape.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gradient(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            loss = (x * x).sum()
        tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = x * 3.0
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_fanout_accumulates(self):
        with Tape() as tape:
            x = Tensor([1.5], requires_grad=True)
            loss = (x + x).sum()
        backward(tape, loss)
        assert np.array_equal(x.grad, [2.0])

    def test_each_node_fires_once(self):
        with Tape() as tape:
            x = Tensor([2.0], requires_grad=True)
            y = x * 3.0
            loss = (y + y + y).sum()
        assert len(tape) == 4
        tape.backward(loss)
        assert np.array_equal(x.grad, [9.0])

    def test_backward_consumes_tape(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            w = Tensor([3.0, -1.0], requires_grad=True)
            y = x * w
            z = exp(y) + y
            loss = z.sum()
        assert len(tape) == 4
        tape.backward(loss)
        assert len(tape) == 0
        assert all(t.grad is None for t in (y, z, loss))
        gy = 1.0 + np.exp([3.0, -2.0])
        assert np.allclose(x.grad, gy * [3.0, -1.0], rtol=1e-15, atol=0.0)
        assert np.allclose(w.grad, gy * [1.0, 2.0], rtol=1e-15, atol=0.0)

    def test_backward_frees_gradients_as_it_goes(self):
        # 20 chained products on an 800 KB array: keeping every op's gradient
        # until the tape dies would grow by 20 arrays
        x = Tensor(np.random.default_rng(0).standard_normal(100_000), requires_grad=True)
        with Tape() as tape:
            y = x
            for _ in range(20):
                y = y * 1.001
            loss = y.sum()
        tracemalloc.start()
        try:
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.data.nbytes, peak / x.data.nbytes
        assert np.allclose(x.grad, 1.001 ** 20, rtol=1e-12)

    @pytest.mark.parametrize("consume,want", [
        (lambda y: y + 1.0, np.full((4, 5), 2.0)),
        (lambda y: y.reshape(-1) + 1.0, np.full((4, 5), 2.0)),
        (lambda y: y[1:], np.repeat([[0.0], [2.0], [2.0], [2.0]], 5, axis=1)),
        (ops.softplus, np.full((4, 5), -np.expm1(-(2.0 + np.log1p(np.exp(-2.0)))) * 2.0)),
    ], ids=["add", "reshape", "getitem", "softplus"])
    def test_output_no_backward_reads_is_freed(self, consume, want):
        # the tape and these rules hold y's gradient slot, not y's values, so
        # y's array goes as soon as the forward drops y (softplus keeps its
        # output, from which its derivative is re-derived)
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        with Tape() as tape:
            y = x * 2.0
            freed = weakref.ref(y.data)
            out = consume(y)
            del y
            assert freed() is None
            loss = out.sum()
        tape.backward(loss)
        assert np.array_equal(x.grad, want)

    def test_getitem_gradient_keeps_input_layout(self):
        # the slice's zeros take the layout of its (transposed) input, so the
        # gradient that flows back through the transpose is C-ordered again
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        with Tape() as tape:
            loss = x.transpose(2, 0, 1)[1:].sum()
        tape.backward(loss)
        assert x.grad.strides == np.zeros_like(x.data).strides
        assert np.array_equal(x.grad, np.repeat([[[0.0, 1.0, 1.0, 1.0]]], 6, axis=0).reshape(2, 3, 4))

    def test_unused_branches_get_no_gradient(self):
        with Tape() as tape:
            x = Tensor([1.0], requires_grad=True)
            z = Tensor([5.0], requires_grad=True)
            _ = z * 2.0  # recorded but not part of the loss
            loss = (x * 4.0).sum()
        tape.backward(loss)
        assert np.array_equal(x.grad, [4.0])
        assert z.grad is None


class TestArithmetic:
    def test_scalar_ops_preserve_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert (x + 1.0).dtype == np.float32
        assert (x * 2.0).dtype == np.float32

    def test_dtype_mismatch_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(ShapeError):
            _ = a + b

    def test_broadcast_gradient_sums_down(self):
        with Tape() as tape:
            x = Tensor(np.ones((2, 3)), requires_grad=True)
            b = Tensor(np.zeros(3), requires_grad=True)
            loss = (x + b).sum()
        tape.backward(loss)
        assert np.array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_division_gradients(self):
        with Tape() as tape:
            a = Tensor([6.0], requires_grad=True)
            b = Tensor([3.0], requires_grad=True)
            loss = (a / b).sum()
        tape.backward(loss)
        assert np.allclose(a.grad, [1.0 / 3.0])
        assert np.allclose(b.grad, [-6.0 / 9.0])

    def test_pow_and_exp(self):
        with Tape() as tape:
            x = Tensor([2.0], requires_grad=True)
            loss = (x ** 3 + exp(x)).sum()
        tape.backward(loss)
        assert np.allclose(x.grad, [12.0 + np.exp(2.0)])

    def test_max_min_tie_routes_to_first(self):
        with Tape() as tape:
            a = Tensor([1.0, 5.0], requires_grad=True)
            b = Tensor([1.0, 2.0], requires_grad=True)
            loss = (maximum(a, b) + minimum(a, b)).sum()
        tape.backward(loss)
        # at the tie both max and min pick `a`
        assert np.array_equal(a.grad, [2.0, 1.0])
        assert np.array_equal(b.grad, [0.0, 1.0])

    def test_subtraction_records_one_node(self):
        # `a - b` and `c - a` took a negation node and an addition node before
        a = Tensor([3.0, 1.0], requires_grad=True)
        b = Tensor([1.0, 5.0], requires_grad=True)
        for diff in (lambda: a - b, lambda: a - 2.0, lambda: 2.0 - a):
            with Tape() as tape:
                diff()
            assert len(tape) == 1

    def test_subtraction_gradients_broadcast(self):
        with Tape() as tape:
            a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
            b = Tensor(np.ones((1, 3)), requires_grad=True)
            loss = ((a - b) * 2.0 + (1.0 - b) * 3.0).sum()
        assert (a - b).data.tolist() == [[-1.0, 0.0, 1.0], [2.0, 3.0, 4.0]]
        tape.backward(loss)
        assert np.array_equal(a.grad, np.full((2, 3), 2.0))
        # b's column is used twice by `a - b` and, broadcast by the sum, twice by `1 - b`
        assert np.array_equal(b.grad, [[-10.0, -10.0, -10.0]])

    def test_array_on_the_left_is_a_constant_operand(self):
        c = np.array([[10.0], [20.0]])
        with Tape() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = c - x
            loss = (y * (c + x) * (c * x)).sum()
        assert isinstance(y, Tensor) and y.data.tolist() == [[9.0, 8.0], [19.0, 18.0]]
        assert len(tape) == 6
        tape.backward(loss)
        # d/dx of (c^2 - x^2) c x summed over c = 10, 20
        want = sum(ci * (ci * ci - 3.0 * np.array([1.0, 2.0]) ** 2) for ci in (10.0, 20.0))
        assert np.allclose(x.grad, want, rtol=1e-15, atol=0.0)

    def test_max_min_with_broadcast_constant(self):
        c = np.array([[2.0], [4.0]])
        with Tape() as tape:
            x = Tensor([1.0, 3.0, 5.0], requires_grad=True)
            loss = (maximum(x, c) * 10.0 + minimum(x, c) - (x - c)).sum()
        assert maximum(x, c).data.tolist() == [[2.0, 3.0, 5.0], [4.0, 4.0, 5.0]]
        tape.backward(loss)
        # the max takes x in (0, 1), (0, 2), (1, 2); the min in (0, 0), (1, 0), (1, 1)
        assert np.array_equal(x.grad, [2.0 - 2.0, 11.0 - 2.0, 20.0 - 2.0])

    def test_operand_without_grad_keeps_none(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        for make in (lambda b: a - b, lambda b: b - a, lambda b: maximum(a, b),
                     lambda b: minimum(b, a), lambda b: a * b, lambda b: b / a):
            b = Tensor([2.0, 1.0])
            a.grad = None
            with Tape() as tape:
                loss = make(b).sum()
            tape.backward(loss)
            assert b.grad is None
            assert a.grad is not None

    @pytest.mark.parametrize("op", ["sub", "maximum", "minimum"])
    def test_dtype_mismatch_rejected_by(self, op):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        fn = {"sub": lambda x, y: x - y, "maximum": maximum, "minimum": minimum}[op]
        with pytest.raises(ShapeError, match="dtype mismatch"):
            fn(a, b)
        with pytest.raises(ShapeError, match="dtype mismatch"):
            fn(b, a)


class TestStructure:
    def test_flip_output_is_a_view_of_its_input(self):
        # the reversed cross-scan directions hold views of their sequences
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        with Tape() as tape:
            y = flip(x, 1)
            loss = (y * Tensor(np.arange(24.0).reshape(2, 3, 4))).sum()
        assert np.shares_memory(y.data, x.data)
        assert np.array_equal(y.data, np.flip(x.data, 1))
        tape.backward(loss)
        assert np.array_equal(x.grad, np.flip(np.arange(24.0).reshape(2, 3, 4), 1))

    def test_reshape_transpose_flip_roundtrip(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        t = Tensor(x)
        assert np.array_equal(t.reshape(6, 4).data, x.reshape(6, 4))
        assert np.array_equal(t.transpose(2, 0, 1).data, x.transpose(2, 0, 1))
        assert np.array_equal(flip(t, 1).data, np.flip(x, 1))

    def test_getitem_gradient_scatter(self):
        with Tape() as tape:
            x = Tensor(np.arange(4.0), requires_grad=True)
            loss = (x[1:3] * 2.0).sum()
        tape.backward(loss)
        assert np.array_equal(x.grad, [0.0, 2.0, 2.0, 0.0])

    def test_getitem_rejects_fancy_indexing(self):
        x = Tensor(np.arange(4.0))
        with pytest.raises(TypeError):
            _ = x[[0, 2]]

    def test_concat_gradient_slices(self):
        with Tape() as tape:
            a = Tensor([[1.0, 2.0]], requires_grad=True)
            b = Tensor([[3.0]], requires_grad=True)
            loss = (ops.concat_channels([a, b]) * Tensor([[1.0, 10.0, 100.0]])).sum()
        tape.backward(loss)
        assert np.array_equal(a.grad, [[1.0, 10.0]])
        assert np.array_equal(b.grad, [[100.0]])

    def test_no_tape_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        assert not y.requires_grad
        assert y.grad is None
