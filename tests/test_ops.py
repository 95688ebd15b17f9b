"""Operator semantics against direct nested-loop oracles and hand values."""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (batch_norm_primitives, conv1d, conv1d_loops, conv2d_grad_loops, conv2d_loops,
                     eca_attention_chain, layer_norm_primitives, shuffle_concat_primitives)
from ssmdet import ops
from ssmdet import tensor as T
from ssmdet.blocks import BatchNorm, EcaConv
from ssmdet.gradcheck import grad_check
from ssmdet.ssm import ssm_scan
from ssmdet.tensor import ShapeError, Tape, Tensor, inference


# (stride, padding, groups, kernel) on a [2, 4, 7, 6] input: dense, grouped,
# depthwise (groups = C) and strided, with 3x3 and 1x1 kernels. At stride 2
# the width leaves a remainder, (6 + 2 - k) % 2 == 1. The 3x3 ids predate
# the kernel parameter.
CONV_CASES = [
    pytest.param(s, p, g, k, id=f"{s}-{p}-{g}" if k == 3 else f"{s}-{p}-{g}-k{k}")
    for k in (3, 1)
    for s, p, g in [(1, 0, 1), (2, 1, 1), (1, 1, 2), (1, 1, 4), (2, 1, 2), (2, 1, 4)]
]


# CONV_CASES as (x shape, w shape, stride, padding, groups), plus the shape of
# ECA's channel conv: [2, 1, 9] with a length-5 kernel, as a k x 1 conv
BLOCK_CASES = [
    pytest.param((2, 4, 7, 6), (4, 4 // g, k, k), s, p, g, id=case.id)
    for case in CONV_CASES for s, p, g, k in [case.values]
] + [pytest.param((2, 1, 9, 1), (1, 1, 5, 1), 1, (2, 0), 1, id="conv1d-k5")]


def _taped_conv(x, w, gout, stride, padding, groups):
    """The conv's output and the w and x gradients of sum(output * gout)."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    with Tape() as tape:
        out = ops.conv2d(xt, wt, None, stride, padding, groups)
        loss = (out * Tensor(gout)).sum()
    tape.backward(loss)
    return out.data, wt.grad, xt.grad


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(9.0, dtype=np.float32).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        assert np.array_equal(ops.conv2d(x, w).data, x.data)

    def test_output_shape_stride2(self):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32))
        assert ops.conv2d(x, w, stride=2, padding=1).shape == (1, 1, 2, 2)

    def test_matches_loop_oracle_f32(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 4, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=1).data
        want = conv2d_loops(x, w, b, stride=1, padding=1).astype(np.float32)
        assert np.abs(got - want).max() <= 1e-6

    @pytest.mark.parametrize("stride,padding,groups,kernel", CONV_CASES)
    def test_matches_loop_oracle_f64(self, stride, padding, groups, kernel):
        rng = np.random.default_rng(stride * 7 + padding * 3 + groups)
        x = rng.standard_normal((2, 4, 7, 6))
        w = rng.standard_normal((4, 4 // groups, kernel, kernel))
        got = ops.conv2d(Tensor(x), Tensor(w), None, stride, padding, groups).data
        want = conv2d_loops(x, w, None, stride, padding, groups)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("stride,padding,groups,kernel", CONV_CASES)
    def test_gradient_matches_finite_difference(self, stride, padding, groups, kernel):
        rng = np.random.default_rng(stride * 7 + padding * 3 + groups + kernel)
        x = Tensor(rng.standard_normal((2, 4, 7, 6)))
        w = Tensor(rng.standard_normal((4, 4 // groups, kernel, kernel)))
        b = Tensor(rng.standard_normal(4))
        report = grad_check(lambda *a: ops.conv2d(*a, stride, padding, groups),
                            [x, w, b], tolerance=1e-4)
        assert report.passed, str(report)

    def test_tape_retains_no_padded_copy(self):
        # backward rebuilds the padded float64 input from x.data
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 16, 24, 24)), dtype=np.float32, requires_grad=True)
        w = Tensor(rng.standard_normal((16, 16, 3, 3)), dtype=np.float32, requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = ops.conv2d(x, w, padding=1)
                held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held <= 1.5 * out.data.nbytes, (held, out.data.nbytes)

    # every case with the column budget cut to `rows` output rows per block,
    # so that its columns span two blocks or more (at 2 rows and an odd
    # output height the last block is partial)
    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("x_shape,w_shape,stride,padding,groups", BLOCK_CASES)
    def test_block_boundaries_are_invisible(self, monkeypatch, rows, x_shape, w_shape,
                                            stride, padding, groups):
        rng = np.random.default_rng(rows + stride + groups + w_shape[2])
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        want = conv2d_loops(x, w, None, stride, padding, groups)
        n, c_in, _, _ = x_shape
        _, _, ho, wo = want.shape
        gout = rng.standard_normal(want.shape)
        args = stride, padding, groups
        f32 = [a.astype(np.float32) for a in (x, w, gout)]
        assert c_in * w_shape[2] * w_shape[3] * ho * wo * n * 8 <= ops._COLUMN_BLOCK_BYTES
        one_block = _taped_conv(*f32, *args)

        monkeypatch.setattr(ops, "_COLUMN_BLOCK_BYTES", rows * c_in * w_shape[2] * w_shape[3] * wo * n * 8)
        assert -(-ho // rows) >= 2
        for got, ref in zip(_taped_conv(*f32, *args), one_block):
            assert got.dtype == np.float32 and got.tobytes() == ref.tobytes()
        out, gw, gx = _taped_conv(x, w, gout, *args)
        gx_want, gw_want = conv2d_grad_loops(x, w, gout, stride, padding, groups)
        for got, ref in [(out, want), (gw, gw_want), (gx, gx_want)]:
            assert np.abs(got - ref).max() <= 1e-12

    # A taped f32 conv whose weight needs a gradient (x needs none: the input
    # gradient builds no columns) holds at most the padded float64 input, one
    # block of columns and the float64 output at once, in forward and in the
    # weight gradient. Measured peak over that sum with 512 KiB blocks: 1.02x
    # depthwise, 1.09x dense; with one block of all rows 4.59x and 4.63x, and
    # 1.59x and 1.62x with the per-tap loop this path replaced.
    @pytest.mark.parametrize("c,groups", [(64, 64), (32, 1)], ids=["depthwise", "dense"])
    def test_transient_memory_is_one_column_block(self, c, groups):
        rng = np.random.default_rng(13)
        n, hw = 8, 20
        x = Tensor(rng.standard_normal((n, c, hw, hw)), dtype=np.float32)
        w = Tensor(rng.standard_normal((c, c // groups, 3, 3)), dtype=np.float32, requires_grad=True)
        row = c * 9 * hw * n * 8   # (channel, tap) by (column, image) of one output row
        block = min(hw, max(1, ops._COLUMN_BLOCK_BYTES // row)) * row
        assert block < hw * row     # the columns span two blocks or more
        bound = c * (hw + 2) ** 2 * n * 8 + block + n * c * hw * hw * 8
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = ops.conv2d(x, w, padding=1, groups=groups).sum()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad is not None
        assert peak <= 1.2 * bound, (peak / bound, peak, bound)

    def test_depthwise_matches_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 6, 5, 5))
        w = rng.standard_normal((6, 1, 3, 3))
        got = ops.conv2d(Tensor(x), Tensor(w), None, padding=1, groups=6).data
        want = conv2d_loops(x, w, None, padding=1, groups=6)
        assert np.abs(got - want).max() <= 1e-12

    # a group with one input channel but two outputs, and one with two inputs
    # but one output: the input gradient takes a product for the second
    @pytest.mark.parametrize("c_out,groups", [(8, 4), (2, 2)])
    def test_one_channel_groups_match_oracle_and_fd(self, c_out, groups):
        rng = np.random.default_rng(c_out + groups)
        x = Tensor(rng.standard_normal((2, 4, 7, 6)))
        w = Tensor(rng.standard_normal((c_out, 4 // groups, 3, 3)))
        b = Tensor(rng.standard_normal(c_out))
        got = ops.conv2d(x, w, b, 2, 1, groups).data
        want = conv2d_loops(x.data, w.data, b.data, 2, 1, groups)
        assert np.abs(got - want).max() <= 1e-12
        report = grad_check(lambda *a: ops.conv2d(*a, 2, 1, groups), [x, w, b], tolerance=1e-4)
        assert report.passed, str(report)

    def test_channel_group_mismatch_names_dimension(self):
        x = Tensor(np.zeros((1, 5, 4, 4)))
        w = Tensor(np.zeros((2, 2, 1, 1)))
        with pytest.raises(ShapeError, match="channels 5 not divisible by groups 2"):
            ops.conv2d(x, w, groups=2)

    def test_kernel_exceeding_input_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="exceeds padded input"):
            ops.conv2d(x, w)

    # an empty batch, and zero input channels (a sum over no terms)
    @pytest.mark.parametrize("x_shape,w_shape", [((0, 4, 6, 6), (4, 4, 3, 3)),
                                                 ((2, 0, 6, 6), (4, 0, 3, 3))])
    def test_empty_operands_give_empty_sums(self, x_shape, w_shape):
        x = Tensor(np.zeros(x_shape), requires_grad=True)
        w = Tensor(np.ones(w_shape), requires_grad=True)
        b = Tensor(np.arange(4.0), requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(x, w, b, padding=1)
            loss = out.sum()
        tape.backward(loss)
        assert np.array_equal(out.data, np.broadcast_to(b.data.reshape(1, 4, 1, 1), (x_shape[0], 4, 6, 6)))
        assert x.grad.shape == x_shape and w.grad.shape == w_shape
        assert not w.grad.any() and np.all(b.grad == x_shape[0] * 36)

    @pytest.mark.parametrize("groups", [0, -1])
    def test_groups_below_one_rejected(self, groups):
        x, w = Tensor(np.zeros((1, 4, 6, 6))), Tensor(np.zeros((4, 4, 3, 3)))
        with pytest.raises(ShapeError, match=f"conv2d: groups {groups} must be >= 1"):
            ops.conv2d(x, w, groups=groups)

    @pytest.mark.parametrize("kernel", [(0, 0), (0, 3), (3, 0)])
    def test_zero_length_kernel_side_rejected(self, kernel):
        x, w = Tensor(np.zeros((1, 4, 6, 6))), Tensor(np.zeros((4, 4, *kernel)))
        with pytest.raises(ShapeError, match="conv2d: kernel .* side of zero length"):
            ops.conv2d(x, w)

    @pytest.mark.parametrize("bias", [np.zeros(3, np.float32), np.zeros(5, np.float32),
                                      np.zeros((1, 4), np.float32), np.zeros(4, np.float64)],
                             ids=["short", "long", "2d", "float64"])
    def test_bad_bias_rejected(self, bias):
        x = Tensor(np.zeros((1, 4, 6, 6)), dtype=np.float32)
        w = Tensor(np.zeros((4, 4, 3, 3)), dtype=np.float32)
        with pytest.raises(ShapeError, match=r"conv2d: bias .* must be \(4,\) float32"):
            ops.conv2d(x, w, Tensor(bias, dtype=bias.dtype))

    # a k x 1 kernel with an (h, w) padding pair, the form ECA's channel conv took
    @pytest.mark.parametrize("stride,padding", [(1, (1, 0)), (1, (2, 1)), (2, (1, 0))])
    def test_padding_pair_matches_oracle(self, stride, padding):
        rng = np.random.default_rng(11 + stride + padding[0])
        x = rng.standard_normal((2, 3, 7, 5))
        w = rng.standard_normal((4, 3, 3, 1))
        b = rng.standard_normal(4)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        want = conv2d_loops(x, w, b, stride, padding)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
        got32 = ops.conv2d(*(Tensor(a, dtype=np.float32) for a in (x, w, b)), stride, padding).data
        assert np.abs(got32 - want.astype(np.float32)).max() <= 1e-6

    def test_padding_pair_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 3, 7, 5)))
        w = Tensor(rng.standard_normal((4, 3, 3, 1)))
        b = Tensor(rng.standard_normal(4))
        report = grad_check(lambda *a: ops.conv2d(*a, 1, (1, 0)), [x, w, b], tolerance=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("padding", [(-1, 0), (0, -1)])
    def test_negative_padding_entry_rejected(self, padding):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ShapeError, match="padding"):
            ops.conv2d(x, w, padding=padding)


class TestConv1d:
    """The oracle chain's channel conv, a k x 1 conv2d, against its loop oracle."""

    def test_delta_kernel_is_identity(self):
        x = Tensor(np.arange(8.0).reshape(1, 1, 8))
        w = Tensor(np.array([[[0.0, 1.0, 0.0]]]))
        assert np.array_equal(conv1d(x, w).data, x.data)

    def test_zero_kernel_zero_output(self):
        x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 6)))
        w = Tensor(np.zeros((1, 1, 5)))
        assert np.array_equal(conv1d(x, w).data, np.zeros((2, 1, 6)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 1, 16))
        w = rng.standard_normal((1, 1, 3))
        got = conv1d(Tensor(x), Tensor(w)).data
        assert np.abs(got - conv1d_loops(x, w)).max() <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_rounded_loop_oracle(self, dtype):
        # the f64 oracle rounded once to the input dtype, with no tolerance
        rng = np.random.default_rng(3)
        for n, length, k in [(1, 1, 1), (1, 1, 5), (2, 7, 3), (3, 16, 5), (8, 32, 7)]:
            x = rng.standard_normal((n, 1, length)).astype(dtype)
            w = rng.standard_normal((1, 1, k)).astype(dtype)
            got = conv1d(Tensor(x), Tensor(w)).data
            assert got.dtype == dtype
            assert np.array_equal(got, conv1d_loops(x, w).astype(dtype))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="must be odd"):
            conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))))


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 1.5)
        out = ops.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                             np.zeros(3), np.ones(3), training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.abs(mean).max() <= 1e-6
        assert np.abs(var - 1.0).max() <= 1e-4

    def test_infer_mode_with_unit_stats_is_identity(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        out = ops.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                             np.zeros(3), np.ones(3), training=False)
        assert np.abs(out.data - x.data).max() <= 1e-4

    def test_running_stats_move(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((8, 2, 4, 4)) + 10.0)
        rm, rv = np.zeros(2), np.ones(2)
        ops.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
        assert np.all(rm > 0.2)  # momentum 0.03 of a mean near 10

    def test_zero_batch_rejected(self):
        x = Tensor(np.zeros((0, 3, 2, 2)))
        with pytest.raises(ShapeError, match="empty batch"):
            ops.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)),
                           np.zeros(3), np.ones(3), training=True)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 2, 4, 4)))
        rm, rv = np.zeros(2), np.ones(2)
        report = grad_check(
            lambda a: ops.batch_norm(a, Tensor(np.ones(2)), Tensor(np.zeros(2)),
                                     rm, rv, training=True),
            [x], tolerance=1e-4)
        assert report.passed, str(report)


class TestLayerNorm:
    def test_constant_channels_give_shift(self):
        x = Tensor(np.full((2, 4, 3, 3), 7.0))
        shift = Tensor(np.arange(4.0))
        out = ops.layer_norm(x, Tensor(np.ones(4)), shift)
        want = np.broadcast_to(np.arange(4.0)[None, :, None, None], (2, 4, 3, 3))
        assert np.abs(out.data - want).max() <= 1e-6

    def test_per_position_mean_is_zero(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 6, 4, 4)))
        out = ops.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert np.abs(out.data.mean(axis=1)).max() <= 1e-6

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 5, 3, 3)))
        report = grad_check(
            lambda a: ops.layer_norm(a, Tensor(np.ones(5)), Tensor(np.zeros(5))),
            [x], tolerance=1e-4)
        assert report.passed, str(report)


def _norm_pair(norm, dtype, seed):
    """Run a norm and its primitive-chain oracle on the same inputs.

    Returns (output, running mean, running var, gradients of x, gain, shift)
    for each; ``norm`` is "train", "eval" (batch norm) or "layer".
    """
    rng = np.random.default_rng(seed)
    shape = (3, 6, 5, 4)
    arrays = [(rng.standard_normal(shape) * 2.5 + 1.5).astype(dtype),
              rng.standard_normal(6).astype(dtype), rng.standard_normal(6).astype(dtype)]
    probe = rng.standard_normal(shape).astype(dtype)
    stats = rng.standard_normal(6).astype(dtype), rng.uniform(0.5, 2.0, 6).astype(dtype)
    results = []
    for fused in (True, False):
        x, gain, shift = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        rm, rv = stats[0].copy(), stats[1].copy()
        with Tape() as tape:
            if norm == "layer":
                y = (ops.layer_norm if fused else layer_norm_primitives)(x, gain, shift)
            else:
                y = (ops.batch_norm if fused else batch_norm_primitives)(
                    x, gain, shift, rm, rv, training=norm == "train")
            loss = (y * Tensor(probe)).sum()
        tape.backward(loss)
        results.append((y.data, rm, rv, x.grad, gain.grad, shift.grad))
    return results


class TestFusedNorms:
    """The one-op norms against the primitive chains they replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("norm", ["train", "eval", "layer"])
    def test_forward_and_running_stats_bit_identical(self, norm, dtype):
        for seed in range(5):
            fused, chain = _norm_pair(norm, dtype, seed)
            for a, b in zip(fused[:3], chain[:3]):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("norm", ["train", "eval", "layer"])
    def test_f64_gradients_match_chain(self, norm):
        for seed in range(5):
            fused, chain = _norm_pair(norm, np.float64, seed)
            for a, b in zip(fused[3:], chain[3:]):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    # Random gains, away from the model's initial gains of 1, where batch
    # norm's per-channel closed form is the chain's arithmetic. Measured
    # worst error of a gradient, relative to its largest magnitude: 2.0e-7
    # plain, 2.9e-7 with the SiLU; the bound is about 5x that
    @pytest.mark.parametrize("silu", [False, True])
    def test_f32_train_gradients_track_f64_chain(self, silu):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            shape = (3, 6, 5, 4)
            arrays = [(rng.standard_normal(shape) * 2.5 + 1.5).astype(np.float32),
                      rng.standard_normal(6).astype(np.float32),
                      rng.standard_normal(6).astype(np.float32)]
            probe = rng.standard_normal(shape).astype(np.float32)
            grads = []
            for dtype in (np.float32, np.float64):
                x, gain, shift = (Tensor(a, dtype=dtype, requires_grad=True) for a in arrays)
                stats = np.zeros(6, dtype), np.ones(6, dtype)
                with Tape() as tape:
                    if dtype == np.float32:
                        y = ops.batch_norm(x, gain, shift, *stats, training=True, silu=silu)
                    else:
                        y = batch_norm_primitives(x, gain, shift, *stats, training=True)
                        y = ops.silu(y) if silu else y
                    loss = (y * Tensor(probe, dtype=dtype)).sum()
                tape.backward(loss)
                grads.append((x.grad, gain.grad, shift.grad))
            for a, b in zip(*grads):
                assert a.dtype == np.float32
                assert np.abs(a - b).max() <= 1.5e-6 * np.abs(b).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gated_layer_norm_matches_norm_times_silu_to_the_bit(self, dtype):
        # the gate is part of layer norm's one op: its values and the
        # gradients of x, gain, shift and gate equal those of the two-op chain
        runs = []
        for gated in (True, False):
            rng = np.random.default_rng(14)
            x, gain, shift, gate = (
                Tensor(rng.standard_normal(shape) * 3.0, dtype=dtype, requires_grad=True)
                for shape in ((2, 6, 5, 4), (6,), (6,), (2, 6, 5, 4)))
            probe = Tensor(rng.standard_normal((2, 6, 5, 4)), dtype=dtype)
            with Tape() as tape:
                if gated:
                    y = ops.layer_norm(x, gain, shift, gate)
                else:
                    y = ops.layer_norm(x, gain, shift) * ops.silu(gate)
                loss = (y * probe).sum()
            assert len(tape) == (3 if gated else 5)
            tape.backward(loss)
            runs.append([y.data, x.grad, gain.grad, shift.grad, gate.grad])
        for got, want in zip(*runs):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", ["shape", "dtype"])
    def test_bad_gate_rejected(self, bad):
        x = Tensor(np.ones((2, 3, 4, 4)))
        gate = Tensor(np.ones((2, 3, 4, 5) if bad == "shape" else (2, 3, 4, 4)),
                      dtype=np.float32 if bad == "dtype" else np.float64)
        with pytest.raises(ShapeError):
            ops.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), gate)

    @pytest.mark.parametrize("bad", ["rank", "length", "dtype"])
    @pytest.mark.parametrize("norm", ["batch_norm", "layer_norm"])
    def test_bad_arguments_rejected(self, norm, bad):
        x = Tensor(np.ones((2, 3, 4) if bad == "rank" else (2, 3, 4, 4)))
        gain = Tensor(np.ones(2 if bad == "length" else 3),
                      dtype=np.float32 if bad == "dtype" else np.float64)
        args = (np.zeros(3), np.ones(3), True) if norm == "batch_norm" else ()
        with pytest.raises(ShapeError):
            getattr(ops, norm)(x, gain, Tensor(np.zeros(3)), *args)

    def test_train_batch_norm_records_one_node(self):
        bn = BatchNorm(4)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 4, 3, 3)), dtype=np.float32,
                   requires_grad=True)
        with Tape() as tape:
            bn(x)
        assert len(tape) == 1


# every producer of ops._normalize: batch norm with and without its SiLU in
# train and eval mode, layer norm with and without its gate
NORM_PRODUCERS = ["bn-train", "bn-eval", "bn-silu-train", "bn-silu-eval", "ln", "ln-gate"]


def _norm_producer(kind, rng, dtype):
    """A norm of ``kind`` on fresh gradient-requiring inputs: (run, inputs),
    where ``run()`` applies it to them."""
    x, gain, shift, gate = (
        Tensor(rng.standard_normal(shape) * 2.0, dtype=dtype, requires_grad=True)
        for shape in ((2, 6, 5, 4), (6,), (6,), (2, 6, 5, 4)))
    if kind.startswith("bn"):
        rm, rv = np.zeros(6, dtype), np.ones(6, dtype)
        return (lambda: ops.batch_norm(x, gain, shift, rm, rv, training=kind.endswith("train"),
                                       silu="silu" in kind)), [x, gain, shift]
    if kind == "ln-gate":
        return (lambda: ops.layer_norm(x, gain, shift, gate)), [x, gain, shift, gate]
    return (lambda: ops.layer_norm(x, gain, shift)), [x, gain, shift]


class TestRebuiltNormOutput:
    """A recorded norm output carries a recipe that rebuilds it from what the
    norm's rule keeps, and a conv's weight gradient reads it through that
    recipe instead of holding the array."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", NORM_PRODUCERS)
    def test_rebuild_is_the_output_to_the_bit(self, kind, dtype):
        run, _ = _norm_producer(kind, np.random.default_rng(3), dtype)
        with Tape():
            y = run()
        assert y.rebuild is not None
        rebuilt = y.rebuild()
        assert rebuilt.dtype == dtype and rebuilt.tobytes() == y.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", NORM_PRODUCERS)
    def test_conv_over_rebuilt_input_matches_kept_array(self, kind, dtype):
        # `* 1.0` gives the conv a plain copy of the norm's output to keep
        runs = []
        for copy in (False, True):
            rng = np.random.default_rng(5)
            run, inputs = _norm_producer(kind, rng, dtype)
            w = Tensor(rng.standard_normal((4, 6, 3, 3)), dtype=dtype, requires_grad=True)
            probe = Tensor(rng.standard_normal((2, 4, 3, 2)), dtype=dtype)
            with Tape() as tape:
                y = run()
                out = ops.conv2d(y * 1.0 if copy else y, w, stride=2, padding=1)
                loss = (out * probe).sum()
            tape.backward(loss)
            runs.append([out.data, w.grad] + [t.grad for t in inputs])
        for got, want in zip(*runs):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", NORM_PRODUCERS)
    def test_norm_output_freed_when_forward_drops_it(self, kind):
        rng = np.random.default_rng(6)
        run, inputs = _norm_producer(kind, rng, np.float32)
        w = Tensor(rng.standard_normal((4, 6, 1, 1)), dtype=np.float32, requires_grad=True)
        with Tape() as tape:
            y = run()
            freed = weakref.ref(y.data)
            out = ops.conv2d(y, w)
            del y
            assert freed() is None
            loss = out.sum()
        tape.backward(loss)
        assert w.grad is not None and all(t.grad is not None for t in inputs)

    # one BN+SiLU output read by one conv, or by two as EcaCsp's input is (a
    # 1x1 and a depthwise 3x3), against the same graph whose convs keep the
    # output's array: the first rebuild's sigmoid and output, reused by the
    # second reader and popped by the norm's rule, leave no trace in the bits
    @pytest.mark.parametrize("readers", [1, 2])
    def test_shared_silu_pair_is_invisible(self, readers):
        runs = []
        for recipe in (True, False):
            rng = np.random.default_rng(8)
            x, gain, shift = (Tensor(rng.standard_normal(shape) * 2.0, dtype=np.float32,
                                     requires_grad=True) for shape in ((2, 6, 5, 4), (6,), (6,)))
            ws = [Tensor(rng.standard_normal(shape), dtype=np.float32, requires_grad=True)
                  for shape in ((4, 6, 1, 1), (6, 1, 3, 3))][:readers]
            probes = [Tensor(rng.standard_normal(shape), dtype=np.float32)
                      for shape in ((2, 4, 5, 4), (2, 6, 5, 4))]
            with Tape() as tape:
                y = ops.batch_norm(x, gain, shift, np.zeros(6, np.float32), np.ones(6, np.float32),
                                   training=True, silu=True)
                if not recipe:
                    y.rebuild = None
                outs = [ops.conv2d(y, ws[0])] + [ops.conv2d(y, w, padding=1, groups=6)
                                                 for w in ws[1:]]
                loss = sum((out * probe).sum() for out, probe in zip(outs, probes))
            tape.backward(loss)
            runs.append([x.grad, gain.grad, shift.grad] + [w.grad for w in ws])
        for got, want in zip(*runs):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @staticmethod
    def held_after_backward(recipe):
        """Bytes a BN+SiLU read by two convs leaves allocated after backward,
        per output byte, with the output still alive."""
        rng = np.random.default_rng(9)
        x, gain, shift = (Tensor(rng.standard_normal(shape), dtype=np.float32, requires_grad=True)
                          for shape in ((8, 16, 10, 10), (16,), (16,)))
        w1, w2 = (Tensor(rng.standard_normal(shape), dtype=np.float32, requires_grad=True)
                  for shape in ((8, 16, 1, 1), (16, 1, 3, 3)))
        stats = np.zeros(16, np.float32), np.ones(16, np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = ops.batch_norm(x, gain, shift, *stats, training=True, silu=True)
                if not recipe:
                    y.rebuild = None
                loss = ops.conv2d(y, w1).sum() + ops.conv2d(y, w2, padding=1, groups=16).sum()
            tape.backward(loss)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return held / y.data.nbytes

    def test_rule_pops_the_shared_pair(self):
        # both hold the output and x's gradient; the live output's recipe also
        # holds xhat (measured 3.16x against 2.07x), and a sigmoid/output pair
        # the rule had not popped would add 2x more
        extra = self.held_after_backward(True) - self.held_after_backward(False)
        assert extra <= 1.5, extra

    @pytest.mark.parametrize("kind", NORM_PRODUCERS)
    def test_no_recipe_without_a_tape_or_inside_inference(self, kind):
        run, _ = _norm_producer(kind, np.random.default_rng(7), np.float32)
        assert run().rebuild is None
        with inference():
            assert run().rebuild is None


RECIPE_PRODUCERS = ["linear", "linear-flip", "softplus", "concat", "shuffle-concat", "upsample",
                    "slice"]


def _recipe_producer(kind, rng, dtype):
    """An op of ``kind`` that gives a recorded output a recipe, on fresh
    gradient-requiring inputs: (run, inputs, consume). ``run()`` applies the
    op; ``consume(y)`` is (an output, its weights) of an op that keeps ``y``'s
    values as ``kept_values`` gives them: a softplus over a linear, the
    scan's delta over a softplus, a 3x3 conv over a feature map."""
    def t(*shape, scale=1.0):
        return Tensor(rng.standard_normal(shape) * scale, dtype=dtype, requires_grad=True)

    if kind in ("linear", "linear-flip", "softplus"):
        x, w, b = t(2, 7, 6), t(6, 6), t(6)

        def run():
            y = ops.linear(T.flip(x, 1) if kind == "linear-flip" else x, w, b)
            return ops.softplus(y) if kind == "softplus" else y

        if kind != "softplus":
            return run, [x, w, b], lambda y: (ops.softplus(y), [])
        seq, a, bs, ps, q = t(2, 7, 6), t(6, 4), t(2, 7, 4), t(2, 7, 4), t(6)
        a.data[...] = -np.abs(a.data)
        return run, [x, w, b], lambda y: (ssm_scan(seq, y, a, bs, ps, q, block_len=3),
                                          [seq, a, bs, ps, q])
    x1, x2, gain, shift = t(2, 4, 5, 3, scale=2.0), t(2, 4, 5, 3), t(4), t(4)
    stats = np.zeros(4, dtype), np.ones(4, dtype)

    def norm():
        return ops.batch_norm(x1, gain, shift, *stats, training=True, silu=True)

    run = {"concat": lambda: ops.concat_channels([norm(), x2 * 1.0]),
           "shuffle-concat": lambda: ops.shuffle_concat([x2 * 1.0, norm()], 4),
           "upsample": lambda: ops.upsample_nearest(norm()),
           "slice": lambda: norm()[:, 1:3, 1:]}[kind]

    def consume(y):
        w = Tensor(np.random.default_rng(11).standard_normal((3, y.shape[1], 3, 3)), dtype=dtype,
                   requires_grad=True)
        return ops.conv2d(y, w, padding=1), [w]

    joined = [x2] if kind in ("concat", "shuffle-concat") else []
    return run, [x1, gain, shift] + joined, consume


class TestProducerRecipes:
    """A linear, a softplus over a recipe, a concat, a shuffled concat, an
    upsample and a slice of a recipe give their recorded outputs a recipe;
    a consumer that keeps it holds no copy of the output."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", RECIPE_PRODUCERS)
    def test_rebuild_is_the_output_to_the_bit(self, kind, dtype):
        run, _, _ = _recipe_producer(kind, np.random.default_rng(3), dtype)
        with Tape():
            y = run()
        assert y.rebuild is not None
        for _ in range(2):      # a second reader gets the same values
            rebuilt = y.rebuild()
            assert rebuilt.dtype == dtype and rebuilt.tobytes() == y.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", RECIPE_PRODUCERS)
    def test_consumer_gradients_match_the_kept_array(self, kind, dtype):
        runs = []
        for recipe in (True, False):
            rng = np.random.default_rng(5)
            run, inputs, consume = _recipe_producer(kind, rng, dtype)
            with Tape() as tape:
                y = run()
                if not recipe:
                    y.rebuild = None
                out, weights = consume(y)
                probe = np.random.default_rng(6).standard_normal(out.shape).astype(dtype)
                loss = (out * probe).sum()
            tape.backward(loss)
            runs.append([out.data] + [t.grad for t in inputs + weights])
        for got, want in zip(*runs):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", RECIPE_PRODUCERS)
    def test_output_freed_when_forward_drops_it(self, kind):
        run, inputs, consume = _recipe_producer(kind, np.random.default_rng(6), np.float32)
        with Tape() as tape:
            y = run()
            freed = weakref.ref(y.data)
            out, weights = consume(y)
            del y
            assert freed() is None
            loss = out.sum()
        tape.backward(loss)
        assert all(t.grad is not None for t in inputs + weights)

    @pytest.mark.parametrize("kind", RECIPE_PRODUCERS)
    def test_no_recipe_without_a_tape_or_inside_inference(self, kind):
        run, _, _ = _recipe_producer(kind, np.random.default_rng(7), np.float32)
        assert run().rebuild is None
        with inference():
            assert run().rebuild is None

    def test_no_recipe_from_an_input_without_one(self):
        # softplus keeps its output and a layout op its copy: their inputs have no recipe
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        m = Tensor(np.ones((2, 4, 3, 3)), requires_grad=True)
        with Tape():
            assert ops.softplus(x * 2.0).rebuild is None
            assert (x * 2.0)[:, 1:].rebuild is None
            assert ops.concat_channels([m * 2.0, m * 3.0]).rebuild is None
            assert ops.shuffle_concat([m * 2.0, m * 3.0], 4).rebuild is None
            assert ops.channel_shuffle(m * 2.0, 2).rebuild is None
            assert ops.upsample_nearest(m * 2.0).rebuild is None

    def test_softplus_rule_pops_what_the_rebuild_left(self):
        # the scan's rule rebuilds delta, softplus's rule takes that array
        # and drops it: one softplus per backward, nothing held after it
        rng = np.random.default_rng(8)
        x, w = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((4, 3), (3, 3)))
        calls = []
        with Tape() as tape:
            y = ops.linear(x, w)
            rebuild = y.rebuild
            y.rebuild = lambda: calls.append(1) or rebuild()
            delta = ops.softplus(y)
            kept = delta.rebuild
            loss = (delta * 3.0).sum()
        first = kept()
        assert kept() is first and calls == [1]
        tape.backward(loss)
        assert calls == [1] and kept() is not first and calls == [1, 1]


class TestActivations:
    def test_fixed_points(self):
        assert ops.silu(Tensor([0.0])).data[0] == 0.0
        assert ops.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_silu_derivative_at_one(self):
        # central difference vs the analytic rule
        h = 1e-6
        fd = (ops.silu(Tensor([1.0 + h])).data[0] - ops.silu(Tensor([1.0 - h])).data[0]) / (2 * h)
        s = 1.0 / (1.0 + np.exp(-1.0))
        analytic = s + 1.0 * s * (1.0 - s)
        assert abs(analytic - 0.92767) < 1e-5
        assert abs(fd - analytic) / analytic <= 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_silu_gradient_is_input_formula_to_the_bit(self, dtype):
        # the rule keeps s and its output z = x*s, not x: s + z*(1-s) is the
        # input-based s + x*s*(1-s) with its first product already taken
        rng = np.random.default_rng(12)
        x = np.concatenate([[-1000.0, 1000.0, 0.0], 12.0 * rng.standard_normal(4000)]).astype(dtype)
        g = rng.standard_normal(x.size).astype(dtype)
        with Tape() as tape:
            t = Tensor(x, requires_grad=True)
            loss = (ops.silu(t) * Tensor(g)).sum()
        tape.backward(loss)
        s = 0.5 * (1.0 + np.tanh(0.5 * x))
        want = g * (s + x * s * (1.0 - s))
        assert t.grad.dtype == dtype and t.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softplus_output_form_derivative_is_sigmoid_of_input(self, dtype):
        # the rule keeps the output and takes -expm1(-out) = 1 - 1/(1 + e^x)
        rng = np.random.default_rng(13)
        x = np.concatenate([[0.0, 1e-30, -1e-30, 30.0, -30.0, 1000.0, -1000.0],
                            rng.standard_normal(1000)]).astype(dtype)
        with Tape() as tape:
            t = Tensor(x, requires_grad=True)
            loss = ops.softplus(t).sum()
        tape.backward(loss)
        x64 = x.astype(np.float64)
        e = np.exp(-np.abs(x64))
        want = np.where(x64 >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert t.grad.dtype == dtype
        np.testing.assert_allclose(t.grad, want, rtol=2 * np.finfo(dtype).eps, atol=0)

    def test_softplus_approaches_relu(self):
        x = np.array([-20.0, 20.0])
        got = ops.softplus(Tensor(x)).data
        assert np.abs(got - np.maximum(x, 0.0)).max() <= 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["sigmoid", "silu", "softplus"])
    def test_saturated_inputs_stay_finite(self, name, dtype):
        with np.errstate(over="raise"):
            with Tape() as tape:
                x = Tensor(np.array([-1000.0, 1000.0], dtype=dtype), requires_grad=True)
                y = getattr(ops, name)(x)
                loss = y.sum()
            tape.backward(loss)
        assert y.data.dtype == dtype and x.grad.dtype == dtype
        assert np.isfinite(y.data).all() and np.isfinite(x.grad).all()


class TestPoolAndLayout:
    def test_shuffle_c6_g2(self):
        x = Tensor(np.arange(6.0).reshape(1, 6, 1, 1))
        got = ops.channel_shuffle(x, 2).data.ravel()
        assert np.array_equal(got, [0.0, 3.0, 1.0, 4.0, 2.0, 5.0])

    def test_shuffle_g1_identity(self):
        x = Tensor(np.random.default_rng(10).standard_normal((2, 5, 2, 2)))
        assert np.array_equal(ops.channel_shuffle(x, 1).data, x.data)

    def test_shuffle_preserves_channel_multiset(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((2, 8, 3, 3)))
        got = ops.channel_shuffle(x, 4).data
        assert np.array_equal(np.sort(got, axis=1), np.sort(x.data, axis=1))

    @settings(max_examples=25, deadline=None)
    @given(groups=st.sampled_from([1, 2, 3, 4, 6]), per_group=st.integers(1, 4))
    def test_shuffle_is_a_bijection(self, groups, per_group):
        c = groups * per_group
        x = Tensor(np.arange(float(c)).reshape(1, c, 1, 1))
        back = ops.channel_shuffle(ops.channel_shuffle(x, groups), c // groups)
        assert np.array_equal(back.data, x.data)

    def test_shuffle_indivisible_rejected(self):
        with pytest.raises(ShapeError, match="not divisible"):
            ops.channel_shuffle(Tensor(np.zeros((1, 5, 1, 1))), 2)

    def test_split_single_is_identity(self):
        x = Tensor(np.random.default_rng(12).standard_normal((1, 4, 2, 2)))
        (only,) = ops.split_channels(x, [4])
        assert np.array_equal(only.data, x.data)

    @settings(max_examples=25, deadline=None)
    @given(left=st.integers(1, 7))
    def test_split_concat_roundtrip_bit_exact(self, left):
        rng = np.random.default_rng(left)
        x = Tensor(rng.standard_normal((2, 8, 2, 2)).astype(np.float32))
        parts = ops.split_channels(x, [left, 8 - left])
        assert np.array_equal(ops.concat_channels(parts).data, x.data)

    def test_split_bad_sizes_rejected(self):
        with pytest.raises(ShapeError, match="do not sum"):
            ops.split_channels(Tensor(np.zeros((1, 8, 1, 1))), [3, 3])

    def test_split_gradients_route_to_slices(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))

        def closure(a):
            lo, hi = ops.split_channels(a, [2, 4])
            return lo * 3.0 + hi[:, :2] * 5.0

        report = grad_check(closure, [x], tolerance=1e-4)
        assert report.passed, str(report)

    def test_upsample_replicates(self):
        x = Tensor(np.array([[[[2.0]]]]))
        assert np.array_equal(ops.upsample_nearest(x).data, np.full((1, 1, 2, 2), 2.0))

    def test_upsample_doubles_shape(self):
        x = Tensor(np.zeros((2, 3, 4, 5)))
        assert ops.upsample_nearest(x).shape == (2, 3, 8, 10)

    def test_upsample_gradient_sums_blocks(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((1, 2, 3, 3)))
        report = grad_check(lambda a: ops.upsample_nearest(a), [x], tolerance=1e-4)
        assert report.passed, str(report)


def _taped_grads(fn, inputs, probe_seed):
    """fn(*inputs)'s values, tape length and the gradients of sum(output * probe)."""
    with Tape() as tape:
        out = fn(*inputs)
        probe = np.random.default_rng(probe_seed).standard_normal(out.shape).astype(out.dtype)
        loss = (out * Tensor(probe)).sum()
    nodes = len(tape) - 2     # less the probe's product and sum
    tape.backward(loss)
    return out.data, nodes, [t.grad for t in inputs]


class TestShuffleConcat:
    """One op against concat -> reshape -> transpose -> reshape."""

    @pytest.mark.parametrize("groups", [2, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unequal_parts_match_the_chain_to_the_bit(self, dtype, groups):
        rng = np.random.default_rng(groups)
        arrays = [rng.standard_normal((2, c, 3, 5)).astype(dtype) for c in (3, 1, 4)]
        runs = []
        for fn in (lambda *p: ops.shuffle_concat(p, groups),
                   lambda *p: shuffle_concat_primitives(p, groups)):
            runs.append(_taped_grads(fn, [Tensor(a, requires_grad=True) for a in arrays], 0))
        (out, nodes, grads), (want, _, want_grads) = runs
        assert nodes == 1
        assert out.dtype == dtype and out.tobytes() == want.tobytes()
        for g, w in zip(grads, want_grads):
            assert g.dtype == dtype and g.tobytes() == w.tobytes()

    def test_channel_shuffle_is_one_part(self):
        x = Tensor(np.random.default_rng(1).standard_normal((2, 6, 2, 2)))
        assert np.array_equal(ops.channel_shuffle(x, 3).data, ops.shuffle_concat([x], 3).data)

    @pytest.mark.parametrize("bad", ["none", "height", "dtype", "rank", "groups", "groups0"])
    def test_bad_parts_rejected(self, bad):
        a = Tensor(np.zeros((1, 2, 3, 3)))
        other = {"height": Tensor(np.zeros((1, 2, 4, 3))),
                 "dtype": Tensor(np.zeros((1, 2, 3, 3)), dtype=np.float32),
                 "rank": Tensor(np.zeros(2))}.get(bad, a)
        parts = [] if bad == "none" else [a, other]
        groups = {"groups": 3, "groups0": 0}.get(bad, 2)
        with pytest.raises(ShapeError):
            ops.shuffle_concat(parts, groups)


# EcaConv configurations: half the channels attended, all of them (no bypass),
# and the adaptive strip ratio and kernel (k = 1 at 32 output channels)
ECA_CASES = {"sigma0.5": dict(c_out=16), "sigma1.0": dict(c_out=8, sigma=1.0),
             "adaptive": dict(c_out=32, adaptive=True)}


def _eca_pair(case, dtype, layout, seed=0):
    """eca_attention and the chain it replaced, each as (output, tape nodes, gradients)."""
    m = EcaConv(np.random.default_rng(seed), 4, **ECA_CASES[case])
    rng = np.random.default_rng(seed + 1)
    y = (rng.standard_normal((3, m.c_out, 5, 4)) * 2.0).astype(dtype)
    if layout == "batch-innermost":     # the layout conv2d returns
        y = np.ascontiguousarray(y.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    w = rng.standard_normal(m.attn_weight.shape).astype(dtype)
    return m, [_taped_grads(lambda *a: fn(*a, m.c_hat, m.shuffle_groups),
                            [Tensor(y, requires_grad=True), Tensor(w.copy(), requires_grad=True)],
                            seed + 2)
               for fn in (ops.eca_attention, eca_attention_chain)]


class TestEcaAttention:
    """ECAConv's attention tail as one op, against the chain of taped ops it was."""

    def test_cases_cover_no_bypass_and_a_one_tap_kernel(self):
        rng = np.random.default_rng(0)
        assert EcaConv(rng, 4, **ECA_CASES["sigma1.0"]).c_hat == 8
        adaptive = EcaConv(rng, 4, **ECA_CASES["adaptive"])
        assert (adaptive.c_hat, adaptive.attn_k) == (16, 1)

    @pytest.mark.parametrize("layout", ["c-order", "batch-innermost"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", list(ECA_CASES))
    def test_output_matches_the_chain_to_the_bit(self, case, dtype, layout):
        _, ((out, nodes, _), (want, _, _)) = _eca_pair(case, dtype, layout)
        assert nodes == 1
        assert out.dtype == dtype and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["c-order", "batch-innermost"])
    @pytest.mark.parametrize("case", list(ECA_CASES))
    def test_f32_input_gradient_is_the_chains(self, case, layout):
        _, ((_, _, (gy, _)), (_, _, (want, _))) = _eca_pair(case, np.float32, layout)
        assert gy.dtype == np.float32 and gy.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", list(ECA_CASES))
    def test_f64_gradients_match_the_chain(self, case):
        for seed in range(3):
            _, ((_, _, grads), (_, _, want)) = _eca_pair(case, np.float64, "c-order", seed)
            for g, w in zip(grads, want):
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    # without a tape the attended channels are a view where it is in C order
    # (batch 1) and a copy elsewhere; either way the bits are the taped op's
    @pytest.mark.parametrize("layout", ["c-order", "batch-innermost"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("case", list(ECA_CASES))
    def test_untaped_output_is_the_taped_one(self, case, batch, layout):
        m = EcaConv(np.random.default_rng(0), 4, **ECA_CASES[case])
        rng = np.random.default_rng(1)
        y = (rng.standard_normal((batch, m.c_out, 5, 4)) * 2.0).astype(np.float32)
        if layout == "batch-innermost":
            y = np.ascontiguousarray(y.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
        w = Tensor(rng.standard_normal(m.attn_weight.shape), dtype=np.float32)
        untaped = ops.eca_attention(Tensor(y), w, m.c_hat, m.shuffle_groups)
        with Tape():
            taped = ops.eca_attention(Tensor(y, requires_grad=True), w, m.c_hat, m.shuffle_groups)
        assert untaped.data.tobytes() == taped.data.tobytes()

    def test_bypass_channels_are_not_kept(self):
        # the rule keeps a copy of the attended channels, never the input;
        # with every channel attended that copy would be the input itself
        y = Tensor(np.random.default_rng(3).standard_normal((2, 8, 4, 4)), requires_grad=True)
        w = Tensor(np.full((1, 1, 3), 0.5))
        ref = weakref.ref(y.data)
        with Tape():
            out = ops.eca_attention(y, w, 4, 2)
            y.data = None
            assert ref() is None
        assert out.shape == (2, 8, 4, 4)

    @pytest.mark.parametrize("bad", ["rank", "even-kernel", "weight-rank", "c-hat-0",
                                     "c-hat-9", "groups", "dtype", "empty"])
    def test_bad_arguments_rejected(self, bad):
        y = np.zeros({"rank": (2, 8, 4), "empty": (2, 8, 0, 4)}.get(bad, (2, 8, 4, 4)))
        w = np.zeros({"even-kernel": (1, 1, 2), "weight-rank": (1, 3)}.get(bad, (1, 1, 3)))
        c_hat = {"c-hat-0": 0, "c-hat-9": 9}.get(bad, 4)
        with pytest.raises(ShapeError):
            ops.eca_attention(Tensor(y), Tensor(w, dtype=np.float32 if bad == "dtype" else None),
                              c_hat, 3 if bad == "groups" else 2)
