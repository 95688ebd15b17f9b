"""Discretization, scan oracles, blocked equivalence, cross-scan, gradients."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import zoh_elementwise
from ssmdet import ops
from ssmdet.gradcheck import grad_check
from ssmdet.ssm import (
    SSMParams,
    cross_merge,
    cross_scan,
    discretize_taylor,
    discretize_zoh,
    selective_scan_blocked,
    selective_scan_seq,
    ssm_scan,
)
from ssmdet.ssm import _default_block_len
from ssmdet.tensor import Tape, Tensor


def random_params(rng, length, d, n, method="zoh", time_varying=True):
    return SSMParams(
        A=rng.uniform(-5.0, -0.1, (d, n)),
        B=rng.standard_normal((length, d, n)) if time_varying else rng.standard_normal((d, n)),
        P=rng.standard_normal((length, d, n)) if time_varying else rng.standard_normal((d, n)),
        Q=rng.standard_normal(d),
        delta=rng.uniform(1e-3, 1.0, (length, d)) if time_varying else rng.uniform(1e-3, 1.0, d),
        method=method,
    )


class TestDiscretization:
    def test_scalar_closed_form(self):
        abar, bbar = discretize_zoh(np.array([[-1.0]]), np.array([[1.0]]),
                                    np.array([math.log(2.0)]))
        assert abs(abar[0, 0] - 0.5) < 1e-15
        assert abs(bbar[0, 0] - 0.5) < 1e-15

    def test_vanishing_step_limit(self):
        abar, bbar = discretize_zoh(np.array([[-1.0]]), np.array([[1.0]]),
                                    np.array([1e-12]))
        assert abs(abar[0, 0] - 1.0) <= 1e-9
        assert abs(bbar[0, 0]) <= 1e-9

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-5.0, -0.1, (6, 8))
        b = rng.standard_normal((6, 8))
        delta = rng.uniform(1e-4, 1.0, 6)
        abar, bbar = discretize_zoh(a, b, delta)
        oa, ob = zoh_elementwise(a, b, delta)
        assert np.abs(abar - oa).max() <= 1e-12
        assert np.abs(bbar - ob).max() <= 1e-12

    def test_singular_a_uses_limit(self):
        abar, bbar = discretize_zoh(np.array([[0.0]]), np.array([[2.0]]), np.array([0.25]))
        assert abar[0, 0] == 1.0
        assert bbar[0, 0] == 0.5  # delta * B

    def test_nonpositive_delta_rejected(self):
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        for fn in (discretize_zoh, discretize_taylor):
            with pytest.raises(ValueError, match="strictly positive"):
                fn(a, b, np.array([0.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            SSMParams(A=a, B=b, P=b, Q=np.array([0.0]), delta=np.array([-0.1]))

    def test_taylor_small_step_error(self):
        _, bbar = discretize_taylor(np.array([[-1.0]]), np.array([[1.0]]), np.array([0.01]))
        _, exact = discretize_zoh(np.array([[-1.0]]), np.array([[1.0]]), np.array([0.01]))
        assert bbar[0, 0] == 0.01
        assert abs(exact[0, 0] - 0.0099502) < 1e-7
        rel = abs(bbar[0, 0] - exact[0, 0]) / exact[0, 0]
        assert abs(rel - 5.0e-3) < 2e-4

    def test_taylor_zero_a_coincides_with_exact(self):
        a = np.array([[0.0]])
        b = np.array([[3.0]])
        delta = np.array([0.2])
        _, taylor = discretize_taylor(a, b, delta)
        _, exact = discretize_zoh(a, b, delta)
        assert taylor[0, 0] == exact[0, 0] == pytest.approx(0.6)

    def test_taylor_error_shrinks_linearly(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-5.0, -0.1, (4, 4))
        b = rng.standard_normal((4, 4))
        errs = []
        for step in (0.1, 0.01, 0.001):
            delta = np.full(4, step)
            _, exact = discretize_zoh(a, b, delta)
            _, approx = discretize_taylor(a, b, delta)
            errs.append(np.abs((approx - exact) / exact).max())
        for bigger, smaller in zip(errs, errs[1:]):
            ratio = bigger / smaller
            assert 8.0 <= ratio <= 12.0, f"per-decade ratio {ratio}"

    def test_halving_delta_at_least_halves_error(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-5.0, -0.1, (3, 5))
        b = rng.standard_normal((3, 5))
        for step in (0.5, 0.2, 0.05, 0.01):
            def max_rel(s):
                _, exact = discretize_zoh(a, b, np.full(3, s))
                _, approx = discretize_taylor(a, b, np.full(3, s))
                return np.abs((approx - exact) / exact).max()
            assert max_rel(step) >= 2.0 * max_rel(step / 2.0) * 0.999


class TestSequentialScan:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, 8, 3, 4)
        res = selective_scan_seq(np.zeros((8, 3)), params)
        assert np.array_equal(res.y, np.zeros((8, 3)))
        assert np.array_equal(res.h_final, np.zeros((3, 4)))

    def test_single_step_closed_form(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 1, 2, 3, time_varying=False)
        x = rng.standard_normal((1, 2))
        res = selective_scan_seq(x, params)
        abar, bbar = discretize_zoh(params.A, params.B, params.delta)
        h1 = bbar * x[0][:, None]
        want = (params.P * h1).sum(-1) + params.Q * x[0]
        assert np.abs(res.y[0] - want).max() <= 1e-15

    def test_hand_evaluated_three_steps(self):
        # Abar=0.5, Bbar=0.5 arises from A=-1, delta=ln 2, B=1
        params = SSMParams(A=np.array([[-1.0]]), B=np.array([[1.0]]),
                           P=np.array([[1.0]]), Q=np.array([0.0]),
                           delta=np.array([math.log(2.0)]))
        res = selective_scan_seq(np.ones((3, 1)), params)
        assert np.allclose(res.y.ravel(), [0.5, 0.75, 0.875], atol=1e-15)

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 4, 2, 2)
        with pytest.raises(Exception):
            selective_scan_seq(np.zeros((0, 2)), params)

    def test_linearity_with_zero_skip(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 12, 4, 8)
        params.Q = np.zeros(4)
        x1 = rng.standard_normal((12, 4))
        x2 = rng.standard_normal((12, 4))
        lhs = selective_scan_seq(1.7 * x1 - 0.3 * x2, params).y
        rhs = 1.7 * selective_scan_seq(x1, params).y - 0.3 * selective_scan_seq(x2, params).y
        assert np.abs(lhs - rhs).max() <= 1e-6

    def test_state_stays_bounded(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            length, d, n = 200, 3, 4
            params = random_params(rng, length, d, n)
            x = rng.uniform(-1.0, 1.0, (length, d))
            deltas, bs, _ = params.step_arrays(length)
            h = np.zeros((d, n))
            max_h = 0.0
            max_abar = 0.0
            max_bbar = 0.0
            for t in range(length):
                abar, bbar = discretize_zoh(params.A, bs[t], deltas[t])
                h = abar * h + bbar * x[t][:, None]
                max_h = max(max_h, np.abs(h).max())
                max_abar = max(max_abar, abar.max())
                max_bbar = max(max_bbar, np.abs(bbar).max())
            bound = max_bbar * np.abs(x).max() / (1.0 - max_abar)
            assert max_h <= bound + 1e-9

    def test_discretized_state_factor_in_unit_interval(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, 16, 4, 4)
        deltas, bs, _ = params.step_arrays(16)
        for t in range(16):
            abar, _ = discretize_zoh(params.A, bs[t], deltas[t])
            assert np.all(abar > 0.0) and np.all(abar <= 1.0)


class TestBlockedScan:
    def test_full_block_is_bit_exact(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 32, 4, 8)
        x = rng.standard_normal((32, 4))
        assert np.array_equal(selective_scan_blocked(x, params, 32).y,
                              selective_scan_seq(x, params).y)

    def test_block_one_is_bit_exact(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, 17, 3, 5)
        x = rng.standard_normal((17, 3))
        assert np.array_equal(selective_scan_blocked(x, params, 1).y,
                              selective_scan_seq(x, params).y)

    @pytest.mark.parametrize("block_len", [4, 16, 64])
    def test_oracle_equivalence_sweep(self, block_len):
        rng = np.random.default_rng(11 + block_len)
        params = random_params(rng, 256, 8, 16)
        x = rng.standard_normal((256, 8))
        ref = selective_scan_seq(x, params)
        got = selective_scan_blocked(x, params, block_len)
        assert np.abs(got.y - ref.y).max() <= 1e-12
        assert np.abs(got.h_final - ref.h_final).max() <= 1e-12
        x32, p32 = x.astype(np.float32), SSMParams(
            A=params.A.astype(np.float32), B=params.B.astype(np.float32),
            P=params.P.astype(np.float32), Q=params.Q.astype(np.float32),
            delta=params.delta.astype(np.float32))
        diff32 = np.abs(selective_scan_blocked(x32, p32, block_len).y
                        - selective_scan_seq(x32, p32).y)
        assert diff32.max() <= 1e-5

    def test_bad_block_len_rejected(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 4, 2, 2)
        with pytest.raises(Exception):
            selective_scan_blocked(np.zeros((4, 2)), params, 0)


class TestTapedScan:
    # block_len 1, an interior chunk boundary, one chunk covering all of L, and
    # four chunks of which the last is partial (backward recomputes each chunk)
    @pytest.mark.parametrize("block_len", [1, 4, 16, 3])
    def test_matches_sequential_oracle(self, block_len):
        rng = np.random.default_rng(13)
        bt, length, d, n = 3, 10, 4, 6
        x = rng.standard_normal((bt, length, d))
        delta = rng.uniform(0.01, 0.8, (bt, length, d))
        a_diag = rng.uniform(-3.0, -0.2, (d, n))
        b_seq = rng.standard_normal((bt, length, n))
        p_seq = rng.standard_normal((bt, length, n))
        q = rng.standard_normal(d)
        y = ssm_scan(Tensor(x), Tensor(delta), Tensor(a_diag), Tensor(b_seq),
                     Tensor(p_seq), Tensor(q), block_len=block_len).data
        for b in range(bt):
            params = SSMParams(
                A=a_diag,
                B=np.repeat(b_seq[b][:, None, :], d, axis=1),
                P=np.repeat(p_seq[b][:, None, :], d, axis=1),
                Q=q, delta=delta[b], method="taylor")
            ref = selective_scan_seq(x[b], params).y
            assert np.abs(y[b] - ref).max() <= 1e-12

    @pytest.mark.parametrize("block_len,length", [
        pytest.param(1, 6, id="1"), pytest.param(4, 6, id="4"), pytest.param(16, 6, id="16"),
        pytest.param(3, 10, id="3-L10"),
    ])
    def test_gradients_pass_finite_difference(self, block_len, length):
        rng = np.random.default_rng(14)
        bt, d, n = 2, 3, 4
        inputs = [
            Tensor(rng.standard_normal((bt, length, d))),
            Tensor(rng.uniform(0.05, 0.5, (bt, length, d))),
            Tensor(rng.uniform(-2.0, -0.1, (d, n))),
            Tensor(rng.standard_normal((bt, length, n))),
            Tensor(rng.standard_normal((bt, length, n))),
            Tensor(rng.standard_normal(d)),
        ]
        report = grad_check(lambda *a: ssm_scan(*a, block_len=block_len), inputs,
                            tolerance=1e-4)
        assert report.passed, str(report)

    def test_retains_chunk_starts_only(self):
        # under a tape the scan keeps each chunk's start state, not every state;
        # the last three shapes are the desk training fusion levels, where the
        # default chunk length sits at its floor of N steps
        rng = np.random.default_rng(17)
        n = 16
        for bt, length, d in [(2, 256, 32), (8, 400, 64), (8, 100, 128), (8, 25, 256)]:
            arrays = [rng.standard_normal((bt, length, d)),
                      rng.uniform(0.01, 0.5, (bt, length, d)),
                      rng.uniform(-2.0, -0.1, (d, n)), rng.standard_normal((bt, length, n)),
                      rng.standard_normal((bt, length, n)), rng.standard_normal(d)]
            inputs = [Tensor(a, dtype=np.float32, requires_grad=True) for a in arrays]
            tracemalloc.start()
            try:
                with Tape() as tape:
                    before = tracemalloc.get_traced_memory()[0]
                    y = ssm_scan(*inputs)
                    held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(tape) == 1
            assert held <= 3 * y.data.nbytes, (bt, length, d, held, y.data.nbytes)

    def test_softplus_delta_freed_and_rebuilt_once(self):
        # delta made as Vss makes it, softplus(dt_low @ dt_w.T + dt_b): the scan
        # keeps softplus's recipe, so delta's array goes when the forward drops
        # it, and backward derives it once, which softplus's rule then takes
        rng = np.random.default_rng(19)
        bt, length, d, n, r = 2, 12, 8, 4, 2
        x, dt_low, b_seq, p_seq = (Tensor(rng.standard_normal(s), requires_grad=True) for s in
                                   ((bt, length, d), (bt, length, r), (bt, length, n),
                                    (bt, length, n)))
        dt_w, dt_b, q = (Tensor(rng.standard_normal(s), requires_grad=True) for s in
                         ((d, r), (d,), (d,)))
        a_diag = Tensor(rng.uniform(-2.0, -0.1, (d, n)), requires_grad=True)
        grads = []
        for drop in (True, False):
            for t in (x, dt_low, b_seq, p_seq, dt_w, dt_b, q, a_diag):
                t.grad = None
            with Tape() as tape:
                delta = ops.softplus(ops.linear(dt_low, dt_w, dt_b))
                freed = weakref.ref(delta.data)
                if not drop:
                    delta.rebuild = None
                    kept = delta
                y = ssm_scan(x, delta, a_diag, b_seq, p_seq, q, block_len=5)
                del delta
                assert (freed() is None) == drop
                loss = (y * y).sum()
            tape.backward(loss)
            grads.append([t.grad for t in (x, dt_low, b_seq, p_seq, dt_w, dt_b, q, a_diag)])
        del kept
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_identical_for_every_block_len(self, dtype):
        # each step's arithmetic is the same in every chunking, so y is too;
        # the default here is 32 steps in float32 and 16 in float64
        rng = np.random.default_rng(18)
        bt, length, d, n = 2, 50, 64, 16
        assert 3 < _default_block_len(bt, length, n, d, np.dtype(dtype).itemsize) < length
        inputs = [Tensor(a, dtype=dtype) for a in (
            rng.standard_normal((bt, length, d)), rng.uniform(0.01, 0.8, (bt, length, d)),
            rng.uniform(-3.0, -0.2, (d, n)), rng.standard_normal((bt, length, n)),
            rng.standard_normal((bt, length, n)), rng.standard_normal(d))]
        want = ssm_scan(*inputs).data
        assert want.dtype == dtype
        for block_len in (1, 3, length, length + 5):
            assert ssm_scan(*inputs, block_len=block_len).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bt,want", [(1, (64, 32, 16)), (8, (16, 16, 16))])
    def test_default_block_len_at_desk_fusion_shapes(self, bt, want):
        # float32 [L, D] of the three fusion levels at 160 px, N = 16: as many
        # steps as fit a 256 KiB [steps, batch, N, D] buffer, at least N, at most L
        levels = [(400, 64), (100, 128), (25, 256)]
        got = tuple(_default_block_len(bt, length, 16, d, 4) for length, d in levels)
        assert got == want
        assert _default_block_len(1, 10, 16, 64, 4) == 10     # capped at L
        assert _default_block_len(1, 400, 16, 64, 8) == 32    # float64 halves it

    def test_shape_validation(self):
        x = Tensor(np.zeros((1, 4, 2)))
        bad_delta = Tensor(np.ones((1, 4, 3)))
        rest = [Tensor(np.full((2, 4), -1.0)), Tensor(np.zeros((1, 4, 4))),
                Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros(2))]
        with pytest.raises(Exception):
            ssm_scan(x, bad_delta, *rest)


class TestCrossScan:
    def test_two_by_two_orders(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        fmap = Tensor(np.array([[a, b], [c, d]]).reshape(1, 1, 2, 2))
        seqs = [s.data.reshape(4) for s in cross_scan(fmap)]
        assert np.array_equal(seqs[0], [a, b, c, d])
        assert np.array_equal(seqs[1], [a, c, b, d])
        assert np.array_equal(seqs[2], [d, c, b, a])
        assert np.array_equal(seqs[3], [d, b, c, a])

    def test_merge_of_constant_map_is_quadruple(self):
        fmap = Tensor(np.full((2, 3, 4, 5), 1.25))
        seqs = cross_scan(fmap)
        merged = cross_merge(seqs, 4, 5)
        assert np.allclose(merged.data, 4 * 1.25)

    def test_roundtrip_with_identity_transform(self):
        rng = np.random.default_rng(15)
        fmap = Tensor(rng.standard_normal((2, 3, 5, 4)))
        merged = cross_merge(cross_scan(fmap), 5, 4)
        assert np.abs(merged.data - 4.0 * fmap.data).max() <= 1e-12

    def test_gradients_through_scan_merge(self):
        rng = np.random.default_rng(16)
        fmap = Tensor(rng.standard_normal((1, 2, 3, 3)))

        def closure(a):
            return cross_merge([s * 2.0 for s in cross_scan(a)], 3, 3)

        report = grad_check(closure, [fmap], tolerance=1e-4)
        assert report.passed, str(report)
