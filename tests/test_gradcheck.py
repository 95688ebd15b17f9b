"""The finite-difference harness itself: positives, negatives, edge cases."""

import numpy as np
import pytest

from ssmdet.gradcheck import grad_check
from ssmdet.ops import sigmoid
from ssmdet.tensor import Tensor, accumulate, make_op


def test_identity_is_near_exact():
    x = Tensor(np.random.default_rng(0).standard_normal(6))
    report = grad_check(lambda a: a * 1.0, [x], tolerance=1e-8)
    assert report.passed
    assert report.max_rel_err <= 1e-10


def test_sigmoid_passes_tight_tolerance():
    x = Tensor(np.random.default_rng(1).standard_normal(8))
    report = grad_check(sigmoid, [x], tolerance=1e-6)
    assert report.passed, str(report)


def test_corrupted_backward_rule_fails():
    def bad_double(t):
        def rule(g):
            accumulate(t, 3.0 * g)  # forward is x*2, so this is wrong
        return make_op(t.data * 2.0, rule, t)

    x = Tensor(np.random.default_rng(2).standard_normal(5))
    report = grad_check(bad_double, [x], tolerance=1e-4)
    assert not report.passed
    assert report.failures


def test_nan_in_analytic_gradient_fails_with_location():
    def nan_rule(t):
        def rule(g):
            bad = g.copy()
            bad[0] = np.nan
            accumulate(t, bad)
        return make_op(t.data * 1.0, rule, t)

    x = Tensor(np.zeros(3))
    report = grad_check(nan_rule, [x], tolerance=1e-4)
    assert not report.passed
    assert any("NaN analytic" in f for f in report.failures)


def test_float32_inputs_rejected():
    x = Tensor(np.zeros(3, dtype=np.float32))
    with pytest.raises(TypeError, match="float64"):
        grad_check(lambda a: a * 1.0, [x])


def test_sampling_caps_checked_elements():
    x = Tensor(np.random.default_rng(3).standard_normal(100))
    report = grad_check(lambda a: (a * a), [x], max_elements=10)
    assert report.checked == 10
    assert report.passed


def test_every_op_passes_on_twenty_seeds():
    from ssmdet.verify import run_grad_suite

    op_checks = ["conv2d", "conv2d_depthwise", "batch_norm",
                 "layer_norm", "activations", "upsample",
                 "shuffle_split", "linear", "scan"]
    results = run_grad_suite(op_checks, seeds=range(20), max_elements=16)
    for name, reports in results.items():
        assert all(r.passed for r in reports), (name, [str(r) for r in reports if not r.passed])
