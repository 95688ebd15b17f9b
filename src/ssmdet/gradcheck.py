"""Central finite-difference verification of taped gradients.

The probe is a fixed random linear functional of the op output, so one
backward pass yields analytic gradients for every input while the numeric
side perturbs elements one at a time at step h. 64-bit inputs only: the
f32 rounding floor would swamp the h^2 truncation term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tensor import Tape, Tensor

__all__ = ["GradCheckReport", "grad_check"]

# Below this, relative error degrades to scaled absolute error so that
# finite-difference noise on near-zero gradients cannot dominate.
_REL_FLOOR = 1e-2
_STEP = 1e-5


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    checked: int
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        msg = f"grad_check {status}: max_rel_err={self.max_rel_err:.3e} over {self.checked} elements"
        if self.failures:
            msg += "; " + "; ".join(self.failures[:5])
        return msg


def grad_check(op_closure: Callable[..., Tensor], inputs: Sequence[Tensor],
               tolerance: float = 1e-4, max_elements: int = 10_000) -> GradCheckReport:
    """Compare taped gradients of ``op_closure(*inputs)`` against central differences.

    Inputs above ``max_elements`` entries are checked on a random subset.
    Any NaN in the analytic or numeric gradient fails with its location.
    The probe and the subset are drawn from a fixed seed.
    """
    rng = np.random.default_rng(0)
    inputs = list(inputs)
    for i, t in enumerate(inputs):
        if t.data.dtype != np.float64:
            raise TypeError(f"grad_check requires float64 inputs, input[{i}] is {t.data.dtype}")
        t.requires_grad = True
        t.grad = None

    with Tape() as tape:
        out = op_closure(*inputs)
        probe = rng.standard_normal(out.shape)
        loss = (out * Tensor(probe)).sum()
    tape.backward(loss)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]

    def loss_value() -> float:
        return float((op_closure(*inputs).data * probe).sum())

    failures: list[str] = []
    max_rel = 0.0
    checked = 0
    for i, (t, ana) in enumerate(zip(inputs, analytic)):
        if np.isnan(ana).any():
            loc = np.argwhere(np.isnan(ana))[0]
            failures.append(f"NaN analytic gradient at input[{i}] index {tuple(loc)}")
            continue
        flat = t.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_elements else rng.choice(n, size=max_elements, replace=False)
        ana_flat = ana.reshape(-1)
        for j in coords:
            orig = flat[j]
            flat[j] = orig + _STEP
            f_plus = loss_value()
            flat[j] = orig - _STEP
            f_minus = loss_value()
            flat[j] = orig
            num = (f_plus - f_minus) / (2.0 * _STEP)
            a = ana_flat[j]
            if np.isnan(num):
                failures.append(f"NaN numeric gradient at input[{i}] flat index {j}")
                continue
            rel = abs(a - num) / max(abs(a), abs(num), _REL_FLOOR)
            checked += 1
            if rel > max_rel:
                max_rel = rel
            if rel > tolerance:
                failures.append(
                    f"input[{i}] flat index {j}: analytic {a:.6e} vs numeric {num:.6e} (rel {rel:.3e})"
                )
    passed = not failures and max_rel <= tolerance
    return GradCheckReport(max_rel_err=max_rel, passed=passed, checked=checked, failures=failures)
