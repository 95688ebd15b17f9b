"""Selective state-space scan kernels.

A diagonal linear system h' = A h + B x, y = P h + Q x is discretized with
a per-channel timescale delta and evaluated as the recurrence

    h_t = Abar_t * h_{t-1} + Bbar_t * x_t,    y_t = sum_n P_t h_t + Q x_t

with h_0 = 0. ``selective_scan_seq`` is the transparent step-by-step
reference and the oracle. One chunked core discretizes and contracts a
chunk at a time while carrying the state across chunks; its two callers
differ only in the discretization: ``selective_scan_blocked`` (one
sequence, per-channel B, ZOH or first-order) and ``ssm_scan`` (taped and
batched, B and P shared over channels, used inside the vision blocks).
Both must match the reference within dtype tolerance on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, accumulate, make_op

__all__ = [
    "SSMParams",
    "ScanResult",
    "cross_merge",
    "cross_scan",
    "discretize_taylor",
    "discretize_zoh",
    "selective_scan_blocked",
    "selective_scan_seq",
    "ssm_scan",
]

# Below this magnitude the (exp(dA) - 1)/A factor switches to its dA limit.
_A_SINGULAR = 1e-8


def discretize_zoh(A: np.ndarray, B: np.ndarray, delta: np.ndarray):
    """Zero-order-hold discretization of a diagonal system.

    Abar = exp(delta*A); Bbar = (exp(delta*A) - 1)/A * B, with the A->0
    limit delta*B substituted where |A| < 1e-8. ``delta`` may carry
    leading axes (per-timestep); it broadcasts against A's [D, N].
    """
    A = np.asarray(A)
    B = np.asarray(B)
    delta = np.asarray(delta)
    if np.any(delta <= 0):
        raise ValueError("discretize_zoh: delta must be strictly positive")
    dA = delta[..., None] * A
    abar = np.exp(dA)
    small = np.abs(A) < _A_SINGULAR
    a_safe = np.where(small, 1.0, A)
    bbar = np.where(small, delta[..., None] * B, (abar - 1.0) / a_safe * B)
    return abar, bbar


def discretize_taylor(A: np.ndarray, B: np.ndarray, delta: np.ndarray):
    """First-order approximation: Abar = exp(delta*A), Bbar = delta*B."""
    A = np.asarray(A)
    B = np.asarray(B)
    delta = np.asarray(delta)
    if np.any(delta <= 0):
        raise ValueError("discretize_taylor: delta must be strictly positive")
    abar = np.exp(delta[..., None] * A)
    bbar = delta[..., None] * B
    return abar, bbar


_DISCRETIZERS = {"zoh": discretize_zoh, "taylor": discretize_taylor}


@dataclass
class SSMParams:
    """Continuous diagonal SSM parameters and their discretization choice.

    Shapes: A [D, N]; B and P either [D, N] (time-invariant) or [L, D, N]
    (input-dependent); Q [D]; delta [D] or [L, D], strictly positive.
    """

    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    delta: np.ndarray
    method: str = "zoh"

    def __post_init__(self):
        self.A = np.asarray(self.A)
        self.B = np.asarray(self.B)
        self.P = np.asarray(self.P)
        self.Q = np.asarray(self.Q)
        self.delta = np.asarray(self.delta)
        if self.A.ndim != 2:
            raise ShapeError(f"SSMParams: A must be [channels, states], got {self.A.shape}")
        if self.method not in _DISCRETIZERS:
            raise ValueError(f"SSMParams: unknown discretization {self.method!r}")
        if np.any(self.delta <= 0):
            raise ValueError("SSMParams: delta must be strictly positive")

    def step_arrays(self, num_steps: int):
        """Expand delta/B/P to per-step indexable forms for a scan of length L."""
        d = self.delta if self.delta.ndim == 2 else np.broadcast_to(self.delta, (num_steps,) + self.delta.shape)
        b = self.B if self.B.ndim == 3 else np.broadcast_to(self.B, (num_steps,) + self.B.shape)
        p = self.P if self.P.ndim == 3 else np.broadcast_to(self.P, (num_steps,) + self.P.shape)
        return d, b, p


@dataclass
class ScanResult:
    y: np.ndarray        # [L, D]
    h_final: np.ndarray  # [D, N]


def selective_scan_seq(x: np.ndarray, params: SSMParams) -> ScanResult:
    """Ground-truth sequential recurrence over a single [L, D] sequence."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"selective_scan_seq: x must be [length, channels], got {x.shape}")
    length, d = x.shape
    if length < 1:
        raise ShapeError("selective_scan_seq: empty sequence")
    n = params.A.shape[1]
    disc = _DISCRETIZERS[params.method]
    deltas, bs, ps = params.step_arrays(length)
    h = np.zeros((d, n), dtype=x.dtype)
    y = np.empty((length, d), dtype=x.dtype)
    for t in range(length):
        abar, bbar = disc(params.A, bs[t], deltas[t])
        bx = bbar * x[t][:, None]
        h = abar * h + bx
        y[t] = (ps[t] * h).sum(axis=-1) + params.Q * x[t]
    return ScanResult(y=y, h_final=h)


def _chunked_scan(x, p, q, discretize, block_len, states=None):
    """Recurrence over x [batch, L, D]; returns y [batch, L, D] and h_L.

    ``discretize(t0, t1)`` gives (Abar, Bbar*x) for steps t0..t1-1, each
    [batch, t1-t0, D, N]; p broadcasts to [batch, L, D, N]. ``states``, if
    given, is [batch, L+1, D, N] and receives h_{t-1} at [:, t].
    """
    bt, length, d = x.shape
    n = p.shape[-1]
    y = np.empty((bt, length, d), dtype=x.dtype)
    h = np.zeros((bt, d, n), dtype=x.dtype)
    for t0 in range(0, length, block_len):
        t1 = min(t0 + block_len, length)
        abar, bx = discretize(t0, t1)
        hs = (states[:, t0:t1 + 1] if states is not None
              else np.empty((bt, t1 - t0 + 1, d, n), dtype=x.dtype))
        hs[:, 0] = h
        for i in range(t1 - t0):
            hs[:, i + 1] = abar[:, i] * hs[:, i] + bx[:, i]
        h = hs[:, -1]
        y[:, t0:t1] = (p[:, t0:t1] * hs[:, 1:]).sum(-1) + q * x[:, t0:t1]
    return y, h


def selective_scan_blocked(x: np.ndarray, params: SSMParams, block_len: int) -> ScanResult:
    """Chunked scan: vectorized discretization and output contraction per block.

    The state recurrence itself stays strictly sequential, so results are
    identical to ``selective_scan_seq`` up to dtype rounding for every
    block length.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"selective_scan_blocked: x must be [length, channels], got {x.shape}")
    if block_len < 1:
        raise ShapeError(f"selective_scan_blocked: block_len {block_len} must be >= 1")
    disc = _DISCRETIZERS[params.method]
    deltas, bs, ps = params.step_arrays(x.shape[0])

    def discretize(t0, t1):
        abar, bbar = disc(params.A, bs[t0:t1], deltas[t0:t1])
        return abar[None], (bbar * x[t0:t1, :, None])[None]

    y, h = _chunked_scan(x[None], ps[None], params.Q, discretize, block_len)
    return ScanResult(y=y[0], h_final=h[0])


# ---- taped batched scan ----------------------------------------------------

def _scan_backward(g, xd, dd, a_diag, bd, pd, qd, states, block_len):
    """Adjoint lam_t = g_t P_t + Abar_{t+1} lam_{t+1}, then per-chunk contractions."""
    bt, length, d = xd.shape
    lam = np.zeros((bt, d, a_diag.shape[-1]), dtype=g.dtype)
    gx = g * qd
    gdelta = np.empty_like(dd)
    ga_diag = np.zeros_like(a_diag)
    gb = np.empty_like(bd)
    for t0 in reversed(range(0, length, block_len)):
        t1 = min(t0 + block_len, length)
        dch, xch = dd[:, t0:t1], xd[:, t0:t1]
        abar = np.exp(dch[..., None] * a_diag)
        lam_c = g[:, t0:t1, :, None] * pd[:, t0:t1, None, :]  # becomes lam_t in place
        for i in range(t1 - t0 - 1, -1, -1):
            lam_c[:, i] += lam
            lam = lam_c[:, i] * abar[:, i]
        grad_abar_a = lam_c * states[:, t0:t1] * abar
        ga_diag += np.einsum("bcdn,bcd->dn", grad_abar_a, dch)
        lam_dot_b = np.einsum("bcdn,bcn->bcd", lam_c, bd[:, t0:t1])
        gdelta[:, t0:t1] = np.einsum("bcdn,dn->bcd", grad_abar_a, a_diag) + lam_dot_b * xch
        gx[:, t0:t1] += lam_dot_b * dch
        gb[:, t0:t1] = np.einsum("bcdn,bcd->bcn", lam_c, dch * xch)
    gp = np.einsum("bld,bldn->bln", g, states[:, 1:])
    gq = (g * xd).sum(axis=(0, 1))
    return gx, gdelta, ga_diag, gb, gp, gq


def ssm_scan(x: Tensor, delta: Tensor, A: Tensor, B: Tensor, P: Tensor, Q: Tensor,
             block_len: int = 64) -> Tensor:
    """Batched selective scan with input-dependent delta/B/P.

    Shapes: x and delta [batch, L, D]; B and P [batch, L, N] (shared over
    channels); A [D, N] diagonal; Q [D]. Discretization is exp for the
    state factor and delta*B for the input factor. Returns y [batch, L, D].
    """
    bt, length, d = x.shape
    n = A.shape[1]
    if delta.shape != (bt, length, d):
        raise ShapeError(f"ssm_scan: delta shape {delta.shape} != x shape {x.shape}")
    if B.shape != (bt, length, n) or P.shape != (bt, length, n):
        raise ShapeError(f"ssm_scan: B/P must be [batch, L, {n}], got {B.shape} / {P.shape}")
    if Q.shape != (d,):
        raise ShapeError(f"ssm_scan: Q must be [{d}], got {Q.shape}")
    xd, dd, ad, bd, pd, qd = x.data, delta.data, A.data, B.data, P.data, Q.data
    keep = T.active_tape() is not None and any(t.requires_grad for t in (x, delta, A, B, P, Q))
    states = np.empty((bt, length + 1, d, n), dtype=xd.dtype) if keep else None

    def discretize(t0, t1):
        dch = dd[:, t0:t1]
        return (np.exp(dch[..., None] * ad),
                (dch * xd[:, t0:t1])[..., None] * bd[:, t0:t1, None, :])

    y, _ = _chunked_scan(xd, pd[:, :, None, :], qd, discretize, block_len, states)

    def rule(g):
        gx, gdelta, ga, gb, gp, gq = _scan_backward(g, xd, dd, ad, bd, pd, qd, states,
                                                    block_len)
        accumulate(x, gx)
        accumulate(delta, gdelta)
        accumulate(A, ga)
        accumulate(B, gb)
        accumulate(P, gp)
        accumulate(Q, gq)

    return make_op(y, rule, x, delta, A, B, P, Q)


# ---- 2D cross-scan ---------------------------------------------------------

def cross_scan(fmap: Tensor) -> list[Tensor]:
    """Flatten [N, D, H, W] into four traversal orders, each [N, H*W, D].

    Orders: row-major, column-major, and their reverses, so a 1D scan
    sees every spatial position from four directions.
    """
    n, d, h, w = fmap.shape
    seq = fmap.reshape(n, d, h * w).transpose(0, 2, 1)
    seq_t = fmap.transpose(0, 1, 3, 2).reshape(n, d, h * w).transpose(0, 2, 1)
    return [seq, seq_t, T.flip(seq, 1), T.flip(seq_t, 1)]


def cross_merge(seqs, height: int, width: int) -> Tensor:
    """Undo each traversal of :func:`cross_scan` and sum the four maps."""
    if len(seqs) != 4:
        raise ShapeError(f"cross_merge: expected 4 sequences, got {len(seqs)}")
    n, length, d = seqs[0].shape
    if length != height * width:
        raise ShapeError(f"cross_merge: sequence length {length} != {height}x{width}")

    def undo_rows(s):
        return s.transpose(0, 2, 1).reshape(n, d, height, width)

    def undo_cols(s):
        return s.transpose(0, 2, 1).reshape(n, d, width, height).transpose(0, 1, 3, 2)

    return (undo_rows(seqs[0]) + undo_cols(seqs[1])
            + undo_rows(T.flip(seqs[2], 1)) + undo_cols(T.flip(seqs[3], 1)))
