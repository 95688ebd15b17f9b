"""Selective state-space scan kernels.

A diagonal linear system h' = A h + B x, y = P h + Q x is discretized with
a per-channel timescale delta and evaluated as the recurrence

    h_t = Abar_t * h_{t-1} + Bbar_t * x_t,    y_t = sum_n P_t h_t + Q x_t

with h_0 = 0. ``selective_scan_seq`` is the transparent step-by-step
reference and the oracle. One chunked core discretizes and contracts a
chunk at a time while carrying the state across chunks; its two callers
differ only in the discretization and the P contraction:
``selective_scan_blocked`` (one sequence, per-channel B and P, ZOH or
first-order) and ``ssm_scan`` (taped and batched, B and P shared over
channels, used inside the vision blocks). Both must match the reference
within dtype tolerance on every instance.

Scan states are [batch, N, D] internally, channels innermost, in the
oracle too: summing p*h over N then runs in the same order everywhere, so
the blocked scan matches the oracle bit for bit. A chunk's Abar, Bbar*x
and states live in time-major buffers [chunk, batch, N, D], allocated once
per call and reused by every chunk: the discretizer writes its outer
products straight into them, and each recurrence step reads and writes
one contiguous [batch, N, D] slab. The arithmetic of a step does not
depend on the chunking, so every chunk length gives the same outputs.
``ssm_scan`` contracts with its shared P as a matmul, and by default takes
its chunk length from the input's shape so that one buffer stays within
256 KiB. Under a tape it keeps only each chunk's start state; backward
re-runs a chunk's recurrence from it (Mamba's recomputation) before
stepping that chunk's adjoint. It keeps delta as its recipe where delta
has one (a softplus over the low-rank dt projection, in the vision
blocks), and backward derives delta from it once, as Mamba's fused
kernel recomputes delta.
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
    h = np.zeros((n, d), dtype=x.dtype)     # [N, D], the chunked core's layout
    y = np.empty((length, d), dtype=x.dtype)
    for t in range(length):
        abar, bbar = disc(params.A, bs[t], deltas[t])
        h = _states_first(abar) * h + _states_first(bbar) * x[t]
        y[t] = (_states_first(ps[t]) * h).sum(axis=0) + params.Q * x[t]
    return ScanResult(y=y, h_final=h.T)


def _states_first(a):
    """A [..., D, N] array as a C-ordered [..., N, D] one."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


def _chunk_states(h, abar, bx):
    """States h_t of one chunk from its start state h, written over bx [c, batch, N, D]."""
    for a_i, bx_i in zip(abar, bx):
        bx_i += a_i * h      # equals abar*h + bx bit for bit
        h = bx_i
    return bx


def _chunk_buffers(count, steps, shape, dtype):
    """``count`` time-major chunk buffers [steps, batch, N, D] for ``shape`` [batch, N, D]."""
    return [np.empty((steps,) + shape, dtype=dtype) for _ in range(count)]


def _chunks(length, block_len):
    """(k, t0, t1) for each chunk of steps t0..t1-1."""
    return [(k, t0, min(t0 + block_len, length)) for k, t0 in enumerate(range(0, length, block_len))]


def _chunked_scan(x, q, n, dtype, discretize, readout, block_len, starts=None):
    """Recurrence over x [batch, L, D]; returns y [batch, L, D] and h_L [batch, N, D].

    Two time-major buffers [block_len, batch, N, D] of ``dtype`` are
    allocated once and reused by every chunk, so each step of the
    recurrence reads and writes one contiguous [batch, N, D] slab.
    ``discretize(t0, t1, abar, bx)`` writes Abar and Bbar*x for steps
    t0..t1-1 into the leading t1-t0 rows of the buffers; ``readout(t0, t1,
    hs)`` contracts those steps' states with P to [t1-t0, batch, D].
    ``starts``, if given, is [chunks, batch, N, D] and receives each
    chunk's start state.
    """
    bt, length, d = x.shape
    y = np.empty((bt, length, d), dtype=x.dtype)
    abar, bx = _chunk_buffers(2, min(block_len, length), (bt, n, d), dtype)
    h = 0.0
    for k, t0, t1 in _chunks(length, block_len):
        if starts is not None:
            starts[k] = h
        a, hs = abar[:t1 - t0], bx[:t1 - t0]
        discretize(t0, t1, a, hs)
        _chunk_states(h, a, hs)
        h = hs[-1].copy()     # the buffer is overwritten by the next chunk
        y[:, t0:t1] = np.swapaxes(readout(t0, t1, hs), 0, 1) + q * x[:, t0:t1]
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
    if x.shape[0] < 1:
        raise ShapeError("selective_scan_blocked: empty sequence")
    if block_len < 1:
        raise ShapeError(f"selective_scan_blocked: block_len {block_len} must be >= 1")
    disc = _DISCRETIZERS[params.method]
    deltas, bs, ps = params.step_arrays(x.shape[0])

    def discretize(t0, t1, abar, bx):
        a, b = disc(params.A, bs[t0:t1], deltas[t0:t1])
        abar[:, 0] = np.swapaxes(a, -1, -2)
        np.multiply(np.swapaxes(b, -1, -2), x[t0:t1, None, :], out=bx[:, 0])

    def readout(t0, t1, hs):
        # per-channel P: elementwise, summed over N in the oracle's order
        return (_states_first(ps[t0:t1])[:, None] * hs).sum(-2)

    dtype = np.result_type(x, params.A, params.B, params.delta)
    y, h = _chunked_scan(x[None], params.Q, params.A.shape[1], dtype, discretize, readout,
                         block_len)
    return ScanResult(y=y[0], h_final=h[0].T)


# ---- taped batched scan ----------------------------------------------------

def _time_major(a, t0, t1):
    """Steps t0..t1-1 of a [batch, L, ...] array as a C-ordered [t1-t0, batch, ...] copy.

    Contiguous operands let ``np.einsum`` write an outer product about
    twice as fast as from strided views.
    """
    return np.ascontiguousarray(np.swapaxes(a[:, t0:t1], 0, 1))


def _scan_backward(g, xd, dd, a_t, bd, pd, qd, discretize, starts, block_len):
    """Adjoint lam_t = g_t P_t + Abar_{t+1} lam_{t+1}, one chunk at a time from the last.

    Each chunk's states are recomputed from its start in ``starts`` before
    its adjoint steps; ``a_t`` is A as [N, D], and gA comes back that way.
    The chunk's Abar, states and P (x) g seed live in three time-major
    buffers reused by every chunk.
    """
    length = xd.shape[1]
    abar, bx, lam_c = _chunk_buffers(3, min(block_len, length), starts.shape[1:], g.dtype)
    lam = np.zeros(starts.shape[1:], dtype=g.dtype)   # [batch, N, D]
    gx = g * qd
    gdelta = np.empty_like(dd)
    ga = np.zeros_like(a_t)
    gb = np.empty_like(bd)
    gp = np.empty_like(pd)
    for k, t0, t1 in reversed(_chunks(length, block_len)):
        dch, xch, gch = (_time_major(v, t0, t1) for v in (dd, xd, g))     # [c, batch, D]
        a, hs, lc = abar[:t1 - t0], bx[:t1 - t0], lam_c[:t1 - t0]
        discretize(t0, t1, a, hs)
        _chunk_states(starts[k], a, hs)
        gp[:, t0:t1] = np.swapaxes((hs @ gch[..., None])[..., 0], 0, 1)
        np.einsum("cbn,cbd->cbnd", _time_major(pd, t0, t1), gch, out=lc)   # becomes lam_t in place
        for lc_i, a_i in zip(lc[::-1], a[::-1]):
            lc_i += lam
            lam = np.multiply(lc_i, a_i, out=a_i)
        lam = lam.copy()      # it is a[0], which is overwritten next
        # a holds lam_t*Abar_t; times h_{t-1} it is dL/d(delta_t*A) per element
        a[0] *= starts[k]
        a[1:] *= hs[:-1]
        ga += np.einsum("cbnd,cbd->nd", a, dch)
        lam_dot_b = (_time_major(bd, t0, t1)[:, :, None, :] @ lc)[:, :, 0]
        gdelta[:, t0:t1] = np.swapaxes(np.einsum("cbnd,nd->cbd", a, a_t) + lam_dot_b * xch, 0, 1)
        gx[:, t0:t1] += np.swapaxes(lam_dot_b * dch, 0, 1)
        gb[:, t0:t1] = np.swapaxes((lc @ (dch * xch)[..., None])[..., 0], 0, 1)
    gq = (g * xd).sum(axis=(0, 1))
    return gx, gdelta, ga, gb, gp, gq


# A chunk buffer [steps, batch, N, D] holds at most this many bytes when
# ssm_scan picks the chunk length itself. At the desk fusion shapes (f32)
# a taped scan and its backward ran as fast with 512 KiB, and 1.4x slower
# at batch 1 with 1 MiB.
_CHUNK_BYTES = 256 * 1024


def _default_block_len(bt, length, n, d, itemsize):
    """Steps per chunk: as many as keep one chunk buffer within _CHUNK_BYTES, at least N, at most L.

    The floor of N steps bounds the start states kept under a tape to about
    the size of the output.
    """
    fit = _CHUNK_BYTES // max(1, bt * n * d * itemsize)
    return max(1, min(length, max(n, fit)))


def ssm_scan(x: Tensor, delta: Tensor, A: Tensor, B: Tensor, P: Tensor, Q: Tensor,
             block_len: int | None = None) -> Tensor:
    """Batched selective scan with input-dependent delta/B/P.

    Shapes: x and delta [batch, L, D]; B and P [batch, L, N] (shared over
    channels); A [D, N] diagonal; Q [D]. Discretization is exp for the
    state factor and delta*B for the input factor. Returns y [batch, L, D].

    The scan runs ``block_len`` steps per chunk. By default the chunk
    length comes from the shapes: as many steps as keep one time-major
    chunk buffer [steps, batch, N, D] within 256 KiB, at least N and at
    most L (64, 32 and 16 steps at batch 1 and D = 64, 128 and 256 with
    N = 16 in float32; 16 at batch 8). Every chunk length gives the same y.

    Keeps: the values of x, B, P and Q, A as [N, D], the chunk start
    states, and delta's values as :func:`~ssmdet.tensor.kept_values` gives
    them: a softplus output's recipe, not the array, which backward rebuilds
    once.
    """
    bt, length, d = x.shape
    n = A.shape[1]
    if delta.shape != (bt, length, d):
        raise ShapeError(f"ssm_scan: delta shape {delta.shape} != x shape {x.shape}")
    if B.shape != (bt, length, n) or P.shape != (bt, length, n):
        raise ShapeError(f"ssm_scan: B/P must be [batch, L, {n}], got {B.shape} / {P.shape}")
    if Q.shape != (d,):
        raise ShapeError(f"ssm_scan: Q must be [{d}], got {Q.shape}")
    if block_len is None:
        block_len = _default_block_len(bt, length, n, d, x.data.itemsize)
    if block_len < 1:
        raise ShapeError(f"ssm_scan: block_len {block_len} must be >= 1")
    xd, bd, pd, qd = x.data, B.data, P.data, Q.data
    a_t = _states_first(A.data)
    keep = T.active_tape() is not None and any(t.requires_grad for t in (x, delta, A, B, P, Q))
    starts = np.empty((-(-length // block_len), bt, n, d), dtype=xd.dtype) if keep else None

    def discretizer(dd):
        def discretize(t0, t1, abar, bx):
            dch = _time_major(dd, t0, t1)
            np.exp(np.einsum("cbd,nd->cbnd", dch, a_t, out=abar), out=abar)
            np.einsum("cbn,cbd->cbnd", _time_major(bd, t0, t1), dch * _time_major(xd, t0, t1),
                      out=bx)
        return discretize

    def readout(t0, t1, hs):
        return (_time_major(pd, t0, t1)[:, :, None, :] @ hs)[:, :, 0]

    y, _ = _chunked_scan(xd, qd, n, xd.dtype, discretizer(delta.data), readout, block_len,
                         starts)

    slots = [t.slot for t in (x, delta, A, B, P, Q)]
    delta_values = T.kept_values(delta)

    def rule(g):
        dd = delta_values()
        gx, gdelta, ga, gb, gp, gq = _scan_backward(g, xd, dd, a_t, bd, pd, qd, discretizer(dd),
                                                    starts, block_len)
        for slot, grad in zip(slots, (gx, gdelta, ga.T, gb, gp, gq)):
            accumulate(slot, grad)

    return make_op(y, rule, x, delta, A, B, P, Q)


# ---- 2D cross-scan ---------------------------------------------------------

def cross_scan(fmap: Tensor) -> list[Tensor]:
    """Flatten [N, D, H, W] into four traversal orders, each [N, H*W, D].

    Orders: row-major, column-major, and their reverses (views of the
    first two), so a 1D scan sees every spatial position from four
    directions.
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
