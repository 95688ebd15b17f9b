"""Neural-network operators on :class:`~ssmdet.tensor.Tensor`.

Convolutions run as im2col-style strided windows contracted with einsum;
tests hold them to a direct nested-loop oracle, so the fast path must stay
semantically identical. Convolution is cross-correlation (no kernel flip).
Normalizations are built from taped primitives, so their backward rules
come for free.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ShapeError, Tensor, accumulate, concat, make_op

__all__ = [
    "batch_norm",
    "channel_shuffle",
    "concat_channels",
    "conv1d",
    "conv2d",
    "global_avg_pool",
    "layer_norm",
    "linear",
    "sigmoid",
    "silu",
    "softplus",
    "split_channels",
    "upsample_nearest",
]


def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_stable(x.data)

    def rule(g):
        accumulate(x, g * s * (1.0 - s))

    return make_op(s, rule, x)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    s = _sigmoid_stable(x.data)

    def rule(g):
        accumulate(x, g * (s + x.data * s * (1.0 - s)))

    return make_op(x.data * s, rule, x)


def softplus(x: Tensor) -> Tensor:
    out = np.logaddexp(0.0, x.data).astype(x.data.dtype, copy=False)

    def rule(g):
        accumulate(x, g * _sigmoid_stable(x.data))

    return make_op(out, rule, x)


# ---- convolution ----------------------------------------------------------

def _conv_out_len(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2D cross-correlation, NCHW in, [C_out, C_in/groups, kh, kw] kernel."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4D [batch, channel, height, width], got {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: weight must be 4D, got {w.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: stride {stride} must be >= 1 and padding {padding} >= 0")
    n, c_in, h, wd = x.shape
    c_out, c_g, kh, kw = w.shape
    if c_in % groups != 0:
        raise ShapeError(f"conv2d: input channels {c_in} not divisible by groups {groups}")
    if c_g != c_in // groups:
        raise ShapeError(f"conv2d: weight channel dim {c_g} != input channels {c_in} / groups {groups}")
    if c_out % groups != 0:
        raise ShapeError(f"conv2d: output channels {c_out} not divisible by groups {groups}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    if x.data.dtype != w.data.dtype:
        raise ShapeError(f"conv2d: dtype mismatch {x.data.dtype} vs {w.data.dtype}")

    ho, wo = _conv_out_len(h, kh, stride, padding), _conv_out_len(wd, kw, stride, padding)
    og = c_out // groups

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding))) \
        if padding else np.ascontiguousarray(x.data)
    sn, sc, sh, sw = xp.strides
    win = as_strided(
        xp.reshape(n, groups, c_g, hp, wp),
        shape=(n, groups, c_g, ho, wo, kh, kw),
        strides=(sn, sc * c_g, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    # im2col onto a BLAS-friendly layout: [groups, n*ho*wo, c_g*kh*kw].
    # 32-bit inputs accumulate in float64 and round once at the end, so the
    # fast path stays within 1e-6 of the nested-loop oracle.
    acc_dtype = np.float64
    col = win.transpose(1, 0, 3, 4, 2, 5, 6).astype(acc_dtype).reshape(
        groups, n * ho * wo, c_g * kh * kw)
    wmat = w.data.reshape(groups, og, c_g * kh * kw)
    out = np.matmul(col, wmat.transpose(0, 2, 1).astype(acc_dtype))
    out = np.ascontiguousarray(
        out.reshape(groups, n, ho, wo, og).transpose(1, 0, 4, 2, 3)
    ).reshape(n, c_out, ho, wo)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)
    out = out.astype(x.data.dtype)

    def rule(g):
        gmat = np.ascontiguousarray(
            g.reshape(n, groups, og, ho, wo).transpose(1, 0, 3, 4, 2)
        ).reshape(groups, n * ho * wo, og)
        if bias is not None:
            accumulate(bias, g.sum(axis=(0, 2, 3)))
        if w.requires_grad:
            gw = np.matmul(gmat.transpose(0, 2, 1).astype(col.dtype), col)
            accumulate(w, gw.reshape(w.data.shape).astype(w.data.dtype))
        if x.requires_grad:
            dcol = np.matmul(gmat, wmat).reshape(groups, n, ho, wo, c_g, kh, kw)
            gxp = np.zeros((n, groups, c_g, hp, wp), dtype=g.dtype)
            for ki in range(kh):
                for kj in range(kw):
                    gxp[:, :, :, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += \
                        dcol[:, :, :, :, :, ki, kj].transpose(1, 0, 4, 2, 3)
            gx = gxp.reshape(n, c_in, hp, wp)
            if padding:
                gx = gx[:, :, padding:padding + h, padding:padding + wd]
            accumulate(x, gx)

    return make_op(out, rule, x, w, bias)


def conv1d(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Length-preserving 1D cross-correlation over [N, 1, L] with odd kernel."""
    if x.ndim != 3 or x.shape[1] != 1:
        raise ShapeError(f"conv1d: input must be [batch, 1, length], got {x.shape}")
    if w.ndim != 3 or w.shape[:2] != (1, 1):
        raise ShapeError(f"conv1d: weight must be [1, 1, k], got {w.shape}")
    k = w.shape[2]
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel length {k} must be odd")
    n, _, length = x.shape
    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    s0, _, s2 = xp.strides
    win = as_strided(xp, shape=(n, length, k), strides=(s0, s2, s2), writeable=False)
    out = (win.astype(np.float64) @ w.data[0, 0].astype(np.float64)) \
        .reshape(n, 1, length).astype(x.data.dtype)
    if bias is not None:
        out = out + bias.data.reshape(1, 1, 1)

    def rule(g):
        gl = g.reshape(n, length)
        if bias is not None:
            accumulate(bias, gl.sum(keepdims=True).reshape(1))
        if w.requires_grad:
            accumulate(w, (gl[:, :, None] * win).sum(axis=(0, 1)).reshape(1, 1, k))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, 0, j:j + length] += gl * w.data[0, 0, j]
            accumulate(x, gxp[:, :, pad:pad + length])

    return make_op(out, rule, x, w, bias)


# ---- normalization --------------------------------------------------------

def batch_norm(x: Tensor, gain: Tensor, shift: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, eps: float = 1e-5, momentum: float = 0.03) -> Tensor:
    """Per-channel normalization over batch and spatial dims.

    Train mode normalizes with batch statistics and moves the running
    stats by an exponential average; infer mode uses the running stats.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm: input must be 4D, got {x.shape}")
    c = x.shape[1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(f"batch_norm: gain/shift must have length {c}")
    if training:
        if x.shape[0] * x.shape[2] * x.shape[3] == 0:
            raise ShapeError("batch_norm: empty batch in train mode")
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=(0, 2, 3), keepdims=True)
        running_mean += momentum * (mu.data.reshape(c) - running_mean)
        running_var += momentum * (var.data.reshape(c) - running_var)
        xhat = xc * (var + eps) ** -0.5
    else:
        rm = running_mean.reshape(1, c, 1, 1).astype(x.data.dtype, copy=False)
        rs = (1.0 / np.sqrt(running_var + eps)).reshape(1, c, 1, 1).astype(x.data.dtype, copy=False)
        xhat = (x - rm) * rs
    return xhat * gain.reshape(1, c, 1, 1) + shift.reshape(1, c, 1, 1)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis independently per spatial position."""
    if x.ndim != 4:
        raise ShapeError(f"layer_norm: input must be 4D, got {x.shape}")
    c = x.shape[1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(f"layer_norm: gain/shift must have length {c}")
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    xhat = xc * (var + eps) ** -0.5
    return xhat * gain.reshape(1, c, 1, 1) + shift.reshape(1, c, 1, 1)


# ---- pooling / layout -----------------------------------------------------

def global_avg_pool(x: Tensor) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool: input must be 4D, got {x.shape}")
    if x.shape[2] * x.shape[3] == 0:
        raise ShapeError("global_avg_pool: zero spatial extent")
    return x.mean(axis=(2, 3), keepdims=True)


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Fixed group-transpose permutation of channels.

    Channels reshape to (groups, C/groups), transpose, and flatten, so
    group members interleave. The permutation is a bijection; applying
    channel_shuffle with C/groups groups inverts it.
    """
    c = x.shape[1]
    if c % groups != 0:
        raise ShapeError(f"channel_shuffle: channels {c} not divisible by groups {groups}")
    perm = np.arange(c).reshape(groups, c // groups).T.ravel()
    inv = np.argsort(perm)

    def rule(g):
        accumulate(x, np.ascontiguousarray(g[:, inv]))

    return make_op(np.ascontiguousarray(x.data[:, perm]), rule, x)


def split_channels(x: Tensor, sizes) -> list[Tensor]:
    c = x.shape[1]
    if sum(sizes) != c:
        raise ShapeError(f"split_channels: sizes {list(sizes)} do not sum to channels {c}")
    parts, lo = [], 0
    for s in sizes:
        parts.append(x[:, lo:lo + s])
        lo += s
    return parts


def concat_channels(parts) -> Tensor:
    return concat(parts, axis=1)


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest: input must be 4D, got {x.shape}")
    n, c, h, w = x.shape

    def rule(g):
        accumulate(x, g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)))

    return make_op(x.data.repeat(factor, axis=2).repeat(factor, axis=3), rule, x)


def linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: x @ w.T + bias, weight [out, in]."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input features {x.shape[-1]} != weight in-dim {w.shape[1]}")
    out = x.data @ w.data.T
    if bias is not None:
        out = out + bias.data

    def rule(g):
        if bias is not None:
            accumulate(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
        if w.requires_grad:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.data.reshape(-1, x.data.shape[-1])
            accumulate(w, g2.T @ x2)
        if x.requires_grad:
            accumulate(x, g @ w.data)

    return make_op(out, rule, x, w, bias)
