"""Neural-network operators on :class:`~ssmdet.tensor.Tensor`.

Every convolution is :func:`conv2d`, for every kind of conv (dense,
grouped, depthwise, 1x1, strided, k x 1): the [groups, out/groups,
in/groups*kh*kw] weight times a column matrix whose rows are (input
channel, tap) and whose columns are (output row, output column, image),
one matmul per block of output rows.
The columns are a read-only strided view of the padded input, copied one
block at a time (Chellapilla et al. 2006), and the weight gradient
contracts the same blocks with the output gradient. The input gradient
adds every tap's ``w_k^T @ g`` into the window that tap reads.
Tests hold it to direct nested-loop oracles. Convolution is
cross-correlation (no kernel flip).
ECA's attention tail (:func:`eca_attention`) and a concat followed by a
channel shuffle (:func:`shuffle_concat`) are one taped op each: each part
is written straight into its shuffled channels, and the attention's
pooling, k-tap channel conv and sigmoid run on [batch, channels] arrays
with the arithmetic of the ops they replace, whose chain the tests keep
as the oracle.
Batch and layer norm are one taped op each, with a closed-form backward
that keeps only the normalized input; batch norm's takes the per-channel
form, from the same two sums as its gain and shift gradients. Batch norm
can end in a SiLU inside that op, and layer norm in a SiLU gate
(``norm(x) * silu(gate)``, which also keeps the gate): their backwards
derive the sigmoid again from the normalized input or the gate instead
of holding it. The ops that leave a recipe on a recorded output (the
rule is in :mod:`ssmdet.tensor`) are the norms, :func:`linear` (from the
input it keeps for its weight gradient), :func:`softplus` over an input
with a recipe, and, over such an input, the layout ops
:func:`concat_channels`, :func:`shuffle_concat`, :func:`upsample_nearest`
and a slice. So the scan's delta and the merges that only a conv's
weight gradient reads are rebuilt in backward, not held.

Each rule's "keeps" note names what it holds for backward besides its
inputs' gradient slots (see :mod:`ssmdet.tensor`).
"""

from __future__ import annotations

import numpy as np

from .tensor import (ShapeError, Tensor, _check_same_dtype, _left_for_rule, _zeros_like_later,
                     accumulate, elementwise, kept_values, layout_op, make_op, recording, with_recipe)

__all__ = [
    "batch_norm",
    "channel_shuffle",
    "concat_channels",
    "conv2d",
    "eca_attention",
    "layer_norm",
    "linear",
    "shuffle_concat",
    "sigmoid",
    "silu",
    "softplus",
    "split_channels",
    "upsample_nearest",
]


def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(z / 2)): tanh saturates instead of overflowing, and
    keeps the input's dtype. Every step after the first writes into the
    array the first one made (a 0-d array for a 0-d ``z``)."""
    s = np.asarray(0.5 * z)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def sigmoid(x: Tensor) -> Tensor:
    """Keeps: its output."""
    s = _sigmoid_stable(x.data)
    return elementwise(x, None, s, lambda g: g * s * (1.0 - s))


def silu(x: Tensor) -> Tensor:
    """z = x * s with s = sigmoid(x). Keeps: s and z.

    The derivative s + z*(1-s) is s + x*s*(1-s) with the first product
    already taken, so it is the same to the bit without holding x.
    """
    s = _sigmoid_stable(x.data)
    z = x.data * s
    return elementwise(x, None, z, lambda g: g * _silu_slope(s, z))


def _silu_slope(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """silu's derivative ``s + z*(1-s)`` in a new array, from ``s = sigmoid(x)`` and ``z = x*s``.

    A caller multiplies by it unnamed, as ``g * _silu_slope(s, z)``, so that
    numpy's temporary elision can write a large product into this array, as
    it did into the expression's temporary before: the product is laid out,
    and later summed, as it was.
    """
    d = 1.0 - s
    d *= z
    d += s
    return d


def _softplus(x: np.ndarray) -> np.ndarray:
    # this form does not overflow; np.logaddexp is a scalar loop
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def softplus(x: Tensor) -> Tensor:
    """out = log(1 + e^x). Keeps: ``x``'s recipe where it has one, else its output.

    The derivative sigmoid(x) is 1 - e^-out, taken as -expm1(-out). Where
    ``x`` has a recipe, a recorded output gets the recipe ``softplus(x)``:
    the first rebuild leaves its result for the rule, which pops it (it
    derives ``out`` itself when no consumer rebuilt the output), so a
    consumer that keeps the recipe (the scan keeps delta's) holds no array
    and ``out`` is derived once per backward. Without a recipe, a consumer
    that keeps the output shares the array the rule keeps.
    """
    out = _softplus(x.data)
    if x.rebuild is None:
        return elementwise(x, None, out, lambda g: g * -np.expm1(-out))
    values = x.rebuild
    rebuild, take = _left_for_rule(lambda: _softplus(values()))
    return with_recipe(elementwise(x, None, out, lambda g: g * -np.expm1(-take())), rebuild)


# ---- convolution ----------------------------------------------------------

# Cap on the bytes of one block of conv2d's float64 column matrix (a block
# holds at least one output row). Unblocked columns are up to 18x the float32
# input; at desk shapes 512 KiB blocks ran as fast as 1 MiB ones and faster
# than unblocked columns.
_COLUMN_BLOCK_BYTES = 1 << 19


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int | tuple[int, int] = 0, groups: int = 1) -> Tensor:
    """2D cross-correlation, NCHW in, [C_out, C_in/groups, kh, kw] kernel, int or (h, w) padding.

    Keeps: ``x``'s values if ``w`` needs a gradient, as
    :func:`~ssmdet.tensor.kept_values` gives them (a norm's output as the
    norm's recipe for it, not a second array); ``w``'s if ``x`` does. The
    column matrices are transient: backward rebuilds them from ``x``'s values.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4D [batch, channel, height, width], got {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: weight must be 4D, got {w.shape}")
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    if stride < 1 or ph < 0 or pw < 0:
        raise ShapeError(f"conv2d: stride {stride} must be >= 1 and padding {padding} >= 0")
    if groups < 1:
        raise ShapeError(f"conv2d: groups {groups} must be >= 1")
    n, c_in, h, wd = x.shape
    c_out, c_g, kh, kw = w.shape
    if kh < 1 or kw < 1:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} has a side of zero length")
    if c_in % groups != 0:
        raise ShapeError(f"conv2d: input channels {c_in} not divisible by groups {groups}")
    if c_g != c_in // groups:
        raise ShapeError(f"conv2d: weight channel dim {c_g} != input channels {c_in} / groups {groups}")
    if c_out % groups != 0:
        raise ShapeError(f"conv2d: output channels {c_out} not divisible by groups {groups}")
    hp, wp = h + 2 * ph, wd + 2 * pw
    if kh > hp or kw > wp:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    if x.data.dtype != w.data.dtype:
        raise ShapeError(f"conv2d: dtype mismatch {x.data.dtype} vs {w.data.dtype}")
    if bias is not None and (bias.shape != (c_out,) or bias.data.dtype != x.data.dtype):
        raise ShapeError(f"conv2d: bias {bias.shape} {bias.data.dtype} must be "
                         f"({c_out},) {x.data.dtype}")

    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    og, k = c_out // groups, c_g * kh * kw
    taps = [(ki, kj) for ki in range(kh) for kj in range(kw)]
    # [groups, c_g, hp, wp, n]: the batch is innermost, so an output row's
    # columns are runs of wo*n values; the output and input gradient keep this
    # order. 32-bit inputs accumulate in float64 and round once at the end,
    # within 1e-6 of the nested-loop oracle. Neither the padded float64 copy
    # nor a column block is kept for backward: the weight gradient rebuilds
    # them from x's values.
    padded_shape = (groups, c_g, hp, wp, n)
    rows = max(1, _COLUMN_BLOCK_BYTES // max(1, groups * k * wo * n * 8))

    def padded(xd):
        xp = np.zeros(padded_shape)
        xp[:, :, ph:ph + h, pw:pw + wd] = \
            xd.reshape(n, groups, c_g, h, wd).transpose(1, 2, 3, 4, 0)
        return xp

    def window(a, ki, kj):
        """The [groups, c, ho, wo, n] part of ``a`` that tap (ki, kj) reads."""
        return a[:, :, ki:ki + stride * (ho - 1) + 1:stride, kj:kj + stride * (wo - 1) + 1:stride]

    def column_blocks(xp):
        """(positions, view) per block of at most ``rows`` output rows: the
        view's reshape to [groups, c_g*kh*kw, positions] is the block's column
        matrix, a copy unless the view is contiguous (1x1 kernel, stride 1)."""
        sg, sc, sh, sw, sn = xp.strides
        # the view np.lib.stride_tricks.as_strided makes, at an eighth of its call cost
        view = np.ndarray((groups, c_g, kh, kw, ho, wo, n), xp.dtype, xp, 0,
                          (sg, sc, sh, sw, stride * sh, stride * sw, sn))
        view.flags.writeable = False
        for r in range(0, ho, rows):
            yield slice(r * wo * n, min(r + rows, ho) * wo * n), view[:, :, :, :, r:r + rows]

    wmat = w.data.astype(np.float64).reshape(groups, og, k)
    out = np.empty((groups, og, ho * wo * n))
    for at, cols in column_blocks(padded(x.data)):
        np.matmul(wmat, cols.reshape(groups, k, at.stop - at.start), out=out[..., at])
    del cols    # a view of the padded copy, which can go now
    out = out.reshape(c_out, ho, wo, n).transpose(3, 0, 1, 2)
    if bias is not None:
        out += bias.data.reshape(1, c_out, 1, 1)
    out = out.astype(x.data.dtype)
    xs, ws, bs = x.slot, w.slot, bias.slot if bias is not None else None
    xv = kept_values(x) if ws.requires_grad else None
    wv = w.data if xs.requires_grad else None
    dtype = x.data.dtype

    def rule(g):
        if bs is not None:
            accumulate(bs, g.sum(axis=(0, 2, 3)))
        g = g.transpose(1, 2, 3, 0).reshape(groups, og, ho * wo * n)
        if xv is not None:
            gw = sum(g[..., at].astype(np.float64)
                     @ cols.reshape(groups, k, at.stop - at.start).transpose(0, 2, 1)
                     for at, cols in column_blocks(padded(xv())))
            accumulate(ws, gw.reshape(c_out, c_g, kh, kw).astype(dtype))
        if wv is not None:
            # every tap's w_k^T @ g in one matmul, each added into its window, in
            # the gradient's dtype (in float64 these passes cost the most); with
            # one output channel per group each w_k^T @ g is an outer product
            if og == 1:
                wk = wv.reshape(groups, c_g, kh * kw, 1, 1, 1)
                g5 = g.reshape(groups, 1, ho, wo, n)
                gtaps = (wk[:, :, t] * g5 for t in range(kh * kw))
            else:
                gtaps = np.moveaxis(
                    (wv.reshape(groups, og, k).transpose(0, 2, 1) @ g)
                    .reshape(groups, c_g, kh * kw, ho, wo, n), 2, 0)
            gxp = np.zeros(padded_shape, dtype=g.dtype)
            for (ki, kj), gtap in zip(taps, gtaps):
                window(gxp, ki, kj)[...] += gtap
            gx = gxp[:, :, ph:ph + h, pw:pw + wd].reshape(c_in, h, wd, n)
            accumulate(xs, gx.transpose(3, 0, 1, 2))

    return make_op(out, rule, x, w, bias)


# ---- normalization --------------------------------------------------------

_EPS = 1e-5          # added to the variance by both norms
_MOMENTUM = 0.03     # weight of the batch statistics in batch norm's running averages


def _check_norm_args(name: str, x: Tensor, gain: Tensor, shift: Tensor) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{name}: input must be 4D, got {x.shape}")
    c = x.shape[1]
    if gain.shape != (c,) or shift.shape != (c,) or {gain.dtype, shift.dtype} != {x.dtype}:
        raise ShapeError(f"{name}: gain/shift must have length {c} and dtype {x.dtype}")


def _normalize(x: Tensor, xc: np.ndarray, rstd: np.ndarray, gain: Tensor, shift: Tensor,
               axes: tuple | None, silu: bool = False, gate: Tensor | None = None) -> Tensor:
    """``h = xhat * gain + shift`` with ``xhat = xc * rstd`` as one taped op;
    ``silu(h)`` when ``silu`` is set, ``h * silu(gate)`` when a gate is given.

    ``xc`` is ``x`` less its mean, an array of the caller's that becomes
    ``xhat`` in place; both statistics were taken over ``axes``, or are
    constants when it is None. With ``silu``, the rule first multiplies
    ``g`` by :func:`silu`'s derivative ``s + z*(1-s)`` at ``h``, with ``s =
    sigmoid(h)`` and ``z = h*s``; with a gate, the gate gets ``g * h`` times
    that derivative at the gate, and ``g`` is multiplied by ``silu(gate)``.
    Then ``gain`` gets ``Σ g*xhat`` and ``shift`` ``Σ g``. Batch norm's
    gain and ``rstd`` are constant per channel, so its x-gradient is the
    closed form ``(g - Σg/m - xhat * Σ(g*xhat)/m) * (gain * rstd)``, the
    sums running over the ``m`` values of a channel (``g * (gain * rstd)``
    with constant statistics). Layer norm's gain varies along its
    statistics' axis: ``gx = rstd * (gh - mean(gh) - xhat * mean(gh *
    xhat))`` over ``axes``, with ``gh = g * gain``. Chains write into
    arrays they made, except where the fresh result could be laid out
    otherwise and is later summed: numpy sums in memory order.

    Keeps: ``xhat``, ``rstd``, the gain, the shift and the gate's values.
    A recorded output's ``rebuild`` recomputes it from these with the
    forward's own code, so a conv that reads it keeps no copy of it. With
    the SiLU, the first rebuild also leaves ``s`` and ``z`` for the rule,
    and every later rebuild (a fanned-out output) returns that ``z``: the
    pair is held from the first consumer's rule until the norm's rule pops it.
    """
    xhat = xc
    xhat *= rstd
    gain4, shift4 = gain.data.reshape(1, -1, 1, 1), shift.data.reshape(1, -1, 1, 1)
    xs, gs, ss = x.slot, gain.slot, shift.slot
    gate_v, gate_s = (gate.data, gate.slot) if gate is not None else (None, None)

    def affine():
        h = xhat * gain4
        h += shift4
        return h

    def silu_pair():
        """``s = sigmoid(h)`` and ``z = h * s``, written into ``h``'s array."""
        h = affine()
        s = _sigmoid_stable(h)
        h *= s
        return s, h

    def output():
        if silu:
            return silu_pair()[1]
        h = affine()
        if gate_v is not None:
            return h * (gate_v * _sigmoid_stable(gate_v))
        return h

    shared_pair, take_pair = _left_for_rule(silu_pair)

    def rule(g):
        if silu:
            s, z = take_pair()
            g = g * _silu_slope(s, z)
        elif gate_v is not None:
            s = _sigmoid_stable(gate_v)
            z = gate_v * s
            accumulate(gate_s, g * affine() * _silu_slope(s, z))
            g = g * z
        sum_gx, sum_g = (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))
        accumulate(gs, sum_gx)
        accumulate(ss, sum_g)
        if not xs.requires_grad:
            return
        if axes == (1,):        # layer norm
            gh = g * gain4
            gh = gh - gh.mean(axis=axes, keepdims=True) \
                - xhat * (gh * xhat).mean(axis=axes, keepdims=True)
            accumulate(xs, gh * rstd)
        elif axes is None:      # batch norm with its running statistics
            accumulate(xs, g * (gain4 * rstd))
        else:                   # batch norm with the batch's
            m = g.size // g.shape[1]
            gx = (g - (sum_g / m).reshape(1, -1, 1, 1)) \
                - xhat * (sum_gx / m).reshape(1, -1, 1, 1)
            gx *= gain4 * rstd
            accumulate(xs, gx)

    return with_recipe(make_op(output(), rule, x, gain, shift, gate),
                       (lambda: shared_pair()[1]) if silu else output)


def batch_norm(x: Tensor, gain: Tensor, shift: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, silu: bool = False) -> Tensor:
    """Per-channel normalization over batch and spatial dims, then a SiLU if ``silu``.

    Train mode normalizes with batch statistics and moves the running
    stats by an exponential average; infer mode uses the running stats.
    The SiLU is part of the one taped op, with the values and gradients of
    :func:`silu` applied to the norm's output.
    """
    _check_norm_args("batch_norm", x, gain, shift)
    c = x.shape[1]
    if not training:
        rm = running_mean.reshape(1, c, 1, 1).astype(x.data.dtype, copy=False)
        rs = (1.0 / np.sqrt(running_var + _EPS)).reshape(1, c, 1, 1).astype(x.data.dtype, copy=False)
        return _normalize(x, x.data - rm, rs, gain, shift, None, silu)
    if x.shape[0] * x.shape[2] * x.shape[3] == 0:
        raise ShapeError("batch_norm: empty batch in train mode")
    axes = (0, 2, 3)
    mu = x.data.mean(axis=axes, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=axes, keepdims=True)
    running_mean += _MOMENTUM * (mu.reshape(c) - running_mean)
    running_var += _MOMENTUM * (var.reshape(c) - running_var)
    return _normalize(x, xc, (var + _EPS) ** -0.5, gain, shift, axes, silu)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, gate: Tensor | None = None) -> Tensor:
    """Normalize over the channel axis independently per spatial position,
    then multiply by ``silu(gate)`` if a gate of ``x``'s shape is given.

    The gating is part of the one taped op, with the values and gradients
    of ``layer_norm(x) * silu(gate)``. Keeps: ``xhat``, ``rstd``, the gain,
    the shift and the gate's values.
    """
    _check_norm_args("layer_norm", x, gain, shift)
    if gate is not None and (gate.shape != x.shape or gate.dtype != x.dtype):
        raise ShapeError(f"layer_norm: gate {gate.shape} {gate.dtype} must match input "
                         f"{x.shape} {x.dtype}")
    mu = x.data.mean(axis=(1,), keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=(1,), keepdims=True)
    return _normalize(x, xc, (var + _EPS) ** -0.5, gain, shift, (1,), gate=gate)


# ---- layout ------------------------------------------------------------

def _shuffled_positions(c: int, groups: int) -> np.ndarray:
    """Where the channel shuffle puts each of ``c`` channels: channel ``m`` of
    group ``m // (c/groups)`` goes to ``(m % (c/groups)) * groups + m // (c/groups)``."""
    if groups < 1 or c % groups:
        raise ShapeError(f"channel shuffle: channels {c} not divisible by groups {groups}")
    return np.arange(c).reshape(c // groups, groups).T.ravel()


def shuffle_concat(parts, groups: int) -> Tensor:
    """Concatenate ``parts`` along the channels and shuffle the result, as one op.

    The shuffle is the group transpose: channels reshape to (groups,
    C/groups), transpose and flatten, so group members interleave; shuffling
    with C/groups groups inverts it. Each part is written straight into its
    shuffled channels, and backward gives each part its own channels of the
    gradient. A :func:`~ssmdet.tensor.layout_op`. Keeps: the parts' slots
    and the channel positions.
    """
    parts = list(parts)
    if not parts:
        raise ShapeError("shuffle_concat of zero tensors")
    first = parts[0]
    for p in parts:
        if p.ndim < 2 or p.shape[:1] + p.shape[2:] != first.shape[:1] + first.shape[2:] \
                or p.dtype != first.dtype:
            raise ShapeError(f"shuffle_concat: part {p.shape} {p.dtype} does not match "
                             f"{first.shape} {first.dtype} outside the channel axis")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    dest = _shuffled_positions(int(offsets[-1]), groups)
    shape, dtype = first.shape[:1] + (int(offsets[-1]),) + first.shape[2:], first.dtype

    def join(*values):
        out = np.empty(shape, dtype)
        for v, lo, hi in zip(values, offsets[:-1], offsets[1:]):
            out[:, dest[lo:hi]] = v
        return out

    slots = [p.slot for p in parts]

    def rule(g):
        g = np.take(g, dest, axis=1)    # in the concat's channel order
        for slot, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            accumulate(slot, g[:, lo:hi])

    return layout_op(join, rule, *parts)


def channel_shuffle(x: Tensor, groups: int) -> Tensor:
    """Fixed group-transpose permutation of channels: :func:`shuffle_concat` of ``x`` alone."""
    return shuffle_concat([x], groups)


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
    """Join ``parts`` along the channel axis (axis 1), a
    :func:`~ssmdet.tensor.layout_op`. Keeps: the parts' slots and offsets."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels of zero tensors")
    for p in parts[1:]:
        _check_same_dtype(parts[0], p)
    slots = [p.slot for p in parts]
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def rule(g):
        for slot, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            accumulate(slot, g[:, lo:hi])

    return layout_op(lambda *arrays: np.concatenate(arrays, axis=1), rule, *parts)


def upsample_nearest(x: Tensor) -> Tensor:
    """Double the height and width of a [n, c, h, w] map by repeating each cell.

    A :func:`~ssmdet.tensor.layout_op`. Keeps: the input's shape.
    """
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest: input must be 4D, got {x.shape}")
    n, c, h, w = x.shape
    slot = x.slot

    def rule(g):
        accumulate(slot, g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return layout_op(lambda a: a.repeat(2, axis=2).repeat(2, axis=3), rule, x)


# ---- channel attention ----------------------------------------------------

def eca_attention(y: Tensor, attn_weight: Tensor, c_hat: int, groups: int) -> Tensor:
    """ECA's channel attention on the first ``c_hat`` channels of ``y``, joined
    with the rest and shuffled, as one op (Wang et al. 2020, ECA-Net).

    Per image, the gates are ``sigmoid(conv1d(mean_hw(y[:, :c_hat]),
    attn_weight))``: the height-width mean of each attended channel, a
    zero-padded k-tap conv across the channels as a k x 1 :func:`conv2d`
    computes it (float64 products summed in tap order, rounded once), and
    the sigmoid.
    The attended channels times their gates and the bypass channels
    ``y[:, c_hat:]`` (none when ``c_hat`` is all of them) are written into
    their channels of :func:`shuffle_concat`. Backward repeats the rules of
    that chain of ops in its order, so ``y``'s gradient is the chain's to the
    bit, laid out like ``y``; the weight's sums its float64 products in
    another order.

    Keeps: the attended channels (a copy, or ``y``'s array when every
    channel is attended), the gates, the padded means, the weight's values
    and ``y``'s layout; never the bypass channels. Without a tape the
    attended channels are copied only where their view is not in C order.
    """
    if y.ndim != 4:
        raise ShapeError(f"eca_attention: input must be 4D, got {y.shape}")
    n, c, h, wd = y.shape
    if attn_weight.ndim != 3 or attn_weight.shape[:2] != (1, 1) or attn_weight.shape[2] % 2 == 0:
        raise ShapeError(f"eca_attention: weight {attn_weight.shape} must be [1, 1, k], k odd")
    if not 1 <= c_hat <= c:
        raise ShapeError(f"eca_attention: attended channels {c_hat} must be in [1, {c}]")
    if h * wd == 0:
        raise ShapeError("eca_attention: zero spatial extent")
    if attn_weight.dtype != y.dtype:
        raise ShapeError(f"eca_attention: dtype mismatch {y.dtype} vs {attn_weight.dtype}")
    dest = _shuffled_positions(c, groups)
    k, dtype = attn_weight.shape[2], y.data.dtype
    pad = k // 2
    att = y.data[:, :c_hat] if c_hat < c else y.data
    # the rule keeps a copy, never y's array; a view in C order (batch 1)
    # sums and scales as its copy does, so without a rule it is not copied
    if c_hat < c and (recording(y, attn_weight) or not att.flags.c_contiguous):
        att = att.copy()
    padded = np.zeros((n, c_hat + 2 * pad))
    # np.mean's bytes at a third of its cost: np.mean divides a float32 sum in
    # float64 and rounds back, which for one division is the float32 quotient
    padded[:, pad:pad + c_hat] = att.sum(axis=(2, 3)) / (h * wd)
    w = attn_weight.data.ravel()
    taps = w.astype(np.float64)
    z = taps[0] * padded[:, :c_hat]
    for t in range(1, k):
        z += taps[t] * padded[:, t:t + c_hat]
    gates = _sigmoid_stable(z.astype(dtype)).reshape(n, c_hat, 1, 1)
    out = np.empty(y.shape, dtype)
    out[:, dest[:c_hat]] = att * gates
    out[:, dest[c_hat:]] = y.data[:, c_hat:]
    ys, ws, zeros = y.slot, attn_weight.slot, _zeros_like_later(y.data)

    def rule(g):
        g = np.take(g, dest, axis=1)    # in the concat's channel order
        g_att = g[:, :c_hat]
        # the product's sum over its broadcast axes, then the sigmoid's rule
        s = gates.reshape(n, c_hat)
        gz = (g_att * att).sum(axis=(2, 3)).reshape(n, c_hat) * s * (1.0 - s)
        if ws.requires_grad:
            gz64 = gz.astype(np.float64)
            gw = np.array([(gz64 * padded[:, t:t + c_hat]).sum() for t in range(k)])
            accumulate(ws, gw.astype(dtype).reshape(1, 1, k))
        if ys.requires_grad:
            # the 1-D conv's input gradient tap by tap, then the mean's
            gpad = np.zeros((n, c_hat + 2 * pad), gz.dtype)
            for t in range(k):
                gpad[:, t:t + c_hat] += w[t] * gz
            gpool = (gpad[:, pad:pad + c_hat] / (h * wd)).reshape(n, c_hat, 1, 1)
            gy = zeros()
            gy[:, :c_hat] = g_att * gates + gpool
            gy[:, c_hat:] = g[:, c_hat:]
            accumulate(ys, gy)

    return make_op(out, rule, y, attn_weight)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    # numpy's matmul can sum a negatively strided input (a flip view) in
    # another order than a contiguous copy of it; the product alone takes such
    # a copy, so a view and a copy of the same values give the same output
    if min(x.strides, default=0) < 0:
        x = np.ascontiguousarray(x)
    out = x @ w.T
    return out if b is None else out + b


def linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: x @ w.T + bias, weight [out, in].

    Keeps: ``x``'s values if ``w`` needs a gradient, ``w``'s if ``x`` does.
    Where it keeps ``x``'s values, a recorded output gets the recipe
    ``x @ w.T + bias`` from them, which also holds the weight's and bias's.
    """
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input features {x.shape[-1]} != weight in-dim {w.shape[1]}")
    wd, bd = w.data, bias.data if bias is not None else None
    out = _affine(x.data, wd, bd)
    xs, ws, bs = x.slot, w.slot, bias.slot if bias is not None else None
    xv = x.data if ws.requires_grad else None
    wv = wd if xs.requires_grad else None

    def rule(g):
        if bs is not None:
            accumulate(bs, g.reshape(-1, g.shape[-1]).sum(axis=0))
        if xv is not None:
            g2 = g.reshape(-1, g.shape[-1])
            accumulate(ws, g2.T @ xv.reshape(-1, xv.shape[-1]))
        if wv is not None:
            accumulate(xs, g @ wv)

    y = make_op(out, rule, x, w, bias)
    return y if xv is None else with_recipe(y, lambda: _affine(xv, wd, bd))
