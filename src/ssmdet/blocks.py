"""Detector building blocks.

Modules own their parameters (taped tensors) and running buffers, take an
explicit numpy Generator for deterministic builds and hold float32 values;
``Module.astype`` casts a whole module tree. A forward in train mode
moves batch norm's running statistics, so concurrent forward calls are safe
only in eval mode or inside ``tensor.inference()``, where ``Detector.detect``
runs them; training updates are single-writer. Convolution weights
initialize uniform in +-sqrt(1/fan_in), norm gains to 1, shifts to 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from . import tensor as T
from .ssm import cross_merge, cross_scan, ssm_scan
from .tensor import ShapeError, Tensor

__all__ = [
    "BatchNorm",
    "Conv2dLayer",
    "ConvBnAct",
    "EcaConv",
    "EcaConvBlock",
    "EcaCsp",
    "Ffn",
    "LayerNorm",
    "Module",
    "ModuleList",
    "SimVss",
    "Stem",
    "Vss",
    "adaptive_kernel",
    "channel_map_phi",
    "conv_flops",
    "parameter",
    "strip_ratio",
]


def parameter(data) -> Tensor:
    t = Tensor(data, dtype=np.float32)
    t.requires_grad = True
    return t


class Module:
    """Minimal parameter container with hierarchical naming."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array: np.ndarray) -> None:
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def astype(self, dtype):
        """Cast the parameters in place and the buffers of this module tree to ``dtype``."""
        for p in self._params.values():
            p.data = p.data.astype(dtype, copy=False)
        for name, b in self._buffers.items():
            self.register_buffer(name, b.astype(dtype, copy=False))
        for child in self._children.values():
            child.astype(dtype)
        return self

    def num_params(self) -> int:
        return sum(int(p.data.size) for _, p in self.named_parameters())

    def train(self, mode: bool = True):
        object.__setattr__(self, "training", mode)
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def flops(self, hw):
        """(FLOPs, output (h, w)) of one image whose input is ``hw``.

        The one accounting rule: children are walked in registration order,
        each fed the previous child's output size, and their FLOPs summed; a
        module without children (a norm) counts 0. This holds because
        children are registered in data-flow order and only a child that
        consumes its predecessor's output changes the resolution, so a side
        branch (EcaCsp's shortcut, Head's box stack) sees the right size.
        Layers with arithmetic of their own override this.
        """
        total = 0
        for child in self._children.values():
            f, hw = child.flops(hw)
            total += f
        return total, hw


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        self._children[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


# ---- accounting helper ------------------------------------------------------

def conv_flops(c_in, c_out, kernel, groups, out_hw) -> int:
    """Multiply-adds x2 for one convolution; norms/activations ignored."""
    ho, wo = out_hw
    return 2 * kernel * kernel * (c_in // groups) * c_out * ho * wo


# ---- elementary layers ------------------------------------------------------

class Conv2dLayer(Module):
    """Square-kernel conv with "same" padding; every conv unit extends it and
    inherits its weight init, geometry, conv call and FLOP count."""

    def __init__(self, rng, c_in, c_out, kernel=1, stride=1, groups=1, bias=True):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.groups = kernel, stride, groups
        self.pad = kernel // 2
        bound = math.sqrt(1.0 / ((c_in // groups) * kernel * kernel))
        self.weight = parameter(rng.uniform(-bound, bound, (c_out, c_in // groups, kernel, kernel)))
        self.bias = parameter(np.zeros(c_out)) if bias else None

    def forward(self, x):
        return ops.conv2d(x, self.weight, self.bias, self.stride, self.pad, self.groups)

    def flops(self, hw):
        out = tuple((s + 2 * self.pad - self.kernel) // self.stride + 1 for s in hw)
        return conv_flops(self.c_in, self.c_out, self.kernel, self.groups, out), out


class BatchNorm(Module):
    """Batch norm, followed by a SiLU in the same taped op when ``silu`` is set."""

    def __init__(self, channels, silu=False):
        super().__init__()
        self.silu = silu
        self.gain = parameter(np.ones(channels))
        self.shift = parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x):
        return ops.batch_norm(x, self.gain, self.shift, self.running_mean, self.running_var,
                              self.training and not T.inferring(), self.silu)


class LayerNorm(Module):
    def __init__(self, channels):
        super().__init__()
        self.gain = parameter(np.ones(channels))
        self.shift = parameter(np.zeros(channels))

    def forward(self, x, gate=None):
        return ops.layer_norm(x, self.gain, self.shift, gate)


class ConvBnAct(Conv2dLayer):
    """Conv (no bias) -> batch norm -> SiLU, the detector's standard unit.

    Keeps: the norm's ``xhat``; the norm and SiLU are one taped op
    (:func:`ssmdet.ops.batch_norm`). A conv that reads the unit's output
    keeps the norm's recipe for it, not a copy; in backward the recipe
    derives the sigmoid and the output once, and leaves both for every
    later reader and for the norm's rule.
    """

    def __init__(self, rng, c_in, c_out, kernel=1, stride=1, groups=1):
        super().__init__(rng, c_in, c_out, kernel, stride, groups, bias=False)
        self.norm = BatchNorm(c_out, silu=True)

    def forward(self, x):
        return self.norm(super().forward(x))


# ---- channel attention ------------------------------------------------------

def strip_ratio(channels: int) -> float:
    """Fraction of post-conv channels routed through attention."""
    if channels < 1:
        raise ValueError(f"strip_ratio: channel count {channels} must be >= 1")
    return min(1.0, max(0.1, math.log2(channels) / 10.0))


# ECA-Net's fixed constants of the kernel-size mapping (Wang et al. 2020)
_ECA_GAMMA, _ECA_B = 2, 1


def adaptive_kernel(c_hat: int) -> int:
    """1D attention kernel size mapped from the attended channel count.

    (log2(c_hat) + b) / gamma with gamma = 2, b = 1, rounded down to the
    nearest odd integer, minimum 1.
    """
    if c_hat < 1:
        raise ValueError(f"adaptive_kernel: c_hat {c_hat} must be >= 1")
    v = (math.log2(c_hat) + _ECA_B) / _ECA_GAMMA
    k = int(math.floor(v))
    if k % 2 == 0:
        k -= 1
    return max(k, 1)


def channel_map_phi(k: int) -> int:
    """Inverse mapping: kernel size k covers 2^(gamma*k - b) channels."""
    if k < 1:
        raise ValueError(f"channel_map_phi: k {k} must be >= 1")
    return 2 ** (_ECA_GAMMA * k - _ECA_B)


class EcaConv(Conv2dLayer):
    """Convolution with channel attention on a stripped subset.

    Pipeline: conv -> split off the first c_hat channels -> global average
    pool -> 1D conv across the channel axis -> sigmoid -> scale the
    attended half -> concat with the bypass half -> channel shuffle.
    Everything after the conv is one taped op, :func:`ssmdet.ops.eca_attention`,
    which keeps the attended channels and the gates, not the conv output.
    c_hat = floor(sigma * c_out), clamped to >= 1; sigma and the 1D kernel
    default to the fixed 0.5 / 3 configuration, or derive from
    strip_ratio/adaptive_kernel when ``adaptive`` is set.
    """

    shuffle_groups = 2

    def __init__(self, rng, c_in, c_out, kernel=3, stride=1, sigma=0.5,
                 attn_kernel=3, adaptive=False, bias=True):
        if adaptive:
            sigma = strip_ratio(c_out)
        if not 0.0 < sigma <= 1.0:
            raise ValueError(f"EcaConv: sigma {sigma} must be in (0, 1]")
        c_hat = max(1, int(sigma * c_out))
        if adaptive:
            attn_kernel = adaptive_kernel(c_hat)
        if attn_kernel % 2 == 0 or attn_kernel < 1:
            raise ShapeError(f"EcaConv: attention kernel {attn_kernel} must be odd and >= 1")
        if c_out % self.shuffle_groups:
            raise ShapeError(f"EcaConv: channels {c_out} not divisible by "
                             f"shuffle groups {self.shuffle_groups}")
        super().__init__(rng, c_in, c_out, kernel, stride, bias=bias)
        self.sigma, self.c_hat, self.attn_k = sigma, c_hat, attn_kernel
        self.attn_weight = parameter(
            rng.uniform(-1.0, 1.0, (1, 1, attn_kernel)) / math.sqrt(attn_kernel))

    def forward(self, x):
        return ops.eca_attention(super().forward(x), self.attn_weight, self.c_hat,
                                 self.shuffle_groups)

    def flops(self, hw):
        conv, out = super().flops(hw)
        return conv + 2 * self.attn_k * self.c_hat, out


class EcaConvBlock(Module):
    """EcaConv wrapped with the BN + SiLU convention used in the network.

    Keeps: the norm's ``xhat``, with the SiLU inside the norm's op, as in
    :class:`ConvBnAct`; a conv that reads the output rebuilds it from that.
    """

    def __init__(self, rng, c_in, c_out, kernel=3, stride=1):
        super().__init__()
        self.eca = EcaConv(rng, c_in, c_out, kernel, stride, bias=False)
        self.norm = BatchNorm(c_out, silu=True)

    def forward(self, x):
        return self.norm(self.eca(x))


class EcaCsp(Module):
    """CSP-style block: stacked attention convs beside a depthwise shortcut.

    Main path adjusts width with a 1x1 conv then runs n units of two 3x3
    stride-1 EcaConv layers; the side path is a depthwise-separable conv
    of the input; the merge is concat -> channel shuffle (one taped op,
    :func:`ssmdet.ops.shuffle_concat`) -> 1x1 conv.
    """

    def __init__(self, rng, c_in, c_out, n=1):
        super().__init__()
        if c_out % 2:
            raise ShapeError(f"EcaCsp: output channels {c_out} must be even")
        c_mid = c_out // 2
        self.pre = ConvBnAct(rng, c_in, c_mid, 1)
        self.units = ModuleList(EcaConvBlock(rng, c_mid, c_mid, 3, 1) for _ in range(2 * n))
        self.dw = ConvBnAct(rng, c_in, c_in, 3, groups=c_in)
        self.pw = ConvBnAct(rng, c_in, c_mid, 1)
        self.post = ConvBnAct(rng, 2 * c_mid, c_out, 1)

    def forward(self, x):
        m = self.pre(x)
        for unit in self.units:
            m = unit(m)
        s = self.pw(self.dw(x))
        return self.post(ops.shuffle_concat([m, s], 2))


# ---- fusion blocks -----------------------------------------------------------

class Ffn(Module):
    """Two 1x1 convs with a SiLU in between; the hidden width is twice the input's."""

    def __init__(self, rng, channels):
        super().__init__()
        self.expand = Conv2dLayer(rng, channels, 2 * channels, 1)
        self.project = Conv2dLayer(rng, 2 * channels, channels, 1)

    def forward(self, x):
        return self.project(ops.silu(self.expand(x)))


class Vss(Module):
    """2D selective-scan mixer.

    1x1 expansion into a scan path and a gate, depthwise 3x3 + SiLU, a
    four-direction cross scan with one selective scan per direction,
    merge, layer norm times the SiLU of the gate (one taped op), and a
    1x1 projection back to the input width. delta/B/P are per-position
    projections of the scanned sequence; A stays diagonal via
    A = -exp(A_log); delta positivity comes from softplus with a bias
    seeded so delta starts in [0.001, 0.1].
    """

    DIRECTIONS = 4

    def __init__(self, rng, channels, state_size=16, ssm_ratio=2.0):
        super().__init__()
        d_inner = max(1, int(round(channels * ssm_ratio)))
        self.d_inner, self.state_size = d_inner, state_size
        self.dt_rank = max(1, d_inner // 16)
        r, n, k = self.dt_rank, state_size, self.DIRECTIONS

        self.in_proj = Conv2dLayer(rng, channels, 2 * d_inner, 1)
        self.dw = Conv2dLayer(rng, d_inner, d_inner, 3, groups=d_inner)

        bound = math.sqrt(1.0 / d_inner)
        self.x_proj_w = parameter(rng.uniform(-bound, bound, (k, r + 2 * n, d_inner)))
        dt_bound = math.sqrt(1.0 / r)
        self.dt_w = parameter(rng.uniform(-dt_bound, dt_bound, (k, d_inner, r)))
        dt_init = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), (k, d_inner)))
        self.dt_b = parameter(np.log(np.expm1(dt_init)))
        a_row = np.log(np.arange(1, n + 1, dtype=np.float64))
        self.A_log = parameter(np.tile(a_row, (k, d_inner, 1)))
        self.skip = parameter(np.ones((k, d_inner)))

        self.ln = LayerNorm(d_inner)
        self.out_proj = Conv2dLayer(rng, d_inner, channels, 1)

    def forward(self, x):
        h, w = x.shape[2:]
        u, z = ops.split_channels(self.in_proj(x), [self.d_inner, self.d_inner])
        u = ops.silu(self.dw(u))
        r, ns = self.dt_rank, self.state_size
        outs = []
        for k, seq in enumerate(cross_scan(u)):
            proj = ops.linear(seq, self.x_proj_w[k])
            dt_low = proj[..., :r]
            b_seq = proj[..., r:r + ns]
            p_seq = proj[..., r + ns:]
            delta = ops.softplus(ops.linear(dt_low, self.dt_w[k], self.dt_b[k]))
            a_diag = -T.exp(self.A_log[k])
            outs.append(ssm_scan(seq, delta, a_diag, b_seq, p_seq, self.skip[k]))
        return self.out_proj(self.ln(cross_merge(outs, h, w), z))

    def flops(self, hw):
        h, w = hw
        length, d, n, r = h * w, self.d_inner, self.state_size, self.dt_rank
        total = super().flops(hw)[0]                # in_proj, dw, out_proj
        per_dir = 2 * length * d * (r + 2 * n)      # x_proj
        per_dir += 2 * length * r * d               # dt projection
        per_dir += 3 * 2 * length * d * n           # state, input, output terms
        per_dir += 2 * length * d                   # skip term
        return total + self.DIRECTIONS * per_dir, hw


class SimVss(Module):
    """Fusion block: 1x1 expand + split, scan mixer and FFN residuals, re-join.

    The post-projection split keeps a passthrough half that bypasses both
    residual stages and re-joins before the output projection, so zeroing
    the VSS and FFN output layers reduces the block to its two
    projections.
    """

    def __init__(self, rng, channels, state_size=16, ssm_ratio=2.0):
        super().__init__()
        if channels % 2:
            raise ShapeError(f"SimVss: channels {channels} must be even to split")
        self.c_mid = channels // 2
        self.in_proj = ConvBnAct(rng, channels, channels, 1)
        self.ln = LayerNorm(self.c_mid)
        self.vss = Vss(rng, self.c_mid, state_size, ssm_ratio)
        self.bn = BatchNorm(self.c_mid)
        self.ffn = Ffn(rng, self.c_mid)
        self.out_proj = Conv2dLayer(rng, channels, channels, 1)

    def forward(self, x):
        t = self.in_proj(x)
        main, passthrough = ops.split_channels(t, [self.c_mid, self.c_mid])
        z = self.vss(self.ln(main)) + main
        z = z + self.ffn(self.bn(z))
        return self.out_proj(ops.concat_channels([z, passthrough]))


class Stem(Module):
    """Two stride-2 conv+BN+SiLU units: [N,3,H,W] -> [N,c_out,H/4,W/4]."""

    def __init__(self, rng, c_in, c_hidden, c_out):
        super().__init__()
        self.conv1 = ConvBnAct(rng, c_in, c_hidden, 3, stride=2)
        self.conv2 = ConvBnAct(rng, c_hidden, c_out, 3, stride=2)

    def forward(self, images):
        h, w = images.shape[2:]
        if h % 4 or w % 4:
            raise ShapeError(f"stem: input {h}x{w} must be divisible by 4")
        return self.conv2(self.conv1(images))
