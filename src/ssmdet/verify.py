"""Registry of gradient checks for every differentiable operator and block,
and for the training loss.

Each entry builds a fresh 64-bit micro instance from a seed and runs the
central finite-difference comparison. The CLI `grad-check` subcommand and
the acceptance suite both drive this registry.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .blocks import ConvBnAct, EcaConv, EcaConvBlock, EcaCsp, Ffn, SimVss, Stem, Vss
from .gradcheck import GradCheckReport, grad_check
from .model import Head
from .ssm import ssm_scan
from .tensor import Tensor
from .train import assign_targets, detection_loss

__all__ = ["GRAD_CHECKS", "run_grad_suite"]

_F64 = np.float64


def _t(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), dtype=_F64)


def _check_conv2d(seed, **kw):
    rng = np.random.default_rng(seed)
    x, w, b = _t(rng, 2, 3, 6, 6), _t(rng, 4, 3, 3, 3), _t(rng, 4)
    return grad_check(lambda *a: ops.conv2d(a[0], a[1], a[2], stride=2, padding=1),
                      [x, w, b], **kw)


def _check_conv2d_depthwise(seed, **kw):
    rng = np.random.default_rng(seed)
    x, w = _t(rng, 2, 4, 5, 5), _t(rng, 4, 1, 3, 3)
    return grad_check(lambda *a: ops.conv2d(a[0], a[1], None, padding=1, groups=4),
                      [x, w], **kw)


def _check_batch_norm(seed, training=True, silu=False, **kw):
    rng = np.random.default_rng(seed)
    x, gain, shift = _t(rng, 3, 4, 5, 5), _t(rng, 4), _t(rng, 4)
    rm, rv = rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)
    return grad_check(
        lambda *a: ops.batch_norm(a[0], a[1], a[2], rm, rv, training=training, silu=silu),
        [x, gain, shift], **kw)


def _check_layer_norm(seed, gate=False, **kw):
    rng = np.random.default_rng(seed)
    args = [_t(rng, 2, 6, 4, 4), _t(rng, 6), _t(rng, 6)] + ([_t(rng, 2, 6, 4, 4)] if gate else [])
    return grad_check(lambda *a: ops.layer_norm(*a), args, **kw)


def _check_activations(seed, **kw):
    rng = np.random.default_rng(seed)
    x = _t(rng, 4, 7)
    return grad_check(
        lambda a: ops.softplus(ops.silu(ops.sigmoid(a))), [x], **kw)


def _check_upsample(seed, **kw):
    rng = np.random.default_rng(seed)
    x = _t(rng, 2, 3, 4, 4)
    return grad_check(ops.upsample_nearest, [x], **kw)


def _check_shuffle_split(seed, **kw):
    rng = np.random.default_rng(seed)
    x = _t(rng, 2, 6, 3, 3)

    def closure(a):
        parts = ops.split_channels(ops.channel_shuffle(a, 3), [2, 4])
        return ops.concat_channels([parts[1] * 2.0, parts[0]])

    return grad_check(closure, [x], **kw)


def _check_shuffle_concat(seed, **kw):
    rng = np.random.default_rng(seed)
    parts = [_t(rng, 2, c, 2, 3) for c in (3, 1, 4)]
    return grad_check(lambda *a: ops.shuffle_concat(a, 4), parts, **kw)


def _check_eca_attention(seed, **kw):
    rng = np.random.default_rng(seed)
    y, w = _t(rng, 2, 8, 3, 3), _t(rng, 1, 1, 3)
    # 3 of 8 channels attended: the parts straddle the shuffle's groups
    return grad_check(lambda *a: ops.eca_attention(a[0], a[1], 3, 2), [y, w], **kw)


def _check_linear(seed, **kw):
    rng = np.random.default_rng(seed)
    x, w, b = _t(rng, 3, 5, 6), _t(rng, 4, 6), _t(rng, 4)
    return grad_check(lambda *a: ops.linear(a[0], a[1], a[2]), [x, w, b], **kw)


def _check_scan(seed, **kw):
    rng = np.random.default_rng(seed)
    bt, length, d, n = 2, 6, 3, 4
    x = _t(rng, bt, length, d)
    delta = Tensor(rng.uniform(0.05, 0.5, (bt, length, d)))
    a_diag = Tensor(rng.uniform(-2.0, -0.1, (d, n)))
    b_seq, p_seq = _t(rng, bt, length, n), _t(rng, bt, length, n)
    q = _t(rng, d)
    return grad_check(
        lambda *a: ssm_scan(a[0], a[1], a[2], a[3], a[4], a[5], block_len=3),
        [x, delta, a_diag, b_seq, p_seq, q], **kw)


def _check_block(build, x_shape, names, readout=lambda y: y):
    """A check that builds a block (in train mode), casts it to float64, draws
    ``x`` of ``x_shape`` and checks ``x`` plus the named parameters through ``readout``."""
    def check(seed, **kw):
        rng = np.random.default_rng(seed)
        m = build(rng).astype(_F64)
        x = _t(rng, *x_shape)
        params = dict(m.named_parameters())
        return grad_check(lambda *a: readout(m(a[0])), [x] + [params[n] for n in names], **kw)
    return check


def _head_readout(maps):
    cls_map, reg_map = maps
    return cls_map + reg_map.sum(axis=1, keepdims=True)


def _check_detection_loss(seed, **kw):
    rng = np.random.default_rng(seed)
    strides, grids = (8, 16, 32), ((4, 4), (2, 2), (1, 1))
    # boxes ~4 strides wide: one per level in image 0, one in image 1
    batch = [[(0, (2.0, 3.0, 33.0, 31.0)), (1, (-20.0, -14.0, 44.0, 50.0)),
              (1, (-48.0, -52.0, 80.0, 76.0))],
             [(1, (10.0, 12.0, 42.0, 40.0))]]
    cls_maps = [rng.standard_normal((2, 2, gh, gw)) for gh, gw in grids]
    reg_maps = [rng.uniform(0.2, 2.0, (2, 4, gh, gw)) for gh, gw in grids]
    # each decoded edge sits 0.05-0.5 px off its ground-truth edge, so no
    # finite-difference step crosses a min/max kink of the IoU
    for lvl, n, i, j, _, (x1, y1, x2, y2) in assign_targets(batch, strides, grids, 2, _F64)[1]:
        cx, cy = (j + 0.5) * strides[lvl], (i + 0.5) * strides[lvl]
        off = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.05, 0.5, 4)
        reg_maps[lvl][n, :, i, j] = (np.array([cx - x1, cy - y1, x2 - cx, y2 - cy]) + off) / strides[lvl]
    inputs = [Tensor(m) for pair in zip(cls_maps, reg_maps) for m in pair]
    return grad_check(
        lambda *a: detection_loss(list(zip(a[0::2], a[1::2])), batch, strides, 2)[0],
        inputs, **kw)


GRAD_CHECKS = {
    "conv2d": _check_conv2d,
    "conv2d_depthwise": _check_conv2d_depthwise,
    "batch_norm": _check_batch_norm,
    "batch_norm_eval": lambda seed, **kw: _check_batch_norm(seed, training=False, **kw),
    "batch_norm_silu": lambda seed, **kw: _check_batch_norm(seed, silu=True, **kw),
    "batch_norm_silu_eval": lambda seed, **kw: _check_batch_norm(seed, training=False,
                                                                 silu=True, **kw),
    "layer_norm": _check_layer_norm,
    "layer_norm_gate": lambda seed, **kw: _check_layer_norm(seed, gate=True, **kw),
    "activations": _check_activations,
    "upsample": _check_upsample,
    "shuffle_split": _check_shuffle_split,
    "shuffle_concat": _check_shuffle_concat,
    "eca_attention": _check_eca_attention,
    "linear": _check_linear,
    "scan": _check_scan,
    "conv_bn_act": _check_block(lambda rng: ConvBnAct(rng, 4, 6, 3, stride=2), (2, 4, 6, 6),
                                ["weight", "norm.gain", "norm.shift"]),
    # Stem is two chained ConvBnAct: the second conv's weight gradient reads
    # the first unit's output rebuilt from its norm
    "conv_bn_act_chain": _check_block(
        lambda rng: Stem(rng, 3, 4, 6), (2, 3, 12, 12),
        ["conv1.weight", "conv2.weight", "conv1.norm.gain", "conv2.norm.gain",
         "conv1.norm.shift", "conv2.norm.shift"]),
    "eca_conv": _check_block(lambda rng: EcaConv(rng, 4, 8), (1, 4, 5, 5),
                             ["weight", "attn_weight", "bias"]),
    "eca_conv_block": _check_block(lambda rng: EcaConvBlock(rng, 4, 6, stride=2), (2, 4, 6, 6),
                                   ["eca.weight", "norm.gain", "norm.shift"]),
    "eca_csp": _check_block(lambda rng: EcaCsp(rng, 8, 8, n=1), (1, 8, 6, 6),
                            ["pre.weight", "units.0.eca.weight"]),
    "ffn": _check_block(lambda rng: Ffn(rng, 6), (2, 6, 3, 3),
                        ["expand.weight", "project.weight"]),
    "vss": _check_block(lambda rng: Vss(rng, 4, state_size=4), (1, 4, 4, 4),
                        ["A_log", "x_proj_w", "out_proj.weight"]),
    "simvss": _check_block(lambda rng: SimVss(rng, 8, state_size=4), (1, 8, 4, 4),
                           ["vss.skip", "out_proj.weight"]),
    "head": _check_block(lambda rng: Head(rng, 6, 6, num_classes=3), (1, 6, 4, 4),
                         ["cls_out.weight", "reg_out.weight"], _head_readout),
    "detection_loss": _check_detection_loss,
}


def run_grad_suite(blocks=None, seeds=range(10), tolerance: float = 1e-4,
                   max_elements: int = 32) -> dict[str, list[GradCheckReport]]:
    """Run the selected checks over the given seeds; returns reports per block."""
    names = list(GRAD_CHECKS) if blocks is None else list(blocks)
    results: dict[str, list[GradCheckReport]] = {}
    for name in names:
        fn = GRAD_CHECKS[name]
        results[name] = [fn(seed, tolerance=tolerance, max_elements=max_elements)
                         for seed in seeds]
    return results
