"""Detector assembly: stem, attention-conv backbone, scan fusion layer,
PAFPN neck, and an anchor-free decoupled head decoded without NMS.

Stride ladder is 4 (stem) -> 8 -> 16 -> 32; the head emits per-level
class logits [N, nc, h, w] and box maps [N, 4, h, w] holding
left-top-right-bottom distances in stride units, kept non-negative by a
softplus. No suppression is applied at decode time; detections rank by
confidence only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops, tensorio
from .blocks import (
    ConvBnAct,
    Conv2dLayer,
    EcaConvBlock,
    EcaCsp,
    Module,
    ModuleList,
    SimVss,
    Stem,
)
from .tensor import ShapeError, Tensor, inference

__all__ = [
    "CheckpointMismatch",
    "Detection",
    "Detector",
    "FeaturePyramid",
    "ScaleSpec",
    "check_input_size",
    "decode",
    "get_scale",
]


class CheckpointMismatch(ValueError):
    """A checkpoint lacks a meta line, has a meta value that does not parse,
    or its tensor names differ from the model's state names."""


# Width/depth multipliers per scale over the base channels and depths; the
# resulting stage widths are recorded by `Detector.summary`.
_SCALE_TABLE = {
    "n": (0.25, 0.33),
    "s": (0.50, 0.33),
    "m": (0.75, 0.67),
}
_BASE_CHANNELS = (64, 128, 256, 512, 1024)
_BASE_DEPTHS = (3, 6, 6)
_NECK_BASE_DEPTH = 3
# Calibrated so scale n lands on the 4.0M-parameter / 9-GFLOP budget (fusion
# contributes ~0.9M params / ~2.2G at 640^2); the fusion blocks keep their
# default state size 16 and FFN ratio 2.
_SSM_RATIO = 4.0


def _even(v: float) -> int:
    return max(2, int(round(v / 2.0)) * 2)


@dataclass(frozen=True)
class ScaleSpec:
    """Width/depth multipliers and derived per-stage channel counts."""

    name: str
    width: float
    depth: float
    num_classes: int = 3

    def __post_init__(self):
        if self.name not in _SCALE_TABLE:
            raise ValueError(f"unknown scale {self.name!r}; expected one of {sorted(_SCALE_TABLE)}")
        if not all(math.isfinite(v) and v > 0 for v in (self.width, self.depth)):
            raise ValueError(f"scale width {self.width} and depth {self.depth} must be finite "
                             "and positive")
        if self.num_classes < 1:
            raise ValueError(f"num_classes {self.num_classes} must be >= 1")

    def channels(self) -> tuple:
        return tuple(_even(self.width * c) for c in _BASE_CHANNELS)

    def depths(self) -> tuple:
        return tuple(max(1, round(self.depth * d)) for d in _BASE_DEPTHS)

    def neck_depth(self) -> int:
        return max(1, round(self.depth * _NECK_BASE_DEPTH))


def get_scale(name: str, num_classes: int = 3,
              width_override: float | None = None,
              depth_override: float | None = None) -> ScaleSpec:
    key = name.lower()
    if key not in _SCALE_TABLE:
        raise ValueError(f"unknown scale {name!r}; expected one of {sorted(_SCALE_TABLE)}")
    width, depth = _SCALE_TABLE[key]
    return ScaleSpec(
        name=key,
        width=width_override if width_override is not None else width,
        depth=depth_override if depth_override is not None else depth,
        num_classes=num_classes,
    )


def check_input_size(h: int, w: int) -> None:
    """Reject an input height or width that is not a positive multiple of the
    coarsest stride, 32."""
    if h < 32 or w < 32 or h % 32 or w % 32:
        pad = f"; pad by {(-h) % 32}x{(-w) % 32}" if h > 0 and w > 0 else ""
        raise ShapeError(f"input {h}x{w} must be positive and divisible by 32{pad}")


@dataclass
class FeaturePyramid:
    p3: Tensor
    p4: Tensor
    p5: Tensor


@dataclass
class Detection:
    box: tuple          # (x1, y1, x2, y2) in input pixels
    score: float
    class_id: int


class Head(Module):
    """Decoupled classification / box-distance branches for one level."""

    def __init__(self, rng, c_in, c_hidden, num_classes):
        super().__init__()
        self.num_classes = num_classes
        self.cls_stack = ModuleList([
            ConvBnAct(rng, c_in, c_hidden, 3),
            ConvBnAct(rng, c_hidden, c_hidden, 3),
        ])
        self.cls_out = Conv2dLayer(rng, c_hidden, num_classes, 1)
        # start every cell near a 1% objectness prior so the sparse positive
        # cells carry the early gradient signal instead of the background
        self.cls_out.bias.data[:] = -math.log(99.0)
        self.reg_stack = ModuleList([
            ConvBnAct(rng, c_in, c_hidden, 3),
            ConvBnAct(rng, c_hidden, c_hidden, 3),
        ])
        self.reg_out = Conv2dLayer(rng, c_hidden, 4, 1)

    def forward(self, x):
        c = x
        for m in self.cls_stack:
            c = m(c)
        r = x
        for m in self.reg_stack:
            r = m(r)
        return self.cls_out(c), ops.softplus(self.reg_out(r))


class Detector(Module):
    """Full detector for one :class:`ScaleSpec`; deterministic per seed."""

    STRIDES = (8, 16, 32)
    MAX_DETS = 300           # detections kept per image by ``detect``

    def __init__(self, spec: ScaleSpec, seed: int = 0, dtype=np.float32):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.spec = spec
        c1, c2, c3, c4, c5 = spec.channels()
        n3, n4, n5 = spec.depths()
        nn = spec.neck_depth()

        self.stem = Stem(rng, 3, c1, c2)
        self.down3 = EcaConvBlock(rng, c2, c3, 3, 2)
        self.csp3 = EcaCsp(rng, c3, c3, n3)
        self.down4 = EcaConvBlock(rng, c3, c4, 3, 2)
        self.csp4 = EcaCsp(rng, c4, c4, n4)
        self.down5 = EcaConvBlock(rng, c4, c5, 3, 2)
        self.csp5 = EcaCsp(rng, c5, c5, n5)

        self.fuse3 = SimVss(rng, c3, ssm_ratio=_SSM_RATIO)
        self.fuse4 = SimVss(rng, c4, ssm_ratio=_SSM_RATIO)
        self.fuse5 = SimVss(rng, c5, ssm_ratio=_SSM_RATIO)

        self.lat5 = ConvBnAct(rng, c5, c4, 1)
        self.csp_t4 = EcaCsp(rng, 2 * c4, c4, nn)
        self.lat4 = ConvBnAct(rng, c4, c3, 1)
        self.csp_t3 = EcaCsp(rng, 2 * c3, c3, nn)
        self.down_n3 = ConvBnAct(rng, c3, c3, 3, 2)
        self.csp_n4 = EcaCsp(rng, c3 + c4, c4, nn)
        self.down_n4 = ConvBnAct(rng, c4, c4, 3, 2)
        self.csp_n5 = EcaCsp(rng, c4 + c5, c5, nn)

        head_width = c3
        self.heads = ModuleList(
            Head(rng, c_level, head_width, spec.num_classes)
            for c_level in (c3, c4, c5))
        self.astype(dtype)

    @property
    def dtype(self):
        """The parameters' float type, read from the stem's first weight."""
        return self.stem.conv1.weight.data.dtype

    def forward(self, images: Tensor):
        check_input_size(*images.shape[2:])
        x = self.stem(images)
        b3 = self.csp3(self.down3(x))
        b4 = self.csp4(self.down4(b3))
        b5 = self.csp5(self.down5(b4))

        f3, f4, f5 = self.fuse3(b3), self.fuse4(b4), self.fuse5(b5)

        t4 = self.csp_t4(ops.concat_channels([ops.upsample_nearest(self.lat5(f5)), f4]))
        t3 = self.csp_t3(ops.concat_channels([ops.upsample_nearest(self.lat4(t4)), f3]))
        n4 = self.csp_n4(ops.concat_channels([self.down_n3(t3), t4]))
        n5 = self.csp_n5(ops.concat_channels([self.down_n4(n4), f5]))

        pyramid = FeaturePyramid(t3, n4, n5)
        maps = [head(feat) for head, feat in zip(self.heads, (t3, n4, n5))]
        return pyramid, maps

    # ---- inference ------------------------------------------------------
    def detect(self, images: Tensor, conf_threshold: float = 0.25) -> list[list[Detection]]:
        """Decoded detections per image, computed as in eval mode; the model is
        not written, so concurrent calls on one model are safe."""
        with inference():
            _, maps = self.forward(images)
        frame = (images.shape[2], images.shape[3])
        out = []
        for i in range(images.shape[0]):
            per_level = [(cls.data[i], reg.data[i]) for cls, reg in maps]
            out.append(decode(per_level, self.STRIDES, conf_threshold, self.MAX_DETS, frame))
        return out

    # ---- accounting -------------------------------------------------------
    def count_params(self) -> int:
        return self.num_params()

    def count_flops(self, input_size: int = 640) -> int:
        return sum(row[-1] for row in self._layer_table(input_size))

    def flops(self, hw):
        """`count_flops` of a square input, and the stride-8 grid. The pyramid
        is not one chain of children, so the rows of `_layer_table` are summed."""
        if hw[0] != hw[1]:
            raise ShapeError(f"flops: input {hw} must be square")
        return self.count_flops(hw[0]), (hw[0] // 8, hw[1] // 8)

    def _layer_table(self, input_size: int):
        """Rows (part, name, module, out_channels, out_hw, flops) in forward order."""
        check_input_size(input_size, input_size)
        c1, c2, c3, c4, c5 = self.spec.channels()
        rows = []

        def step(part, name, module, c_out, in_hw):
            flops, out_hw = module.flops(in_hw)
            rows.append((part, name, module, c_out, out_hw, flops))
            return out_hw

        hw4 = step("stem", "stem", self.stem, c2, (input_size, input_size))
        hw8 = step("backbone", "down3", self.down3, c3, hw4)
        step("backbone", "csp3", self.csp3, c3, hw8)
        hw16 = step("backbone", "down4", self.down4, c4, hw8)
        step("backbone", "csp4", self.csp4, c4, hw16)
        hw32 = step("backbone", "down5", self.down5, c5, hw16)
        step("backbone", "csp5", self.csp5, c5, hw32)
        step("fusion", "fuse3", self.fuse3, c3, hw8)
        step("fusion", "fuse4", self.fuse4, c4, hw16)
        step("fusion", "fuse5", self.fuse5, c5, hw32)
        step("neck", "lat5", self.lat5, c4, hw32)
        step("neck", "csp_t4", self.csp_t4, c4, hw16)
        step("neck", "lat4", self.lat4, c3, hw16)
        step("neck", "csp_t3", self.csp_t3, c3, hw8)
        step("neck", "down_n3", self.down_n3, c3, hw8)
        step("neck", "csp_n4", self.csp_n4, c4, hw16)
        step("neck", "down_n4", self.down_n4, c4, hw16)
        step("neck", "csp_n5", self.csp_n5, c5, hw32)
        nc = self.spec.num_classes
        for head, g in zip(self.heads, (hw8, hw16, hw32)):
            step("head", f"head_p{int(math.log2(input_size // g[0]))}", head, nc + 4, g)
        return rows

    def summary(self, input_size: int = 640) -> str:
        ch = self.spec.channels()
        lines = [
            "version 1",
            f"scale {self.spec.name} width {self.spec.width} depth {self.spec.depth}",
            f"stage_channels {' '.join(str(c) for c in ch)}",
            f"num_classes {self.spec.num_classes}",
            f"input_size {input_size}",
            "layer name out_shape params flops",
        ]
        for _, name, module, c_out, (oh, ow), flops in self._layer_table(input_size):
            lines.append(f"layer {name} {c_out}x{oh}x{ow} {module.num_params()} {flops}")
        lines.append(f"total_params {self.count_params()}")
        lines.append(f"total_flops {self.count_flops(input_size)}")
        return "\n".join(lines) + "\n"

    # ---- persistence --------------------------------------------------------
    def state_arrays(self) -> dict:
        state = {name: p.data for name, p in self.named_parameters()}
        state.update({name: b for name, b in self.named_buffers()})
        return state

    def save_checkpoint(self, path) -> None:
        meta = {
            "scale": self.spec.name,
            "width": repr(self.spec.width),
            "depth": repr(self.spec.depth),
            "num_classes": str(self.spec.num_classes),
        }
        tensorio.save_checkpoint(path, self.state_arrays(), meta)

    @classmethod
    def from_checkpoint(cls, path) -> "Detector":
        meta, tensors = tensorio.load_checkpoint(path)
        missing = [k for k in ("scale", "width", "depth", "num_classes") if k not in meta]
        if missing:
            raise CheckpointMismatch(f"checkpoint has no meta lines {missing}")
        fields = {}
        for key, parse in (("width", float), ("depth", float), ("num_classes", int)):
            try:
                fields[key] = parse(meta[key])
            except ValueError:
                raise CheckpointMismatch(f"checkpoint meta {key} {meta[key]!r} does not parse "
                                         f"as {parse.__name__}") from None
        model = cls(ScaleSpec(meta["scale"], **fields))
        model.load_state(tensors)
        return model

    def load_state(self, tensors: dict) -> None:
        own = self.state_arrays()
        missing = sorted(set(own) - set(tensors))
        unexpected = sorted(set(tensors) - set(own))
        if missing or unexpected:
            raise CheckpointMismatch(f"checkpoint has {len(missing)} missing entries {missing[:1]} "
                                     f"and {len(unexpected)} unexpected {unexpected[:1]}")
        for name, arr in own.items():
            loaded = tensors[name]
            if loaded.shape != arr.shape:
                raise ShapeError(f"checkpoint entry {name}: shape {loaded.shape} != {arr.shape}")
            arr[...] = loaded.astype(arr.dtype, copy=False)


# ---- decoding ---------------------------------------------------------------

def decode(per_level_maps, strides, conf_threshold: float, max_dets: int,
           frame_hw) -> list[Detection]:
    """Rank-by-confidence decode of one image's head maps, no suppression.

    Each cell proposes its best class; the box is the cell center pushed
    out by the four predicted distances (in stride units). Boxes clamp to
    the input frame.
    """
    if not 0.0 <= conf_threshold <= 1.0:
        raise ValueError(f"conf_threshold {conf_threshold} must be in [0, 1]")
    fh, fw = frame_hw
    scores, classes, boxes = [], [], []
    for (cls_map, reg_map), stride in zip(per_level_maps, strides):
        scores_all = 1.0 / (1.0 + np.exp(-cls_map.astype(np.float64)))
        best_score = scores_all.max(axis=0)
        ii, jj = np.nonzero(best_score >= conf_threshold)
        cx = (jj + 0.5) * stride
        cy = (ii + 0.5) * stride
        dist = reg_map[:, ii, jj].astype(np.float64) * stride
        scores.append(best_score[ii, jj])
        classes.append(scores_all.argmax(axis=0)[ii, jj])
        boxes.append(np.stack([np.clip(cx - dist[0], 0.0, fw), np.clip(cy - dist[1], 0.0, fh),
                               np.clip(cx + dist[2], 0.0, fw), np.clip(cy + dist[3], 0.0, fh)], 1))
    if not scores:
        return []
    score = np.concatenate(scores)
    # a stable sort keeps equal scores in level-then-row-major order
    top = np.argsort(-score, kind="stable")[:max_dets]
    return [Detection(box=tuple(b), score=s, class_id=c) for b, s, c in zip(
        np.concatenate(boxes)[top].tolist(), score[top].tolist(), np.concatenate(classes)[top].tolist())]

