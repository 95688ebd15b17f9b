"""Desk-scale training: SGD with momentum, warmup + cosine decay, and a
one-to-one center-cell assignment that keeps decoding suppression-free.

Each ground-truth box is assigned to exactly one cell: the cell holding
its center at the pyramid level whose stride best matches the box size.
Class maps train with binary cross-entropy (sum over all cells divided by
the positive count); assigned cells add a (1 - IoU) box term on the
decoded box, evaluated over each level's whole map and masked.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import tensor as T
from .config import RunConfig
from .model import Detector
from .ops import softplus
from .tensor import Tape, Tensor

__all__ = ["TrainingDiverged", "SgdMomentum", "detection_loss", "lr_at", "train_toy"]

_CLS_WEIGHT = 1.0
_BOX_WEIGHT = 2.5


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step


def lr_at(epoch_frac: float, cfg: RunConfig) -> float:
    """Linear warmup from 0 over warmup_epochs, then cosine to lr_final."""
    if cfg.warmup_epochs > 0 and epoch_frac < cfg.warmup_epochs:
        return cfg.lr_initial * epoch_frac / cfg.warmup_epochs
    span = max(cfg.epochs - cfg.warmup_epochs, 1e-9)
    t = min(max((epoch_frac - cfg.warmup_epochs) / span, 0.0), 1.0)
    return cfg.lr_final + 0.5 * (cfg.lr_initial - cfg.lr_final) * (1.0 + math.cos(math.pi * t))


class SgdMomentum:
    def __init__(self, params, momentum: float):
        self.params = list(params)
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= (lr * v).astype(p.data.dtype, copy=False)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def _pick_level(box, strides) -> int:
    w = box[2] - box[0]
    h = box[3] - box[1]
    size = math.sqrt(max(w * h, 1e-9))
    # a box ~4 cells wide sits comfortably at its level
    return min(range(len(strides)),
               key=lambda i: abs(math.log2(size / (4.0 * strides[i]))))


def assign_targets(batch_boxes, strides, grids, num_classes, dtype):
    """Build per-level class targets and the positive-cell list for a batch.

    Returns (cls_targets, positives) where cls_targets[level] is a
    [B, nc, h, w] array and positives are
    (level, image, i, j, class_id, gt_box) tuples. A cell takes at most
    one ground truth; later collisions are dropped. A class id outside
    [0, num_classes) raises ValueError.
    """
    nb = len(batch_boxes)
    cls_targets = [np.zeros((nb, num_classes, gh, gw), dtype=dtype) for gh, gw in grids]
    occupied = set()
    positives = []
    for n, boxes in enumerate(batch_boxes):
        for cls, box in boxes:
            if not 0 <= cls < num_classes:
                raise ValueError(f"batch image {n} has class id {cls}, outside [0, {num_classes})")
            lvl = _pick_level(box, strides)
            stride = strides[lvl]
            gh, gw = grids[lvl]
            cx = 0.5 * (box[0] + box[2])
            cy = 0.5 * (box[1] + box[3])
            j = min(max(int(cx / stride), 0), gw - 1)
            i = min(max(int(cy / stride), 0), gh - 1)
            key = (lvl, n, i, j)
            if key in occupied:
                continue
            occupied.add(key)
            cls_targets[lvl][n, cls, i, j] = 1.0
            positives.append((lvl, n, i, j, cls, box))
    return cls_targets, positives


def _box_iou_loss(reg_map: Tensor, stride: int, gt: np.ndarray):
    """(1 - IoU) between each cell's decoded box and ``gt`` ([B, 4, h, w])."""
    cy, cx = (np.indices(reg_map.shape[2:], dtype=reg_map.dtype) + 0.5) * stride
    d = reg_map * float(stride)
    x1 = cx - d[:, 0:1]
    y1 = cy - d[:, 1:2]
    x2 = d[:, 2:3] + cx
    y2 = d[:, 3:4] + cy
    gx1, gy1, gx2, gy2 = gt[:, 0:1], gt[:, 1:2], gt[:, 2:3], gt[:, 3:4]
    iw = T.maximum(T.minimum(x2, gx2) - T.maximum(x1, gx1), 0.0)
    ih = T.maximum(T.minimum(y2, gy2) - T.maximum(y1, gy1), 0.0)
    inter = iw * ih
    area_p = (x2 - x1) * (y2 - y1)
    area_g = (gx2 - gx1) * (gy2 - gy1)
    iou = inter / (area_p + area_g - inter + 1e-9)
    return 1.0 - iou


def detection_loss(maps, batch_boxes, strides, num_classes: int):
    """Total, classification, and box losses for one batch.

    ``maps`` are the per-level (cls, reg) tensors from the detector;
    ``batch_boxes`` is a list (per image) of (class_id, box) pairs. The box
    term is taken over whole maps and masked to the assigned cells.
    """
    grids = [cls.shape[2:] for cls, _ in maps]
    dtype = maps[0][0].dtype
    cls_targets, positives = assign_targets(batch_boxes, strides, grids, num_classes, dtype)
    num_pos = max(len(positives), 1)
    box_targets = [np.zeros((len(batch_boxes), 4, gh, gw), dtype=dtype) for gh, gw in grids]
    for lvl, n, i, j, _, box in positives:
        box_targets[lvl][n, :, i, j] = box

    cls_loss = box_loss = 0.0
    for (cls_map, reg_map), stride, target, gt in zip(maps, strides, cls_targets, box_targets):
        # bce_with_logits(z, t) == softplus(z) - z * t
        cls_loss += (softplus(cls_map) - cls_map * Tensor(target)).sum()
        # an assigned cell holds exactly one class target, so this is its 0/1 mask
        mask = Tensor(target.sum(axis=1, keepdims=True))
        box_loss += (_box_iou_loss(reg_map, stride, gt) * mask).sum()
    cls_loss = cls_loss * (1.0 / num_pos)
    box_loss = box_loss * (1.0 / num_pos)

    total = cls_loss * _CLS_WEIGHT + box_loss * _BOX_WEIGHT
    return total, float(cls_loss.item()), float(box_loss.item())


def train_toy(model: Detector, dataset, cfg: RunConfig, write_outputs: bool = True):
    """Overfit-scale training loop; returns one record per epoch.

    ``dataset`` is a list of (image [3,H,W] float array, boxes) pairs; a
    class id outside [0, num_classes) raises ValueError. Aborts with
    :class:`TrainingDiverged` if the loss goes non-finite.
    """
    if not dataset:
        raise ValueError("train_toy: empty dataset")
    for k, (_, boxes) in enumerate(dataset):
        bad = [cls for cls, _ in boxes if not 0 <= cls < cfg.num_classes]
        if bad:
            raise ValueError(f"dataset image {k} has class id {bad[0]}, outside [0, {cfg.num_classes})")
    model.train()
    opt = SgdMomentum(model.parameters(), cfg.momentum)
    rng = np.random.default_rng(cfg.seed)
    iters_per_epoch = math.ceil(len(dataset) / cfg.batch_size)
    records = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        sums = np.zeros(3)
        lr = cfg.lr_initial
        for it in range(iters_per_epoch):
            idx = order[it * cfg.batch_size:(it + 1) * cfg.batch_size]
            images = Tensor(np.stack([dataset[k][0] for k in idx]), dtype=model.dtype)
            boxes = [dataset[k][1] for k in idx]
            lr = lr_at(epoch + it / iters_per_epoch, cfg)
            opt.zero_grad()
            with Tape() as tape:
                _, maps = model(images)
                loss, cls_val, box_val = detection_loss(
                    maps, boxes, model.STRIDES, cfg.num_classes)
            if not math.isfinite(loss.item()):
                raise TrainingDiverged(step)
            tape.backward(loss)
            opt.step(lr)
            sums += (loss.item(), cls_val, box_val)
            step += 1
        records.append({
            "epoch": epoch,
            "lr": lr,
            "loss": sums[0] / iters_per_epoch,
            "cls": sums[1] / iters_per_epoch,
            "box": sums[2] / iters_per_epoch,
        })
    if write_outputs:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["version 1"]
        lines += [
            f"epoch {r['epoch']} lr {r['lr']:.6g} loss {r['loss']:.6g} "
            f"cls {r['cls']:.6g} box {r['box']:.6g}" for r in records
        ]
        (out / "metrics.txt").write_text("\n".join(lines) + "\n")
        model.save_checkpoint(out / "model.ckpt")
    return records
