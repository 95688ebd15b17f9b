"""Output checks for the benchmark, written apart from the code they check.

Each check raises :class:`CheckFailed` with a one-line reason. The
references here are independent computations or required properties,
never a saved copy of an earlier output:

- ``check_scan_calls``: every ``ssm_scan`` call of one forward against
  ``selective_scan_seq`` (method "taylor", B/P broadcast over channels);
- ``check_maps_f64``: float32 head maps against a float64 ``Detector``
  built from the same seed;
- ``decode_numpy`` / ``check_same_detections``: an own vectorized decode of
  the head maps against ``Detector.detect``;
- ``check_detection_properties``: order, threshold, count, class ids and
  box geometry of every image's detections;
- ``map_bruteforce`` / ``check_map``: an own evaluator of the same
  protocol as ``ssmdet.metrics.eval_map`` (greedy matching per class and
  image in score order, 101-point interpolated AP, P/R at IoU 0.5 and
  confidence 0.25);
- ``check_gradient_fd``: a float64 directional finite difference of the
  detection loss against the taped gradient of every parameter, with the
  error measured against the norm of the taped gradient.
"""

from __future__ import annotations

import math

import numpy as np

from ssmdet import blocks
from ssmdet.model import Detector
from ssmdet.ssm import SSMParams, selective_scan_seq
from ssmdet.tensor import Tape, Tensor
from ssmdet.train import detection_loss

# ssm_scan runs in float32 against a float64 sequential reference: the
# error is f32 rounding carried through the recurrence, a few ulps of the
# largest output. 1e-4 of the output scale leaves two orders of margin.
SCAN_RTOL = 1e-4
# Head maps pass through ~60 float32 layers; observed differences to the
# float64 model are ~1e-6 of the map scale.
MAPS_RTOL = 1e-4
# Boxes and scores of the own decode are computed from the same float32
# maps in float64, so they agree to rounding.
DECODE_ATOL = 1e-9
MAP_ATOL = 1e-12
FD_STEP = 1e-6
# The directional derivative along a random unit direction can come out
# near 0 (-2e-4 against a gradient norm of ~100 on one seed), so an error
# relative to it measures rounding: eps * loss / FD_STEP. The error is taken
# relative to the gradient norm instead, the largest value a directional
# derivative can have. Observed over seeds 0-399: at most 6e-11 with a
# correct backward; 2e-7 to 2e-6 when one op's backward slope is 1% off.
FD_GTOL = 5e-9
PR_CONFIDENCE = 0.25


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _scaled_error(got: np.ndarray, ref: np.ndarray) -> float:
    scale = max(float(np.abs(ref).max()), 1.0)
    return float(np.abs(np.asarray(got, np.float64) - ref).max()) / scale


# ---- scan --------------------------------------------------------------------

class ScanRecorder:
    """Records the inputs and outputs of every ``ssm_scan`` the blocks call."""

    def __init__(self):
        self.calls = []
        self._orig = None

    def __enter__(self):
        self._orig = blocks.ssm_scan

        def recording(x, delta, A, B, P, Q, *args, **kwargs):
            y = self._orig(x, delta, A, B, P, Q, *args, **kwargs)
            self.calls.append(tuple(t.data.copy() for t in (x, delta, A, B, P, Q, y)))
            return y

        blocks.ssm_scan = recording
        return self

    def __exit__(self, *exc):
        blocks.ssm_scan = self._orig


def scan_reference(x, delta, A, B, P, Q) -> np.ndarray:
    """Per-batch sequential scan in float64 with B/P broadcast over channels."""
    f = np.float64
    out = []
    for b in range(x.shape[0]):
        length, d = x[b].shape
        n = A.shape[1]
        params = SSMParams(
            A=A.astype(f),
            B=np.broadcast_to(B[b].astype(f)[:, None, :], (length, d, n)),
            P=np.broadcast_to(P[b].astype(f)[:, None, :], (length, d, n)),
            Q=Q.astype(f),
            delta=delta[b].astype(f),
            method="taylor",
        )
        out.append(selective_scan_seq(x[b].astype(f), params).y)
    return np.stack(out)


def check_scan_calls(calls, rtol: float = SCAN_RTOL) -> float:
    """Check each recorded scan; returns the worst scaled error."""
    require(len(calls) > 0, "scan: no ssm_scan call was recorded")
    worst = 0.0
    for k, (x, delta, A, B, P, Q, y) in enumerate(calls):
        ref = scan_reference(x, delta, A, B, P, Q)
        require(y.shape == ref.shape, f"scan call {k}: shape {y.shape} != {ref.shape}")
        err = _scaled_error(y, ref)
        require(np.isfinite(err) and err <= rtol,
                 f"scan call {k}: scaled error {err:.3e} > {rtol:.1e}")
        worst = max(worst, err)
    return worst


# ---- head maps ---------------------------------------------------------------

def eval_forward(model: Detector, images: np.ndarray):
    """Inference-mode head maps as numpy arrays, restoring the mode after."""
    was_training = model.training
    model.eval()
    try:
        _, maps = model.forward(Tensor(images, dtype=model.dtype))
    finally:
        model.train(was_training)
    return maps


def check_maps_f64(spec, seed: int, images: np.ndarray, maps32, rtol: float = MAPS_RTOL) -> float:
    """Compare float32 head maps with a float64 model built from the same seed."""
    ref_model = Detector(spec, seed=seed, dtype=np.float64)
    maps64 = eval_forward(ref_model, images.astype(np.float64))
    worst = 0.0
    for lvl, ((c32, r32), (c64, r64)) in enumerate(zip(maps32, maps64)):
        for kind, got, ref in (("cls", c32, c64), ("reg", r32, r64)):
            got = np.asarray(getattr(got, "data", got))
            ref = np.asarray(getattr(ref, "data", ref))
            require(got.shape == ref.shape, f"maps {kind} level {lvl}: shape {got.shape} != {ref.shape}")
            err = _scaled_error(got, ref)
            require(np.isfinite(err) and err <= rtol,
                     f"maps {kind} level {lvl}: scaled error {err:.3e} > {rtol:.1e}")
            worst = max(worst, err)
    return worst


# ---- decode ------------------------------------------------------------------

def decode_numpy(maps, strides, conf_threshold: float, max_dets: int, frame_hw, image: int = 0):
    """Vectorized decode of one image: rows of (x1, y1, x2, y2, score, class).

    Every cell proposes its arg-max class; cells at or above the threshold
    become boxes around the cell centre, clamped to the frame, ranked by
    score with ties kept in level-then-row-major order.
    """
    fh, fw = frame_hw
    rows = []
    for (cls_map, reg_map), stride in zip(maps, strides):
        logits = np.asarray(getattr(cls_map, "data", cls_map))[image].astype(np.float64)
        reg = np.asarray(getattr(reg_map, "data", reg_map))[image].astype(np.float64)
        nc, gh, gw = logits.shape
        prob = 1.0 / (1.0 + np.exp(-logits.reshape(nc, -1)))
        cls = prob.argmax(axis=0)
        score = prob[cls, np.arange(gh * gw)]
        cell = np.flatnonzero(score >= conf_threshold)
        cy, cx = np.divmod(cell, gw)
        cx = (cx + 0.5) * stride
        cy = (cy + 0.5) * stride
        dist = reg.reshape(4, -1)[:, cell] * stride
        rows.append(np.stack([
            np.clip(cx - dist[0], 0.0, fw), np.clip(cy - dist[1], 0.0, fh),
            np.clip(cx + dist[2], 0.0, fw), np.clip(cy + dist[3], 0.0, fh),
            score[cell], cls[cell].astype(np.float64)], axis=1))
    table = np.concatenate(rows) if rows else np.zeros((0, 6))
    order = np.argsort(-table[:, 4], kind="stable")
    return table[order[:max_dets]]


def check_same_detections(dets, table: np.ndarray, what: str = "detections") -> None:
    """``dets`` (Detection objects) must equal the rows of ``table``."""
    require(len(dets) == len(table), f"{what}: {len(dets)} detections, reference has {len(table)}")
    for k, (d, row) in enumerate(zip(dets, table)):
        require(d.class_id == int(row[5]), f"{what}[{k}]: class {d.class_id} != {int(row[5])}")
        require(abs(d.score - row[4]) <= DECODE_ATOL, f"{what}[{k}]: score {d.score!r} != {row[4]!r}")
        err = max(abs(a - b) for a, b in zip(d.box, row[:4]))
        require(err <= DECODE_ATOL * max(1.0, float(np.abs(row[:4]).max())),
                 f"{what}[{k}]: box {d.box} != {tuple(row[:4])}")


def check_detection_properties(dets, conf_threshold: float, max_dets: int,
                               num_classes: int, frame_hw) -> None:
    fh, fw = frame_hw
    require(len(dets) <= max_dets, f"{len(dets)} detections > max_dets {max_dets}")
    for k, d in enumerate(dets):
        x1, y1, x2, y2 = d.box
        require(math.isfinite(d.score) and d.score >= conf_threshold,
                 f"detection {k}: score {d.score!r} below threshold {conf_threshold}")
        require(k == 0 or dets[k - 1].score >= d.score, f"detection {k}: not sorted by score")
        require(isinstance(d.class_id, int) and 0 <= d.class_id < num_classes,
                 f"detection {k}: class id {d.class_id!r} outside [0, {num_classes})")
        require(0.0 <= x1 <= x2 <= fw and 0.0 <= y1 <= y2 <= fh,
                 f"detection {k}: box {d.box} not ordered inside {fw}x{fh}")


# ---- mAP ---------------------------------------------------------------------

def _iou_row(box, gts: np.ndarray) -> np.ndarray:
    iw = np.clip(np.minimum(box[2], gts[:, 2]) - np.maximum(box[0], gts[:, 0]), 0.0, None)
    ih = np.clip(np.minimum(box[3], gts[:, 3]) - np.maximum(box[1], gts[:, 1]), 0.0, None)
    inter = iw * ih
    union = (box[2] - box[0]) * (box[3] - box[1]) + (gts[:, 2] - gts[:, 0]) * (gts[:, 3] - gts[:, 1]) - inter
    return np.where(inter > 0.0, inter / np.where(inter > 0.0, union, 1.0), 0.0)


def _greedy_flags(boxes, scores, gts: np.ndarray, threshold: float) -> tuple:
    """Visit predictions by descending score (stable); each takes the free
    ground truth of highest IoU >= threshold, the last one on ties."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    free = np.ones(len(gts), dtype=bool)
    flags = np.zeros(len(order), dtype=bool)
    for rank, k in enumerate(order):
        if not free.any():
            break
        iou = np.where(free, _iou_row(boxes[k], gts), -1.0)
        best = iou.max()
        if best >= threshold:
            gi = len(iou) - 1 - int(np.argmax(iou[::-1]))
            free[gi] = False
            flags[rank] = True
    return order, flags


IOU_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))


def map_bruteforce(predictions, ground_truth, thresholds=IOU_THRESHOLDS) -> dict:
    """Independent evaluator of the protocol ``eval_map`` documents."""
    classes = sorted({c for gts in ground_truth for c, _ in gts})
    per_image = []
    for preds, gts in zip(predictions, ground_truth):
        per_image.append({
            c: (np.array([d.box for d in preds if d.class_id == c], dtype=np.float64).reshape(-1, 4),
                np.array([d.score for d in preds if d.class_id == c], dtype=np.float64),
                np.array([b for k, b in gts if k == c], dtype=np.float64).reshape(-1, 4))
            for c in classes})
    aps = {}
    for thr in thresholds:
        for c in classes:
            num_gt = sum(len(img[c][2]) for img in per_image)
            scores, images, flags = [], [], []
            for i, img in enumerate(per_image):
                boxes, sc, gts = img[c]
                order, tp = _greedy_flags(boxes, sc, gts, thr)
                scores.append(sc[order])
                images.append(np.full(len(order), i))
                flags.append(tp)
            if num_gt == 0:
                continue
            scores, images, flags = (np.concatenate(v) for v in (scores, images, flags))
            glob = np.lexsort((images, -scores))
            tp = np.cumsum(flags[glob])
            if tp.size == 0:
                aps[(thr, c)] = 0.0
                continue
            recall = tp / num_gt
            precision = tp / np.arange(1, tp.size + 1)
            # envelope: best precision at recall >= r, for r on 101 points
            env = np.maximum.accumulate(precision[::-1])[::-1]
            first = np.searchsorted(recall, np.arange(101) / 100.0 - 1e-12, side="left")
            aps[(thr, c)] = float(np.where(first < tp.size, env[np.minimum(first, tp.size - 1)], 0.0).sum() / 101.0)

    def mean_at(keys):
        vals = [aps[k] for k in keys if k in aps]
        return sum(vals) / len(vals) if vals else 0.0

    tp = fp = 0
    for img in per_image:
        for c in classes:
            boxes, sc, gts = img[c]
            keep = sc >= PR_CONFIDENCE
            _, flags = _greedy_flags(boxes[keep], sc[keep], gts, 0.5)
            tp += int(flags.sum())
            fp += int((~flags).sum())
    # predictions of classes absent from every ground truth are false positives
    for preds in predictions:
        fp += sum(1 for d in preds if d.class_id not in classes and d.score >= PR_CONFIDENCE)
    total_gt = sum(len(g) for g in ground_truth)
    return {
        "mAP50": mean_at([(0.5, c) for c in classes]),
        "mAP75": mean_at([(0.75, c) for c in classes]),
        "mAP50:95": mean_at([(t, c) for t in thresholds for c in classes]),
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / total_gt if total_gt else 0.0,
    }


def check_map(got: dict, ref: dict, what: str = "eval_map") -> None:
    for key, want in ref.items():
        require(abs(got[key] - want) <= MAP_ATOL,
                 f"{what}: {key} {got[key]!r} != reference {want!r}")


# ---- gradient ----------------------------------------------------------------

def loss_of(model: Detector, images: np.ndarray, boxes):
    _, maps = model(Tensor(images, dtype=model.dtype))
    return detection_loss(maps, boxes, model.STRIDES, model.spec.num_classes)[0]


def check_gradient_fd(spec, seed: int, images: np.ndarray, boxes,
                      step: float = FD_STEP, gtol: float = FD_GTOL) -> float:
    """Directional derivative of the train-mode loss along a random unit
    direction over all parameters: taped gradient vs central difference.
    Returns their difference over the norm of the taped gradient."""
    model = Detector(spec, seed=seed, dtype=np.float64).train()
    params = model.parameters()
    rng = np.random.default_rng(seed + 7919)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((v * v).sum()) for v in direction))
    direction = [v / norm for v in direction]
    images = images.astype(np.float64)
    with Tape() as tape:
        loss = loss_of(model, images, boxes)
    require(math.isfinite(loss.item()), f"gradient: loss {loss.item()!r} is not finite")
    tape.backward(loss)
    analytic = sum(float((p.grad * v).sum()) for p, v in zip(params, direction) if p.grad is not None)
    grad_norm = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params if p.grad is not None))
    require(math.isfinite(grad_norm) and grad_norm > 0.0, f"gradient: taped gradient norm {grad_norm!r}")
    saved = [p.data.copy() for p in params]

    def shifted(sign):
        for p, s, v in zip(params, saved, direction):
            p.data[...] = s + sign * step * v
        return loss_of(model, images, boxes).item()

    try:
        numeric = (shifted(1.0) - shifted(-1.0)) / (2.0 * step)
    finally:
        for p, s in zip(params, saved):
            p.data[...] = s
    err = abs(analytic - numeric) / grad_norm
    require(err <= gtol, f"gradient: taped {analytic!r} vs finite difference {numeric!r} "
                         f"(difference {err:.2e} of the gradient norm {grad_norm:.4g})")
    return err
