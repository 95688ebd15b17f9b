"""Detection metrics: 101-point interpolated AP with greedy matching.

Matching follows the usual evaluation protocol: within each class and IoU
threshold, predictions are visited in descending score order and each one
claims the unmatched ground truth with the highest IoU at or above the
threshold. Each (image, class) pair builds its IoU table once and matches
it at every threshold. Precision/recall are micro-averaged at IoU 0.5 and a
fixed operating confidence (0.25 here, a local convention).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

__all__ = ["MAP_THRESHOLDS", "eval_map", "iou_xyxy"]

MAP_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
_RECALL_GRID = np.linspace(0.0, 1.0, 101)
_PR_CONFIDENCE = 0.25


def iou_xyxy(a, b) -> float:
    ix1 = max(a[0], b[0])
    iy1 = max(a[1], b[1])
    ix2 = min(a[2], b[2])
    iy2 = min(a[3], b[3])
    iw = max(0.0, ix2 - ix1)
    ih = max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _match_class(ious: np.ndarray, threshold: float):
    """Greedy match of one class within one image.

    ``ious[p, g]`` is the IoU of prediction p (score order) with ground
    truth g; returns a TP flag per prediction, in the given order.
    """
    free = np.ones(ious.shape[1], dtype=bool)
    flags = np.zeros(len(ious), dtype=bool)
    reach = ious >= threshold
    for p in np.flatnonzero(reach.any(axis=1)):
        row = np.where(free & reach[p], ious[p], -np.inf)
        best = row.size - 1 - np.argmax(row[::-1])    # the last of equal IoUs
        if row[best] > -np.inf:
            flags[p], free[best] = True, False
            if not free.any():                        # every ground truth is claimed
                break
    return flags.tolist()


def _average_precision(tp_flags: np.ndarray, num_gt: int) -> float:
    """101-point interpolated AP from score-ordered TP flags."""
    if num_gt == 0:
        return float("nan")
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / num_gt
    precision = tp_cum / (tp_cum + fp_cum)
    # recall never decreases, so the best precision at recall >= r is a
    # suffix maximum, read at the first index that reaches r (0 past the end)
    best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    terms = best[np.searchsorted(recall, _RECALL_GRID - 1e-12)]
    return np.cumsum(terms)[-1] / _RECALL_GRID.size   # summed in grid order


def eval_map(predictions, ground_truth, iou_thresholds=MAP_THRESHOLDS) -> dict:
    """Evaluate detections against annotations across a dataset.

    ``predictions``: per-image lists of objects with .box/.score/.class_id.
    ``ground_truth``: per-image lists of (class_id, box) pairs.
    Returns mAP50, mAP75, mAP50:95 plus precision/recall at IoU 0.5 and
    confidence 0.25. Classes without any ground truth are excluded from
    the mAP averages; their confident predictions count as false positives.
    """
    if len(predictions) != len(ground_truth):
        raise ValueError(
            f"got {len(predictions)} prediction lists for {len(ground_truth)} images")
    num_gt = Counter(c for gts in ground_truth for c, _ in gts)
    classes = sorted(num_gt)
    thresholds = list(dict.fromkeys([*iou_thresholds, 0.5]))
    keys = {cls: [] for cls in classes}            # (-score, image) per prediction
    flags = {(thr, cls): [] for thr in thresholds for cls in classes}
    tp = num_confident = 0
    for img, (preds, gts) in enumerate(zip(predictions, ground_truth)):
        for cls in {d.class_id for d in preds}:
            cls_preds = sorted((d for d in preds if d.class_id == cls), key=lambda d: -d.score)
            # the confident predictions are a prefix of the score order
            confident = sum(d.score >= _PR_CONFIDENCE for d in cls_preds)
            num_confident += confident
            if cls not in num_gt:
                continue
            cls_gts = [box for c, box in gts if c == cls]
            ious = np.array([[iou_xyxy(d.box, g) for g in cls_gts] for d in cls_preds])
            ious = ious.reshape(len(cls_preds), len(cls_gts))
            keys[cls].extend((-d.score, img) for d in cls_preds)
            hit = {thr: _match_class(ious, thr) for thr in thresholds}
            for thr in thresholds:
                flags[(thr, cls)] += hit[thr]
            tp += sum(hit[0.5][:confident])

    ap: dict[tuple, float] = {}
    for cls in classes:
        order = sorted(range(len(keys[cls])), key=keys[cls].__getitem__)
        for thr in iou_thresholds:
            tp_flags = np.array(flags[(thr, cls)], dtype=bool)[order]
            ap[(thr, cls)] = _average_precision(tp_flags, num_gt[cls])

    def mean_over(thrs) -> float:
        # plain sequential mean so results are reproducible term for term
        vals = [ap[(t, c)] for t in thrs for c in classes if not np.isnan(ap[(t, c)])]
        return sum(vals) / len(vals) if vals else 0.0

    precision = tp / num_confident if num_confident else 0.0
    recall = tp / num_gt.total() if num_gt else 0.0

    return {
        "mAP50": mean_over([0.5]) if 0.5 in iou_thresholds else float("nan"),
        "mAP75": mean_over([0.75]) if 0.75 in iou_thresholds else float("nan"),
        "mAP50:95": mean_over(iou_thresholds),
        "precision": precision,
        "recall": recall,
    }
