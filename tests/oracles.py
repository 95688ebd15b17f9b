"""Independent reference implementations the fast paths are tested against.

Everything here is written the dumbest possible way: scalar python loops,
selection instead of sorting, direct formula evaluation. None of it may
import the kernels it checks.
"""

from __future__ import annotations

import math

import numpy as np


def conv2d_loops(x, w, bias=None, stride=1, padding=0, groups=1):
    """Direct nested-loop cross-correlation; ``padding`` is an int or an (h, w) pair."""
    n, c_in, h, wd = x.shape
    c_out, c_g, kh, kw = w.shape
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wd + 2 * pw - kw) // stride + 1
    og = c_out // groups
    out = np.zeros((n, c_out, ho, wo), dtype=np.float64)
    for b in range(n):
        for o in range(c_out):
            grp = o // og
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c_g):
                        for ki in range(kh):
                            for kj in range(kw):
                                yy = i * stride + ki - ph
                                xx = j * stride + kj - pw
                                if 0 <= yy < h and 0 <= xx < wd:
                                    acc += float(x[b, grp * c_g + ci, yy, xx]) * float(w[o, ci, ki, kj])
                    if bias is not None:
                        acc += float(bias[o])
                    out[b, o, i, j] = acc
    return out


def conv2d_grad_loops(x, w, gout, stride=1, padding=0, groups=1):
    """Input and weight gradients of ``sum(conv2d_loops(x, w) * gout)``, by the same loops."""
    n, c_in, h, wd = x.shape
    c_out, c_g, kh, kw = w.shape
    ph, pw = padding if isinstance(padding, tuple) else (padding, padding)
    _, _, ho, wo = gout.shape
    og = c_out // groups
    gx = np.zeros(x.shape, dtype=np.float64)
    gw = np.zeros(w.shape, dtype=np.float64)
    for b in range(n):
        for o in range(c_out):
            grp = o // og
            for i in range(ho):
                for j in range(wo):
                    g = float(gout[b, o, i, j])
                    for ci in range(c_g):
                        for ki in range(kh):
                            for kj in range(kw):
                                yy = i * stride + ki - ph
                                xx = j * stride + kj - pw
                                if 0 <= yy < h and 0 <= xx < wd:
                                    gx[b, grp * c_g + ci, yy, xx] += g * float(w[o, ci, ki, kj])
                                    gw[o, ci, ki, kj] += g * float(x[b, grp * c_g + ci, yy, xx])
    return gx, gw


def conv1d_loops(x, w):
    n, _, length = x.shape
    k = w.shape[2]
    pad = k // 2
    out = np.zeros((n, 1, length), dtype=np.float64)
    for b in range(n):
        for i in range(length):
            acc = 0.0
            for j in range(k):
                src = i + j - pad
                if 0 <= src < length:
                    acc += float(x[b, 0, src]) * float(w[0, 0, j])
            out[b, 0, i] = acc
    return out


def zoh_elementwise(a_mat, b_mat, delta_vec):
    """Term-by-term zero-order-hold values via math.exp."""
    d, n = a_mat.shape
    abar = np.zeros((d, n), dtype=np.float64)
    bbar = np.zeros((d, n), dtype=np.float64)
    for i in range(d):
        for j in range(n):
            a = float(a_mat[i, j])
            dt = float(delta_vec[i])
            abar[i, j] = math.exp(dt * a)
            if abs(a) < 1e-8:
                bbar[i, j] = dt * float(b_mat[i, j])
            else:
                bbar[i, j] = (math.exp(dt * a) - 1.0) / a * float(b_mat[i, j])
    return abar, bbar


def iou_scalar(a, b):
    ix1 = a[0] if a[0] > b[0] else b[0]
    iy1 = a[1] if a[1] > b[1] else b[1]
    ix2 = a[2] if a[2] < b[2] else b[2]
    iy2 = a[3] if a[3] < b[3] else b[3]
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union


def eval_map_bruteforce(predictions, ground_truth, iou_thresholds):
    """Scalar-loop evaluator: selection-ordered greedy matching, direct
    101-point interpolation, micro P/R at confidence 0.25."""
    classes = sorted({c for gts in ground_truth for c, _ in gts})
    ap_values = {}
    for thr in iou_thresholds:
        for cls in classes:
            rows = []      # (score, image index, tp flag), selection-ordered
            num_gt = 0
            for img, (preds, gts) in enumerate(zip(predictions, ground_truth)):
                cls_gts = [box for c, box in gts if c == cls]
                num_gt += len(cls_gts)
                cls_preds = [d for d in preds if d.class_id == cls]
                remaining = list(range(len(cls_preds)))
                ordered = []
                while remaining:
                    best = remaining[0]
                    for k in remaining[1:]:
                        if cls_preds[k].score > cls_preds[best].score:
                            best = k
                    remaining.remove(best)
                    ordered.append(cls_preds[best])
                matched = [False] * len(cls_gts)
                for d in ordered:
                    pick, pick_iou = -1, -1.0
                    for gi, gt_box in enumerate(cls_gts):
                        if matched[gi]:
                            continue
                        iou = iou_scalar(d.box, gt_box)
                        if iou >= thr and iou >= pick_iou:
                            pick, pick_iou = gi, iou
                    if pick >= 0:
                        matched[pick] = True
                        rows.append((d.score, img, True))
                    else:
                        rows.append((d.score, img, False))
            # global selection order: descending score, then image index
            ordered_rows = []
            pool = list(rows)
            while pool:
                best = pool[0]
                for r in pool[1:]:
                    if r[0] > best[0] or (r[0] == best[0] and r[1] < best[1]):
                        best = r
                pool.remove(best)
                ordered_rows.append(best)
            if num_gt == 0:
                ap_values[(thr, cls)] = None
                continue
            if not ordered_rows:
                ap_values[(thr, cls)] = 0.0
                continue
            tp = fp = 0
            points = []
            for _, _, flag in ordered_rows:
                if flag:
                    tp += 1
                else:
                    fp += 1
                points.append((tp / num_gt, tp / (tp + fp)))
            total = 0.0
            for i in range(101):
                r = i / 100.0
                best_prec = 0.0
                for rec, prec in points:
                    if rec >= r - 1e-12 and prec > best_prec:
                        best_prec = prec
                total += best_prec
            ap_values[(thr, cls)] = total / 101.0

    def mean_over(thrs):
        vals = [ap_values[(t, c)] for t in thrs for c in classes
                if ap_values[(t, c)] is not None]
        return sum(vals) / len(vals) if vals else 0.0

    tp = fp = 0
    total_gt = sum(len(g) for g in ground_truth)
    for preds, gts in zip(predictions, ground_truth):
        for cls in sorted({d.class_id for d in preds}):
            cls_preds = [d for d in preds if d.class_id == cls and d.score >= 0.25]
            remaining = list(range(len(cls_preds)))
            ordered = []
            while remaining:
                best = remaining[0]
                for k in remaining[1:]:
                    if cls_preds[k].score > cls_preds[best].score:
                        best = k
                remaining.remove(best)
                ordered.append(cls_preds[best])
            cls_gts = [box for c, box in gts if c == cls]
            matched = [False] * len(cls_gts)
            for d in ordered:
                pick, pick_iou = -1, -1.0
                for gi, gt_box in enumerate(cls_gts):
                    if matched[gi]:
                        continue
                    iou = iou_scalar(d.box, gt_box)
                    if iou >= 0.5 and iou >= pick_iou:
                        pick, pick_iou = gi, iou
                if pick >= 0:
                    matched[pick] = True
                    tp += 1
                else:
                    fp += 1
    return {
        "mAP50": mean_over([t for t in iou_thresholds if t == 0.5]),
        "mAP75": mean_over([t for t in iou_thresholds if t == 0.75]),
        "mAP50:95": mean_over(iou_thresholds),
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / total_gt if total_gt else 0.0,
    }


def detection_loss_scalar(cls_maps, reg_maps, batch_boxes, strides):
    """Per-positive reference of the training loss.

    Assigns each box to the center cell of the level whose stride is
    closest to a quarter of the box size (first box wins a cell), sums the
    logistic loss over every class logit and a (1 - IoU) term per assigned
    cell, both divided by the positive count. Returns (total, cls, box)
    with total = cls + 2.5 * box.
    """
    positives = []
    taken = []
    for n, boxes in enumerate(batch_boxes):
        for cls, box in boxes:
            size = math.sqrt(max((box[2] - box[0]) * (box[3] - box[1]), 1e-9))
            lvl = 0
            for k in range(1, len(strides)):
                if abs(math.log2(size / (4.0 * strides[k]))) < \
                        abs(math.log2(size / (4.0 * strides[lvl]))):
                    lvl = k
            stride = strides[lvl]
            gh, gw = cls_maps[lvl].shape[2:]
            j = min(max(int(0.5 * (box[0] + box[2]) / stride), 0), gw - 1)
            i = min(max(int(0.5 * (box[1] + box[3]) / stride), 0), gh - 1)
            if (lvl, n, i, j) not in taken:
                taken.append((lvl, n, i, j))
                positives.append((lvl, n, i, j, cls, box))
    num_pos = max(len(positives), 1)

    cls_sum = 0.0
    for lvl, cls_map in enumerate(cls_maps):
        b, c, h, w = cls_map.shape
        for n in range(b):
            for k in range(c):
                for i in range(h):
                    for j in range(w):
                        z = float(cls_map[n, k, i, j])
                        t = 1.0 if any(p[:4] == (lvl, n, i, j) and p[4] == k
                                       for p in positives) else 0.0
                        cls_sum += max(z, 0.0) + math.log1p(math.exp(-abs(z))) - z * t

    box_sum = 0.0
    for lvl, n, i, j, _, gt in positives:
        stride = strides[lvl]
        cx, cy = (j + 0.5) * stride, (i + 0.5) * stride
        d = [float(reg_maps[lvl][n, k, i, j]) * stride for k in range(4)]
        pred = (cx - d[0], cy - d[1], cx + d[2], cy + d[3])
        iw = max(min(pred[2], gt[2]) - max(pred[0], gt[0]), 0.0)
        ih = max(min(pred[3], gt[3]) - max(pred[1], gt[1]), 0.0)
        inter = iw * ih
        union = (pred[2] - pred[0]) * (pred[3] - pred[1]) + \
            (gt[2] - gt[0]) * (gt[3] - gt[1]) - inter
        box_sum += 1.0 - inter / (union + 1e-9)

    cls_loss, box_loss = cls_sum / num_pos, box_sum / num_pos
    return cls_loss + 2.5 * box_loss, cls_loss, box_loss


def decode_loops(per_level_maps, strides, conf_threshold, max_dets, frame_hw):
    """Per-cell reference of the head decode, as (box, score, class_id) rows.

    Each cell takes its first highest-scoring class and is kept when that
    score reaches the threshold; its box is the cell center pushed out by
    the four distances in stride units, clamped to the frame. Rows are
    ranked by a stable sort on the score, so equal scores stay in
    level-then-row-major order, and the first ``max_dets`` are returned.
    """
    fh, fw = float(frame_hw[0]), float(frame_hw[1])
    rows = []
    for (cls_map, reg_map), stride in zip(per_level_maps, strides):
        scores = 1.0 / (1.0 + np.exp(-cls_map.astype(np.float64)))
        nc, gh, gw = cls_map.shape
        for i in range(gh):
            for j in range(gw):
                best = 0
                for c in range(1, nc):
                    if scores[c, i, j] > scores[best, i, j]:
                        best = c
                score = float(scores[best, i, j])
                if score < conf_threshold:
                    continue
                cx, cy = (j + 0.5) * stride, (i + 0.5) * stride
                d = [float(reg_map[k, i, j]) * stride for k in range(4)]
                box = (min(max(cx - d[0], 0.0), fw), min(max(cy - d[1], 0.0), fh),
                       min(max(cx + d[2], 0.0), fw), min(max(cy + d[3], 0.0), fh))
                rows.append((box, score, best))
    rows.sort(key=lambda r: -r[1])
    return rows[:max_dets]


def random_detections(rng, n_images, max_boxes, n_classes, frame=100.0):
    """Random prediction/ground-truth pairs for oracle comparisons."""
    from ssmdet.model import Detection

    preds, gts = [], []
    for _ in range(n_images):
        boxes = []
        for _ in range(int(rng.integers(0, max_boxes + 1))):
            x1, y1 = rng.uniform(0, frame * 0.7, 2)
            bw, bh = rng.uniform(5, frame * 0.3, 2)
            boxes.append((int(rng.integers(0, n_classes)),
                          (x1, y1, x1 + bw, y1 + bh)))
        gts.append(boxes)
        dets = []
        for _ in range(int(rng.integers(0, max_boxes + 1))):
            if boxes and rng.random() < 0.6:
                cls, (x1, y1, x2, y2) = boxes[int(rng.integers(0, len(boxes)))]
                jitter = rng.uniform(-6, 6, 4)
                box = (x1 + jitter[0], y1 + jitter[1],
                       max(x1 + jitter[0] + 2, x2 + jitter[2]),
                       max(y1 + jitter[1] + 2, y2 + jitter[3]))
                if rng.random() < 0.2:
                    cls = int(rng.integers(0, n_classes))
            else:
                x1, y1 = rng.uniform(0, frame * 0.7, 2)
                bw, bh = rng.uniform(5, frame * 0.3, 2)
                box = (x1, y1, x1 + bw, y1 + bh)
                cls = int(rng.integers(0, n_classes))
            dets.append(Detection(box=box, score=float(rng.random()), class_id=cls))
        preds.append(dets)
    return preds, gts


def batch_norm_primitives(x, gain, shift, running_mean, running_var, training,
                          eps=1e-5, momentum=0.03):
    """Batch norm as a chain of taped Tensor primitives, each with its own rule."""
    c = x.shape[1]
    if training:
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


def layer_norm_primitives(x, gain, shift, eps=1e-5):
    """Layer norm over the channel axis as a chain of taped Tensor primitives."""
    c = x.shape[1]
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    xhat = xc * (var + eps) ** -0.5
    return xhat * gain.reshape(1, c, 1, 1) + shift.reshape(1, c, 1, 1)


def shuffle_concat_primitives(parts, groups):
    """Concat along the channels, then the group-transpose shuffle, as a chain
    of taped Tensor primitives (concat, reshape, transpose, reshape)."""
    from ssmdet.ops import concat_channels

    x = concat_channels(parts)
    n, c = x.shape[:2]
    rest = x.shape[2:]
    return x.reshape(n, groups, c // groups, *rest).transpose(
        0, 2, 1, *range(3, x.ndim + 1)).reshape(n, c, *rest)


def conv1d(x, w):
    """ECA's length-preserving 1D cross-correlation over [N, 1, L] with an odd
    kernel, as the taped k x 1 conv2d over an L x 1 map that it ran as."""
    from ssmdet.ops import conv2d
    from ssmdet.tensor import ShapeError

    if x.ndim != 3 or x.shape[1] != 1:
        raise ShapeError(f"conv1d: input must be [batch, 1, length], got {x.shape}")
    if w.ndim != 3 or w.shape[:2] != (1, 1):
        raise ShapeError(f"conv1d: weight must be [1, 1, k], got {w.shape}")
    k = w.shape[2]
    if k % 2 == 0:
        raise ShapeError(f"conv1d: kernel length {k} must be odd")
    n, _, length = x.shape
    out = conv2d(x.reshape(n, 1, length, 1), w.reshape(1, 1, k, 1), padding=(k // 2, 0))
    return out.reshape(n, 1, length)


def eca_attention_chain(y, attn_weight, c_hat, groups):
    """ECA's attention tail as the chain of taped ops it was: split -> mean ->
    conv1d across the channels -> sigmoid -> scale -> concat -> shuffle."""
    from ssmdet.ops import sigmoid

    n, c = y.shape[:2]
    att = y if c_hat == c else y[:, :c_hat]
    pooled = att.mean(axis=(2, 3), keepdims=True).reshape(n, 1, c_hat)
    gates = sigmoid(conv1d(pooled, attn_weight)).reshape(n, c_hat, 1, 1)
    att = att * gates
    return shuffle_concat_primitives([att] if c_hat == c else [att, y[:, c_hat:]], groups)
