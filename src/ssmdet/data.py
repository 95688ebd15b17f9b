"""Synthetic datasets, PPM image I/O, letterboxing, annotation documents.

Images are binary PPM (P6, maxval 255) so fixtures stay dependency-free
and bit-exact; a dataset is a directory with an `annotations.txt`
document and an `images/` folder. Generation is a pure function of the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import Detection

__all__ = [
    "AnnotatedImage",
    "gen_synthetic",
    "letterbox",
    "letterbox_box",
    "load_annotations",
    "load_dataset_arrays",
    "load_detections",
    "load_ppm",
    "save_annotations",
    "save_detections",
    "save_ppm",
    "unletterbox_box",
]

_DOC_VERSION = 1
_PAD_VALUE = 114.0 / 255.0

# Shape palette: class id = shape kind.
_SHAPE_NAMES = ("circle", "square", "triangle", "diamond", "cross")
_BASE_COLORS = np.array([
    (220, 60, 60),
    (60, 200, 60),
    (70, 90, 220),
    (220, 200, 60),
    (200, 70, 200),
], dtype=np.int64)


@dataclass
class AnnotatedImage:
    path: str                       # relative to the dataset root
    height: int
    width: int
    boxes: list                     # [(class_id, (x1, y1, x2, y2)), ...]


# ---- PPM --------------------------------------------------------------------

def save_ppm(image, path) -> None:
    """Write a [3, H, W] float tensor in [0, 1] as binary P6."""
    arr = np.asarray(image.data if hasattr(image, "data") else image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"save_ppm: expected [3, H, W], got {arr.shape}")
    pixels = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.transpose(1, 2, 0).tobytes())


def load_ppm(path) -> np.ndarray:
    """Read binary P6 into a [3, H, W] float32 array scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P6":
        raise ValueError(f"load_ppm: {path}: bad magic {raw[:2]!r}")
    # Header: magic, width, height, maxval; '#' comments and whitespace allowed.
    tokens, pos = [], 2
    while len(tokens) < 3:
        if pos >= len(raw):
            raise ValueError(f"load_ppm: {path}: truncated header")
        ch = raw[pos:pos + 1]
        if ch == b"#":
            # to the line's end; a comment that runs to the file's end truncates the header
            pos = raw.find(b"\n", pos) + 1 or len(raw)
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            tokens.append(raw[pos:end])
            pos = end
    w, h, maxval = (int(t) for t in tokens)
    if w < 1 or h < 1:
        raise ValueError(f"load_ppm: {path}: image size {w}x{h} must be at least 1x1")
    if maxval != 255:
        raise ValueError(f"load_ppm: {path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(raw) - pos < h * w * 3:
        raise ValueError(f"load_ppm: {path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=np.uint8, count=h * w * 3, offset=pos)
    return (data.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float32) / 255.0)


# ---- letterbox ----------------------------------------------------------------

def letterbox(image: np.ndarray, target: int):
    """Aspect-preserving nearest resize plus gray padding to target x target.

    Returns (padded [3, target, target], scale, (off_x, off_y)); boxes map
    forward as x' = x * scale + off_x.
    """
    _, h, w = image.shape
    scale = min(target / h, target / w)
    nh, nw = int(round(h * scale)), int(round(w * scale))
    rows = np.minimum(((np.arange(nh) + 0.5) / scale).astype(int), h - 1)
    cols = np.minimum(((np.arange(nw) + 0.5) / scale).astype(int), w - 1)
    resized = image[:, rows][:, :, cols]
    off_y, off_x = (target - nh) // 2, (target - nw) // 2
    canvas = np.full((3, target, target), _PAD_VALUE, dtype=image.dtype)
    canvas[:, off_y:off_y + nh, off_x:off_x + nw] = resized
    return canvas, scale, (off_x, off_y)


def letterbox_box(box, scale, offsets):
    ox, oy = offsets
    return (box[0] * scale + ox, box[1] * scale + oy,
            box[2] * scale + ox, box[3] * scale + oy)


def unletterbox_box(box, scale, offsets):
    ox, oy = offsets
    return ((box[0] - ox) / scale, (box[1] - oy) / scale,
            (box[2] - ox) / scale, (box[3] - oy) / scale)


# ---- synthetic shapes ----------------------------------------------------------

def _draw_shape(canvas, kind, cx, cy, half, color):
    size = canvas.shape[0]
    ys, xs = np.mgrid[0:size, 0:size]
    px = xs + 0.5
    py = ys + 0.5
    dx = px - cx
    dy = py - cy
    if kind == 0:        # circle
        mask = dx * dx + dy * dy <= half * half
    elif kind == 1:      # square
        mask = (np.abs(dx) <= half) & (np.abs(dy) <= half)
    elif kind == 2:      # triangle, apex up
        inside = dy >= -half
        inside &= dy <= half
        # edges from apex (cx, cy-half) to the base corners
        inside &= (dy + half) >= 2.0 * dx
        inside &= (dy + half) >= -2.0 * dx
        mask = inside
    elif kind == 3:      # diamond
        mask = np.abs(dx) + np.abs(dy) <= half
    else:                # cross
        arm = half / 3.0
        mask = ((np.abs(dx) <= arm) & (np.abs(dy) <= half)) | \
               ((np.abs(dy) <= arm) & (np.abs(dx) <= half))
    canvas[mask] = color
    return (cx - half, cy - half, cx + half, cy + half)


def gen_synthetic(n_images: int, image_size: int, n_classes: int, seed: int,
                  out_dir) -> list[AnnotatedImage]:
    """Generate a deterministic shapes-on-noise dataset and write it to disk."""
    if not 1 <= n_classes <= len(_SHAPE_NAMES):
        raise ValueError(f"n_classes must be in [1, {len(_SHAPE_NAMES)}], got {n_classes}")
    root = Path(out_dir)
    (root / "images").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    annotated: list[AnnotatedImage] = []
    for i in range(n_images):
        canvas = rng.integers(60, 196, (image_size, image_size, 3)).astype(np.int64)
        boxes = []
        for _ in range(int(rng.integers(1, 6))):
            cls = int(rng.integers(0, n_classes))
            half = float(rng.uniform(0.05, 0.2) * image_size)
            margin = half + 1.0
            cx = float(rng.uniform(margin, image_size - margin))
            cy = float(rng.uniform(margin, image_size - margin))
            color = np.clip(_BASE_COLORS[cls] + rng.integers(-25, 26, 3), 0, 255)
            box = _draw_shape(canvas, cls, cx, cy, half, color)
            boxes.append((cls, box))
        rel = f"images/img_{i:05d}.ppm"
        save_ppm(canvas.transpose(2, 0, 1).astype(np.float32) / 255.0, root / rel)
        annotated.append(AnnotatedImage(rel, image_size, image_size, boxes))
    save_annotations(annotated, root / "annotations.txt")
    return annotated


# ---- documents ------------------------------------------------------------------

def save_annotations(annotated: list[AnnotatedImage], path) -> None:
    lines = [f"version {_DOC_VERSION}", f"count {len(annotated)}"]
    for ann in annotated:
        lines.append(f"image {ann.path} {ann.height} {ann.width} {len(ann.boxes)}")
        for cls, (x1, y1, x2, y2) in ann.boxes:
            lines.append(f"box {cls} {x1!r} {y1!r} {x2!r} {y2!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _class_and_box(cls: str, coords) -> tuple[int, tuple]:
    """A class id >= 0 and a box of finite (x1, y1, x2, y2) with x1 <= x2, y1 <= y2."""
    class_id, box = int(cls), tuple(_finite(v) for v in coords)
    if class_id < 0:
        raise ValueError(f"class id {class_id} must be >= 0")
    if box[2] < box[0] or box[3] < box[1]:
        raise ValueError(f"box {box} must have x1 <= x2 and y1 <= y2")
    return class_id, box


def _annotated_head(head: str) -> tuple[str, int, int]:
    rel, h, w = head.rsplit(" ", 2)
    if int(h) < 1 or int(w) < 1:
        raise ValueError(f"image size {h}x{w} (height x width) must be at least 1x1")
    return rel, int(h), int(w)


def _detection(fields) -> Detection:
    class_id, box = _class_and_box(fields[0], fields[2:6])
    score = _finite(fields[1])
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score!r} must be in [0, 1]")
    return Detection(box=box, score=score, class_id=class_id)


def _read_document(path, what: str, item: str, item_fields: int, parse_head, parse_item):
    """Parse a document into (parse_head(image line head), [parse_item(item
    fields after the word), ...]) records.

    Checks the `count` line against the `image` lines and each image's
    count against the `item` lines after it; ValueError names the line,
    also where a parser rejects it.
    """
    lines = Path(path).read_text().removesuffix("\n").split("\n")
    if lines[0] != f"version {_DOC_VERSION}":
        raise ValueError(f"{path}: not a version-{_DOC_VERSION} {what} document")

    def fail(i, message):
        raise ValueError(f"{path} line {i + 1}: {message}")

    def parsed(i, parse, value):
        try:
            return parse(value)
        except ValueError as err:
            message = str(err)
        fail(i, message)

    def counted(i, kind):
        line = lines[i] if i < len(lines) else ""
        word, _, rest = line.partition(" ")
        head, _, count = rest.rpartition(" ")
        if word != kind or not count.isdigit():
            fail(i, f"expected '{kind} ... <count>', got {line!r}")
        return head, int(count)

    _, num_images = counted(1, "count")
    records = []
    i = 2
    while i < len(lines):
        head, num_items = counted(i, "image")
        items = [line.split() for line in lines[i + 1:i + 1 + num_items]]
        if len(items) < num_items:
            fail(i, f"image announces {num_items} {item} lines, {len(items)} follow")
        records.append((parsed(i, parse_head, head), []))
        for j, fields in enumerate(items, start=i + 1):
            if fields[:1] != [item] or len(fields) != item_fields:
                fail(j, f"expected a {item_fields}-field {item} line, got {lines[j]!r}")
            records[-1][1].append(parsed(j, parse_item, fields[1:]))
        i += 1 + num_items
    if len(records) != num_images:
        fail(1, f"count {num_images} != {len(records)} image lines")
    return records


def load_annotations(path) -> list[AnnotatedImage]:
    """Read an annotations document. ValueError names the file and line of a
    malformed line, a non-finite number, a class id below 0, a box with x2 < x1
    or y2 < y1 (x1 == x2 is legal: clamping makes such boxes), or an image
    size below 1."""
    return [AnnotatedImage(rel, h, w, boxes) for (rel, h, w), boxes in _read_document(
        path, "annotations", "box", 6, _annotated_head, lambda f: _class_and_box(f[0], f[1:]))]


def load_dataset_arrays(root) -> list[tuple[np.ndarray, list]]:
    """Load (image array, boxes) pairs for every annotated image."""
    root = Path(root)
    annotated = load_annotations(root / "annotations.txt")
    return [(load_ppm(root / ann.path), ann.boxes) for ann in annotated]


def save_detections(per_image: dict[str, list], path) -> None:
    """Write decoded detections, keyed by image path."""
    lines = [f"version {_DOC_VERSION}", f"count {len(per_image)}"]
    for image_path, dets in per_image.items():
        lines.append(f"image {image_path} {len(dets)}")
        for d in dets:
            x1, y1, x2, y2 = d.box
            lines.append(f"det {d.class_id} {d.score!r} {x1!r} {y1!r} {x2!r} {y2!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_detections(path) -> dict[str, list]:
    """Read a detections document, keyed by image path. ValueError names the
    file and line where :func:`load_annotations` would, and of a score outside [0, 1]."""
    return dict(_read_document(path, "detections", "det", 7, str, _detection))
