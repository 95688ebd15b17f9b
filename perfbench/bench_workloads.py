"""The benchmark's workloads: inputs, set-up, the timed loop and the checks.

Each workload runs as a closed loop with one caller in a single process.
The model weights come from ``MODEL_SEED`` in every run; ``--seed``
drives the generated images, their objects and the training order.

- ``detect-desk``: validation passes at desk scale. Each pass sends
  ``DESK_IMAGES`` images through ``data.load_ppm`` -> ``data.letterbox`` ->
  ``Detector.detect(conf_threshold=0.001)`` and then runs ``eval_map``
  once over the pass.
- ``detect-n640``: deployment inference at scale n, one 640 px
  letterboxed frame at a time, ``conf_threshold=0.25``.
- ``train-desk``: repeated ``train.train_toy`` calls at desk scale, each
  from the same initial weights on the same synthetic set.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_checks as checks
from bench_tracer import Tracer
from ssmdet import data, metrics, model, train
from ssmdet.config import RunConfig
from ssmdet.model import Detection, Detector, get_scale
from ssmdet.tensor import Tape, Tensor

MODEL_SEED = 0
NUM_CLASSES = 3
# set-up is repeated at least 3 times and until 2 s have passed, so the
# median of a short set-up rests on enough samples
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
MAX_DETS = 300
# spans of the first units (images or steps) go into the Chrome trace file
TRACE_UNITS_WRITTEN = 3

DESK_WIDTH = 0.125
DESK_SIZE = 160
DESK_IMAGES = 8
DESK_LOSS_IMAGES = 8
# (height, width) of the generated images, used in turn; letterboxing
# maps every one of them onto the square network input
DESK_SHAPES = ((240, 320), (180, 320), (240, 240), (192, 288))
N640_SHAPES = ((720, 1280), (720, 960), (576, 1024), (800, 800))
N640_IMAGES = 4
OBJECTS_PER_IMAGE = 4
TRAIN_IMAGES = 16
TRAIN_BATCH = 8
TRAIN_EPOCHS = 1
TRAIN_FD_IMAGES = 2

_CLASS_COLORS = np.array([(220, 60, 60), (60, 200, 60), (70, 90, 220)])
_now = time.perf_counter


# ---- inputs -------------------------------------------------------------------

def make_scene(rng, height: int, width: int):
    """Noise background with ``OBJECTS_PER_IMAGE`` filled shapes.

    Class 0 is a rectangle, class 1 an ellipse, class 2 a plus sign; each
    box is the exact pixel extent of its shape.
    """
    canvas = rng.integers(40, 216, (height, width, 3)).astype(np.uint8)
    ys, xs = np.mgrid[0:height, 0:width]
    boxes = []
    short = min(height, width)
    for _ in range(OBJECTS_PER_IMAGE):
        cls = int(rng.integers(0, NUM_CLASSES))
        bh = int(rng.uniform(0.12, 0.4) * short)
        bw = int(rng.uniform(0.12, 0.4) * short)
        y1 = int(rng.integers(0, height - bh))
        x1 = int(rng.integers(0, width - bw))
        inside = (ys >= y1) & (ys < y1 + bh) & (xs >= x1) & (xs < x1 + bw)
        if cls == 1:
            cy, cx = y1 + bh / 2.0, x1 + bw / 2.0
            inside &= ((ys + 0.5 - cy) / (bh / 2.0)) ** 2 + ((xs + 0.5 - cx) / (bw / 2.0)) ** 2 <= 1.0
        elif cls == 2:
            inside &= (np.abs(ys + 0.5 - (y1 + bh / 2.0)) <= bh / 6.0) | \
                      (np.abs(xs + 0.5 - (x1 + bw / 2.0)) <= bw / 6.0)
        color = np.clip(_CLASS_COLORS[cls] + rng.integers(-25, 26, 3), 0, 255)
        canvas[inside] = color.astype(np.uint8)
        boxes.append((cls, (float(x1), float(y1), float(x1 + bw), float(y1 + bh))))
    return canvas, boxes


def write_ppm(path: Path, canvas: np.ndarray) -> None:
    height, width, _ = canvas.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (width, height) + canvas.tobytes())


def make_scenes(seed: int, count: int, shapes, out_dir: Path):
    """``count`` images written as PPM; returns [(path, boxes)]."""
    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(count):
        canvas, boxes = make_scene(rng, *shapes[i % len(shapes)])
        path = out_dir / f"img_{i:03d}.ppm"
        write_ppm(path, canvas)
        scenes.append((path, boxes))
    return scenes


def letterboxed_boxes(boxes, scale, offsets):
    return [(c, data.letterbox_box(b, scale, offsets)) for c, b in boxes]


# ---- bookkeeping ----------------------------------------------------------------

@dataclass
class Run:
    """What one workload run measured."""

    setup_s: list = field(default_factory=list)
    image_s: list = field(default_factory=list)     # per-image latency samples
    step_s: list = field(default_factory=list)      # per-step samples
    round_s: list = field(default_factory=list)     # (seconds, images) per round
    eval_s: list = field(default_factory=list)      # eval_map samples
    peak_images_per_s: float = float("nan")
    attempted: int = 0
    failed: int = 0
    window_s: float = 0.0
    peak_rss_mb: float = 0.0
    loss_final: float = float("nan")
    passes: int = 0
    detections: int = 0
    check_error: str | None = None


def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile of the samples, q in [0, 100]."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---- detect workloads -----------------------------------------------------------

@dataclass(frozen=True)
class DetectSpec:
    width_override: float | None
    input_size: int
    conf: float
    images: int
    round_images: int         # images per round; a desk round ends with eval_map
    evaluate: bool
    shapes: tuple
    loss_images: int


DETECT = {
    "detect-desk": DetectSpec(DESK_WIDTH, DESK_SIZE, 0.001, DESK_IMAGES, DESK_IMAGES, True,
                              DESK_SHAPES, DESK_LOSS_IMAGES),
    "detect-n640": DetectSpec(None, 640, 0.25, N640_IMAGES, 1, False, N640_SHAPES, 1),
}


def detect_setup(spec: DetectSpec, seed: int, work: Path):
    scale = get_scale("n", NUM_CLASSES, width_override=spec.width_override)
    det = Detector(scale, seed=MODEL_SEED)
    scenes = make_scenes(seed, spec.images, spec.shapes, work)
    boxed, _, _ = data.letterbox(data.load_ppm(scenes[0][0]), spec.input_size)
    det.detect(Tensor(boxed[None]), conf_threshold=spec.conf)
    return scale, det, scenes


def detect_measure(spec: DetectSpec, det: Detector, scenes, seconds: float, run: Run,
                   tracer: Tracer | None) -> "DetectOutputs":
    """Closed loop of whole rounds until ``seconds`` have passed.

    The first output of every image and the first eval result are kept;
    later rounds are compared with them after each round, outside the
    timed region, so memory does not grow with the run length.
    """
    out = DetectOutputs()
    start = _now()
    k = 0
    while True:
        round_t0 = _now()
        preds, gts, rows = [], [], []
        for _ in range(spec.round_images):
            idx = k % len(scenes)
            path, boxes = scenes[idx]
            if tracer:
                tracer.unit = k
                tracer.begin("bench.image")
            run.attempted += 1
            try:
                t0 = _now()
                image = data.load_ppm(path)
                boxed, scale, offsets = data.letterbox(image, spec.input_size)
                t1 = _now()
                dets = det.detect(Tensor(boxed[None]), conf_threshold=spec.conf)[0]
                t2 = _now()
            except Exception as err:  # counted, reported, and the loop goes on
                run.failed += 1
                print(f"image {path.name}: {type(err).__name__}: {err}", file=sys.stderr)
                dets = None
            finally:
                if tracer:
                    tracer.end()
            k += 1
            if dets is None:
                continue
            run.image_s.append(t2 - t0)
            run.step_s.append(t2 - t1)
            gt = letterboxed_boxes(boxes, scale, offsets)
            preds.append(dets)
            gts.append(gt)
            rows.append((idx, dets, gt))
        result = None
        if spec.evaluate:
            run.attempted += 1
            run.passes += 1
            run.detections += sum(len(d) for d in preds)
            t3 = _now()
            result = metrics.eval_map(preds, gts)
            run.eval_s.append(_now() - t3)
        run.round_s.append((_now() - round_t0, len(rows)))
        out.keep(rows, result)
        if _now() - start >= seconds:
            break
    run.window_s = _now() - start
    # a round timed from its operations' fastest times: the fastest whole
    # round needs the shared host quiet for all of its 0.7 s, the fastest
    # image or eval_map only for 0.1 s
    round_s = spec.round_images * min(run.image_s)
    if spec.evaluate:
        round_s += min(run.eval_s)
    run.peak_images_per_s = spec.round_images / round_s
    return out


@dataclass
class DetectOutputs:
    first: dict = field(default_factory=dict)       # scene index -> (detections, gts)
    eval_rows: list = field(default_factory=list)   # (detections, gts) of the first pass
    eval_result: dict | None = None
    mismatches: list = field(default_factory=list)

    def keep(self, rows, result) -> None:
        for idx, dets, gt in rows:
            if idx not in self.first:
                self.first[idx] = (dets, gt)
            elif dets != self.first[idx][0]:
                self.mismatches.append(f"image {idx}: detections differ between rounds")
        if result is None:
            return
        if self.eval_result is None:
            self.eval_result = result
            self.eval_rows = [(dets, gt) for _, dets, gt in rows]
        elif result != self.eval_result:
            self.mismatches.append("eval_map differs between identical passes")


def detect_checks(spec: DetectSpec, scale, det: Detector, scenes, out: DetectOutputs,
                  run: Run) -> None:
    frame = (spec.input_size, spec.input_size)
    checks.require(not out.mismatches, "; ".join(out.mismatches[:3]))
    checks.require(len(out.first) > 0, "no image was detected")
    for idx, (dets, _) in out.first.items():
        checks.check_detection_properties(dets, spec.conf, MAX_DETS, NUM_CLASSES, frame)
    first = {idx: dets for idx, (dets, _) in out.first.items()}

    # scan, float64 maps and decode on the checked images
    batch, gt_batch = [], []
    for path, boxes in scenes[:spec.loss_images]:
        boxed, sc, off = data.letterbox(data.load_ppm(path), spec.input_size)
        batch.append(boxed)
        gt_batch.append(letterboxed_boxes(boxes, sc, off))
    batch = np.stack(batch)
    with checks.ScanRecorder() as rec:
        maps = checks.eval_forward(det, batch)
    checks.check_scan_calls(rec.calls)
    checks.check_maps_f64(scale, MODEL_SEED, batch, maps)
    for i in range(len(batch)):
        if i in first:
            table = checks.decode_numpy(maps, Detector.STRIDES, spec.conf, MAX_DETS, frame, image=i)
            checks.check_same_detections(first[i], table, f"image {i} detect")
        per_level = [(c.data[i], r.data[i]) for c, r in maps]
        low = model.decode(per_level, Detector.STRIDES, 0.001, MAX_DETS, frame)
        table = checks.decode_numpy(maps, Detector.STRIDES, 0.001, MAX_DETS, frame, image=i)
        checks.check_same_detections(low, table, f"image {i} decode at 0.001")
    run.loss_final = train.detection_loss(maps, gt_batch, Detector.STRIDES, NUM_CLASSES)[0].item()
    checks.require(math.isfinite(run.loss_final), f"loss {run.loss_final!r} is not finite")

    if spec.evaluate:
        preds = [d for d, _ in out.eval_rows]
        gts = [g for _, g in out.eval_rows]
        checks.check_map(out.eval_result, checks.map_bruteforce(preds, gts), "eval_map of the pass")
        perfect = [[Detection(box=b, score=1.0, class_id=c) for c, b in g] for g in gts]
        for name, got in (("eval_map", metrics.eval_map(perfect, gts)),
                          ("reference", checks.map_bruteforce(perfect, gts))):
            checks.require(abs(got["mAP50:95"] - 1.0) <= checks.MAP_ATOL,
                            f"{name}: ground truth scored as predictions gives mAP50:95 {got['mAP50:95']!r}")
        jittered = jitter_predictions(gts, seed=0)
        checks.check_map(metrics.eval_map(jittered, gts), checks.map_bruteforce(jittered, gts),
                         "eval_map of jittered ground truth")


def jitter_predictions(gts, seed: int):
    """Ground truth moved by a few pixels, relabelled now and then, plus
    spurious boxes: a prediction set with mAP well inside (0, 1)."""
    rng = np.random.default_rng(seed)
    out = []
    for g in gts:
        dets = []
        for c, box in g:
            shift = rng.normal(0.0, 3.0, 4)
            x1, y1 = box[0] + shift[0], box[1] + shift[1]
            x2, y2 = max(box[2] + shift[2], x1 + 1.0), max(box[3] + shift[3], y1 + 1.0)
            cls = c if rng.random() > 0.1 else int(rng.integers(0, NUM_CLASSES))
            dets.append(Detection(box=(x1, y1, x2, y2), score=float(rng.random()), class_id=cls))
        for _ in range(3):
            x1, y1 = rng.uniform(0.0, 120.0, 2)
            w, h = rng.uniform(5.0, 40.0, 2)
            dets.append(Detection(box=(x1, y1, x1 + w, y1 + h), score=float(rng.random()),
                                  class_id=int(rng.integers(0, NUM_CLASSES))))
        dets.sort(key=lambda d: -d.score)
        out.append(dets)
    return out


# ---- training workload ----------------------------------------------------------

def train_config(seed: int) -> RunConfig:
    return RunConfig(scale="n", num_classes=NUM_CLASSES, input_size=DESK_SIZE, seed=seed,
                     batch_size=TRAIN_BATCH, epochs=TRAIN_EPOCHS, warmup_epochs=0,
                     width_override=DESK_WIDTH).validate()


def train_setup(seed: int, work: Path):
    scale = get_scale("n", NUM_CLASSES, width_override=DESK_WIDTH)
    det = Detector(scale, seed=MODEL_SEED)
    initial = {k: v.copy() for k, v in det.state_arrays().items()}
    dataset = []
    for path, boxes in make_scenes(seed, TRAIN_IMAGES, DESK_SHAPES, work):
        boxed, sc, off = data.letterbox(data.load_ppm(path), DESK_SIZE)
        dataset.append((boxed, letterboxed_boxes(boxes, sc, off)))
    train.train_toy(det, dataset[:TRAIN_BATCH], train_config(seed), write_outputs=False)
    det.load_state(initial)
    return scale, det, initial, dataset


def train_measure(det: Detector, initial, dataset, seed: int, seconds: float, run: Run,
                  tracer: Tracer | None):
    cfg = train_config(seed)
    steps = TRAIN_EPOCHS * math.ceil(len(dataset) / TRAIN_BATCH)
    records = []
    start = _now()
    while True:
        det.load_state(initial)
        if tracer:
            tracer.begin("bench.train_toy")
        run.attempted += steps
        try:
            t0 = _now()
            rec = train.train_toy(det, dataset, cfg, write_outputs=False)
            dt = _now() - t0
        except Exception as err:  # counted, reported, and the loop goes on
            run.failed += steps
            print(f"train_toy: {type(err).__name__}: {err}", file=sys.stderr)
            rec = None
        finally:
            if tracer:
                tracer.end()
        if rec is not None:
            run.step_s.extend([dt / steps] * steps)
            run.image_s.extend([dt / (steps * TRAIN_BATCH)] * steps)
            run.round_s.append((dt, steps * TRAIN_BATCH))
            if records and rec != records[0]:
                run.check_error = "train_toy from the same weights gave different records"
            if not records:
                records.append(rec)
            run.loss_final = rec[-1]["loss"]
        if _now() - start >= seconds:
            break
    run.window_s = _now() - start
    if run.round_s:
        run.peak_images_per_s = max(n / s for s, n in run.round_s)
    return records


def train_checks(scale, det: Detector, initial, dataset, records, run: Run) -> None:
    checks.require(run.check_error is None, str(run.check_error))
    checks.require(len(records) > 0, "no train_toy call completed")
    for r in records[0]:
        checks.require(math.isfinite(r["loss"]), f"epoch {r['epoch']}: loss {r['loss']!r} not finite")
    images = np.stack([img for img, _ in dataset[:TRAIN_BATCH]])
    boxes = [b for _, b in dataset[:TRAIN_BATCH]]
    # the taped training forward: scan kernel with states kept for backward
    det.load_state(initial)
    det.train()
    with checks.ScanRecorder() as rec, Tape():
        checks.loss_of(det, images, boxes)
    checks.check_scan_calls(rec.calls)
    det.load_state(initial)
    maps = checks.eval_forward(det, images[:TRAIN_FD_IMAGES])
    checks.check_maps_f64(scale, MODEL_SEED, images[:TRAIN_FD_IMAGES], maps)
    frame = (DESK_SIZE, DESK_SIZE)
    for i, dets in enumerate(det.detect(Tensor(images[:TRAIN_FD_IMAGES]), conf_threshold=0.001)):
        checks.check_detection_properties(dets, 0.001, MAX_DETS, NUM_CLASSES, frame)
        table = checks.decode_numpy(maps, Detector.STRIDES, 0.001, MAX_DETS, frame, image=i)
        checks.check_same_detections(dets, table, f"image {i} detect")
    checks.check_gradient_fd(scale, MODEL_SEED, images[:TRAIN_FD_IMAGES], boxes[:TRAIN_FD_IMAGES])


# ---- one run ---------------------------------------------------------------------

def end_to_end(run: Run) -> tuple[dict, dict]:
    """The benchmark's end-to-end metrics, then informational statistics.

    Timings are reported by their minimum over the run and throughput by
    its fastest operations (a detect round as its images at the fastest
    image latency plus the fastest eval_map; a training round): on a shared
    host whose speed moves in phases the median and the mean of the same
    work differ by a quarter between runs, the minimum far less (see
    README.md).
    """
    ms = lambda s: s * 1e3
    metrics_ = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "image_latency_min_ms": (ms(min(run.image_s)), "ms"),
        "step_min_ms": (ms(min(run.step_s)), "ms"),
        "images_per_s_peak": (run.peak_images_per_s, "1/s"),
        "loss_final": (run.loss_final, "loss"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    info = {
        "image_latency_p50_ms": (ms(percentile(run.image_s, 50)), "ms"),
        "image_latency_p95_ms": (ms(percentile(run.image_s, 95)), "ms"),
        "step_p50_ms": (ms(percentile(run.step_s, 50)), "ms"),
        "images_per_s_mean": (sum(n for _, n in run.round_s) / sum(s for s, _ in run.round_s), "1/s"),
        "images_per_s_round_peak": (max(n / s for s, n in run.round_s), "1/s"),
        "samples": (len(run.image_s), "count"),
    }
    return metrics_, info


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Set up, measure, check. Returns the run and the tracer (or None)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"inputs-{name}-{seed}-", dir=out_dir))
    run = Run()
    try:
        while len(run.setup_s) < SETUP_MAX_REPEATS and (
                len(run.setup_s) < SETUP_MIN_REPEATS or sum(run.setup_s) < SETUP_MIN_SECONDS):
            t0 = _now()
            state = train_setup(seed, work) if name == "train-desk" else detect_setup(DETECT[name], seed, work)
            run.setup_s.append(_now() - t0)
        scale, det = state[0], state[1]
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install(det, DESK_SIZE if name == "train-desk" else DETECT[name].input_size)
        gc.collect()
        try:
            if name == "train-desk":
                outputs = train_measure(det, state[2], state[3], seed, seconds, run, tracer)
            else:
                outputs = detect_measure(DETECT[name], det, state[2], seconds, run, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        run.peak_rss_mb = peak_rss_mb()
        try:
            if name == "train-desk":
                train_checks(scale, det, state[2], state[3], outputs, run)
            else:
                detect_checks(DETECT[name], scale, det, state[2], outputs, run)
        except checks.CheckFailed as err:
            run.check_error = str(err)
        return run, tracer
    finally:
        shutil.rmtree(work, ignore_errors=True)

