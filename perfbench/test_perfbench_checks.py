"""Each benchmark check accepts the program's output and rejects a corrupted one.

Small shapes only, so the module runs in seconds with the rest of the suite.
"""

import math

import numpy as np
import pytest

import bench_checks as checks
from bench_tracer import Tracer
from ssmdet import data, ops
from ssmdet.metrics import eval_map
from ssmdet.model import Detection, Detector, get_scale
from ssmdet.ssm import ssm_scan
from ssmdet.tensor import Tensor, accumulate, make_op

SIZE = 64


@pytest.fixture(scope="module")
def desk():
    spec = get_scale("n", 3, width_override=0.125)
    det = Detector(spec, seed=0)
    image = np.random.default_rng(1).uniform(0.0, 1.0, (1, 3, SIZE, SIZE)).astype(np.float32)
    return spec, det, image


def _corrupt(arr, delta):
    bad = np.array(arr, copy=True)
    bad.reshape(-1)[bad.size // 2] += delta
    return bad


def test_scan_check_accepts_kernel_and_rejects_corruption():
    rng = np.random.default_rng(0)
    b, length, d, n = 2, 9, 3, 4
    args = [
        rng.standard_normal((b, length, d)),
        rng.uniform(0.01, 0.2, (b, length, d)),
        -rng.uniform(0.1, 2.0, (d, n)),
        rng.standard_normal((b, length, n)),
        rng.standard_normal((b, length, n)),
        rng.standard_normal(d),
    ]
    y = ssm_scan(*(Tensor(a.astype(np.float32)) for a in args), block_len=4).data
    call = tuple(a.astype(np.float32) for a in args) + (y,)
    assert checks.check_scan_calls([call]) < checks.SCAN_RTOL
    bad = call[:-1] + (_corrupt(y, 1e-2 * np.abs(y).max()),)
    with pytest.raises(checks.CheckFailed):
        checks.check_scan_calls([bad])
    with pytest.raises(checks.CheckFailed):
        checks.check_scan_calls([])


def test_scan_recorder_sees_every_direction(desk):
    _, det, image = desk
    with checks.ScanRecorder() as rec:
        checks.eval_forward(det, image)
    assert len(rec.calls) == 12          # 3 fusion blocks x 4 directions
    checks.check_scan_calls(rec.calls)


def test_f64_maps_check_rejects_corruption(desk):
    spec, det, image = desk
    maps = checks.eval_forward(det, image)
    checks.check_maps_f64(spec, 0, image, maps)
    cls, reg = maps[1]
    bad = list(maps)
    bad[1] = (cls, _corrupt(reg.data, 1e-2 * np.abs(reg.data).max()))
    with pytest.raises(checks.CheckFailed):
        checks.check_maps_f64(spec, 0, image, bad)


def test_decode_check_rejects_changed_detection(desk):
    _, det, image = desk
    maps = checks.eval_forward(det, image)
    dets = det.detect(Tensor(image), conf_threshold=0.001)[0]
    table = checks.decode_numpy(maps, Detector.STRIDES, 0.001, 300, (SIZE, SIZE))
    checks.check_same_detections(dets, table)
    for change in ({"score": dets[3].score + 1e-6}, {"class_id": (dets[3].class_id + 1) % 3},
                   {"box": (dets[3].box[0] + 0.01,) + dets[3].box[1:]}):
        bad = list(dets)
        bad[3] = Detection(**{**vars(dets[3]), **change})
        with pytest.raises(checks.CheckFailed):
            checks.check_same_detections(bad, table)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_detections(dets[:-1], table)


def test_detection_properties_reject_each_violation():
    good = [Detection((1.0, 2.0, 30.0, 40.0), 0.9, 0), Detection((0.0, 0.0, 64.0, 64.0), 0.5, 2)]
    checks.check_detection_properties(good, 0.25, 300, 3, (SIZE, SIZE))
    bad_lists = [
        good[::-1],                                                  # not sorted
        good + [Detection((1.0, 1.0, 2.0, 2.0), 0.1, 0)],            # below threshold
        [Detection((1.0, 1.0, 2.0, 2.0), 0.9, 3)],                   # class id
        [Detection((5.0, 1.0, 2.0, 2.0), 0.9, 0)],                   # x1 > x2
        [Detection((1.0, 1.0, 2.0, 65.0), 0.9, 0)],                  # outside frame
        [Detection((1.0, 1.0, 2.0, 2.0), math.nan, 0)],              # score
    ]
    for dets in bad_lists:
        with pytest.raises(checks.CheckFailed):
            checks.check_detection_properties(dets, 0.25, 300, 3, (SIZE, SIZE))
    with pytest.raises(checks.CheckFailed):
        checks.check_detection_properties(good, 0.25, 1, 3, (SIZE, SIZE))


def _random_set(rng, images=6):
    gts, preds = [], []
    for _ in range(images):
        g = []
        for _ in range(int(rng.integers(0, 5))):
            x1, y1 = rng.uniform(0, 50, 2)
            w, h = rng.uniform(4, 30, 2)
            g.append((int(rng.integers(0, 3)), (x1, y1, x1 + w, y1 + h)))
        p = [Detection((b[0] + rng.normal(0, 2), b[1] + rng.normal(0, 2), b[2] + rng.normal(0, 2),
                        b[3] + rng.normal(0, 2)), float(rng.random()), c if rng.random() > 0.2 else 4)
             for c, b in g]
        for _ in range(int(rng.integers(0, 4))):
            x1, y1 = rng.uniform(0, 50, 2)
            p.append(Detection((x1, y1, x1 + 10, y1 + 10), float(rng.random()), int(rng.integers(0, 3))))
        gts.append(g)
        preds.append(p)
    return preds, gts


def test_map_reference_agrees_and_rejects_corruption():
    rng = np.random.default_rng(3)
    for _ in range(5):
        preds, gts = _random_set(rng)
        got = eval_map(preds, gts)
        checks.check_map(got, checks.map_bruteforce(preds, gts))
    assert 0.0 < got["mAP50:95"] < 1.0
    for key in ("mAP50", "mAP75", "mAP50:95", "precision", "recall"):
        with pytest.raises(checks.CheckFailed):
            checks.check_map({**got, key: got[key] + 1e-9}, checks.map_bruteforce(preds, gts))
    perfect = [[Detection(b, 1.0, c) for c, b in g] for g in gts]
    assert checks.map_bruteforce(perfect, gts)["mAP50:95"] == pytest.approx(1.0, abs=1e-12)


def _softplus_wrong_slope(x):
    out = np.logaddexp(0.0, x.data).astype(x.data.dtype, copy=False)

    def rule(g):
        accumulate(x, 1.01 * g / (1.0 + np.exp(-x.data)))

    return make_op(out, rule, x)


def test_gradient_check_rejects_wrong_backward(desk, monkeypatch):
    spec, _, image = desk
    boxes = [[(0, (4.0, 6.0, 30.0, 28.0)), (2, (30.0, 30.0, 60.0, 50.0))]]
    assert checks.check_gradient_fd(spec, 0, image, boxes) < checks.FD_GTOL
    monkeypatch.setattr(ops, "softplus", _softplus_wrong_slope)
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient_fd(spec, 0, image, boxes)


def test_tracer_restores_package_and_accounts_self_time(desk):
    _, det, image = desk
    originals = (ops.conv2d, data.load_ppm, Detector.forward, ops.make_op)
    tracer = Tracer()
    tracer.install(det, SIZE)
    try:
        tracer.begin("bench.image")
        det.detect(Tensor(image), conf_threshold=0.001)
        tracer.end()
    finally:
        tracer.uninstall()
    assert (ops.conv2d, data.load_ppm, Detector.forward, ops.make_op) == originals
    assert "forward" not in vars(det.stem)
    by, top = tracer.totals()
    assert set(top) == {"bench.image"}
    assert sum(row[2] for row in by.values()) == top["bench.image"][1]
    m = tracer.layer_metrics(units=1, passes=0, detections=0)
    assert m["ssm.scan.calls"][0] == 12
    assert m["model.forward.ms"][0] >= m["model.part.fusion.ms"][0] > m["ssm.scan.fwd_ms"][0] > 0
