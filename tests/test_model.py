"""Detector assembly: shapes, decode, gradients, accounting, checkpoints."""

import sys
import threading

import numpy as np
import pytest

from oracles import decode_loops
from ssmdet.blocks import Conv2dLayer, conv_flops
from ssmdet.model import Detector, ScaleSpec, decode, get_scale
from ssmdet.tensor import ShapeError, Tape, Tensor
from ssmdet.train import detection_loss

TOY = get_scale("n", width_override=0.125)


@pytest.fixture(scope="module")
def toy_model():
    return Detector(TOY, seed=0).eval()


class TestBuild:
    def test_smoke_and_param_count(self, toy_model):
        assert toy_model.count_params() > 100_000

    def test_same_seed_builds_identical_weights(self):
        a = Detector(TOY, seed=3)
        b = Detector(TOY, seed=3)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data), name_a

    def test_different_seeds_differ(self):
        a = Detector(TOY, seed=0)
        b = Detector(TOY, seed=1)
        assert not np.array_equal(a.stem.conv1.weight.data, b.stem.conv1.weight.data)

    def test_float64_model_holds_float32_weights_upcast(self):
        m32, m64 = Detector(TOY, seed=3), Detector(TOY, seed=3, dtype=np.float64)
        s32, s64 = m32.state_arrays(), m64.state_arrays()
        assert list(s32) == list(s64)
        for name, a in s32.items():
            assert a.dtype == np.float32 and s64[name].dtype == np.float64, name
            assert np.array_equal(s64[name], a.astype(np.float64)), name
        assert m32.dtype == np.float32 and m64.dtype == np.float64

    def test_astype_casts_the_tree_in_place_and_back(self):
        model = Detector(TOY, seed=3)
        before = {name: a.copy() for name, a in model.state_arrays().items()}
        params = model.parameters()
        assert model.astype(np.float64) is model and model.dtype == np.float64
        assert all(p is q for p, q in zip(model.parameters(), params))
        assert model.stem.conv1.norm.running_var.dtype == np.float64
        assert {a.dtype for a in model.state_arrays().values()} == {np.dtype(np.float64)}
        after = model.astype(np.float32).state_arrays()
        for name, a in before.items():
            assert after[name].dtype == np.float32 and np.array_equal(after[name], a), name

    def test_scale_monotonicity(self):
        counts = [Detector(get_scale(s)).count_params() for s in ("n", "s", "m")]
        assert counts[0] < counts[1] < counts[2]

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("x")
        with pytest.raises(ValueError):
            ScaleSpec("n", width=-1.0, depth=0.33)


class TestForward:
    def test_grid_ladder_64(self, toy_model):
        x = Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32))
        pyramid, maps = toy_model(x)
        assert [cls.shape[2:] for cls, _ in maps] == [(8, 8), (4, 4), (2, 2)]
        assert pyramid.p3.shape[2:] == (8, 8)
        assert pyramid.p4.shape[2:] == (4, 4)
        assert pyramid.p5.shape[2:] == (2, 2)

    def test_pyramid_halves_between_levels(self, toy_model):
        x = Tensor(np.zeros((1, 3, 96, 64), dtype=np.float32))
        pyramid, _ = toy_model(x)
        p3, p4, p5 = pyramid.p3.shape[2:], pyramid.p4.shape[2:], pyramid.p5.shape[2:]
        assert p3 == (12, 8) and p4 == (6, 4) and p5 == (3, 2)

    def test_indivisible_input_names_padding(self, toy_model):
        x = Tensor(np.zeros((1, 3, 60, 64), dtype=np.float32))
        with pytest.raises(ShapeError, match="divisible by 32"):
            toy_model(x)

    @pytest.mark.parametrize("hw", [(0, 0), (0, 64), (64, 16)])
    def test_input_below_32_rejected(self, toy_model, hw):
        x = Tensor(np.zeros((1, 3) + hw, dtype=np.float32))
        with pytest.raises(ShapeError, match=f"input {hw[0]}x{hw[1]} must be positive"):
            toy_model(x)

    def test_forward_deterministic(self, toy_model):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
        _, maps_a = toy_model(x)
        _, maps_b = toy_model(x)
        for (ca, ra), (cb, rb) in zip(maps_a, maps_b):
            assert np.array_equal(ca.data, cb.data)
            assert np.array_equal(ra.data, rb.data)

    def test_reg_maps_non_negative(self, toy_model):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
        _, maps = toy_model(x)
        for _, reg in maps:
            assert np.all(reg.data >= 0.0)


class TestDetect:
    def test_concurrent_detect_leaves_model_untouched(self):
        model = Detector(TOY, seed=0)
        serial = Detector(TOY, seed=0).eval()
        buffers = {name: b.copy() for name, b in model.named_buffers()}
        x = Tensor(np.random.default_rng(0).uniform(0.0, 1.0, (1, 3, 64, 64)).astype(np.float32))
        want = serial.detect(x, 0.001)
        got = [[], []]

        def run(k):
            for _ in range(40):
                got[k].append(model.detect(x, 0.001))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)      # switch threads often, inside the forward
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(calls) for calls in got] == [40, 40]
        assert all(dets == want for calls in got for dets in calls)
        assert model.training
        assert all(np.array_equal(b, buffers[name]) for name, b in model.named_buffers())


class TestDetectorGradient:
    """One central-difference directional check per `_layer_table` row.

    A desk detector in float64 and train mode, 2 images at 64 px (the
    stride-32 map is 2x2, so train-mode batch norm is well conditioned),
    and one box on each level, so every head's box branch has a gradient.
    """

    EPS = 1e-6
    TOL = 1e-5
    FLOOR = 1e-8     # a bias ahead of a batch norm has an exactly zero gradient

    def test_every_row_matches_central_difference(self):
        model = Detector(TOY, seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        images = Tensor(rng.uniform(0.0, 1.0, (2, 3, 64, 64)))
        # ~32, ~64 and ~128 px boxes land on the stride 8, 16 and 32 levels
        boxes = [[(0, (4.0, 6.0, 36.0, 38.0)), (1, (2.0, 0.0, 62.0, 64.0)),
                  (2, (-30.0, -34.0, 94.0, 96.0))],
                 [(1, (20.0, 18.0, 50.0, 52.0))]]

        def loss():
            _, maps = model(images)
            return detection_loss(maps, boxes, model.STRIDES, TOY.num_classes)[0]

        with Tape() as tape:
            total = loss()
        tape.backward(total)
        bad = []
        for _, name, module, *_ in model._layer_table(64):
            params = module.parameters()
            v = [rng.standard_normal(p.shape) for p in params]
            grads = [np.zeros(p.shape) if p.grad is None else p.grad for p in params]
            analytic = sum(float(np.vdot(g, d)) for g, d in zip(grads, v))
            scale = np.sqrt(sum(np.vdot(g, g) for g in grads) * sum(np.vdot(d, d) for d in v))
            saved = [p.data.copy() for p in params]
            values = []
            for sign in (1.0, -1.0):
                for p, p0, d in zip(params, saved, v):
                    p.data[...] = p0 + sign * self.EPS * d
                values.append(loss().item())
            for p, p0 in zip(params, saved):
                p.data[...] = p0
            numeric = (values[0] - values[1]) / (2.0 * self.EPS)
            err = abs(numeric - analytic) / max(scale, self.FLOOR)
            if err > self.TOL:
                bad.append(f"{name}: tape {analytic:.9g} vs difference {numeric:.9g} (err {err:.2e})")
        assert not bad, bad


class TestPrecision:
    """One f32 training step against the same weights and inputs upcast to f64.

    The batch and boxes are TestDetectorGradient's, in train mode. Measured
    errors (OpenBLAS, image seeds 0-3): loss 2e-8 to 1.7e-7 relative; head
    maps 3.9e-6 to 6.9e-6 of their largest magnitude; gradients, per tensor,
    ||g32 - g64|| / ||g64|| with a median of 1.9e-5 to 4.5e-5 and a maximum
    of 5.1e-5 to 1.1e-4 (ECA attention weights and norm parameters). Each
    bound is about 5x the largest measured value.
    """

    LOSS_TOL = 1e-6
    MAPS_TOL = 3e-5
    GRAD_MEDIAN_TOL = 2e-4
    GRAD_TOL = 5e-4

    def test_f32_step_tracks_f64(self):
        images = np.random.default_rng(1).uniform(0.0, 1.0, (2, 3, 64, 64)).astype(np.float32)
        boxes = [[(0, (4.0, 6.0, 36.0, 38.0)), (1, (2.0, 0.0, 62.0, 64.0)),
                  (2, (-30.0, -34.0, 94.0, 96.0))],
                 [(1, (20.0, 18.0, 50.0, 52.0))]]
        runs = []
        for dtype in (np.float32, np.float64):
            model = Detector(TOY, seed=0, dtype=dtype)
            with Tape() as tape:
                _, maps = model(Tensor(images, dtype=dtype))
                loss = detection_loss(maps, boxes, model.STRIDES, TOY.num_classes)[0]
            tape.backward(loss)
            runs.append((loss.item(), [t.data for pair in maps for t in pair],
                         {name: p.grad for name, p in model.named_parameters()}))
        (loss32, maps32, grads32), (loss64, maps64, grads64) = runs
        assert abs(loss32 - loss64) <= self.LOSS_TOL * abs(loss64)
        for a, b in zip(maps32, maps64):
            assert a.dtype == np.float32 and b.dtype == np.float64
            assert np.abs(a - b).max() <= self.MAPS_TOL * np.abs(b).max()
        assert list(grads32) == list(grads64)
        errs = {name: np.linalg.norm(grads32[name] - g) / np.linalg.norm(g)
                for name, g in grads64.items()}
        assert np.median(list(errs.values())) <= self.GRAD_MEDIAN_TOL
        worst = max(errs, key=errs.get)
        assert errs[worst] <= self.GRAD_TOL, (worst, errs[worst])


def _single_level_maps(grid, stride, nc=2, fill_logit=-40.0):
    cls_map = np.full((nc, grid, grid), fill_logit, dtype=np.float32)
    reg_map = np.zeros((4, grid, grid), dtype=np.float32)
    return cls_map, reg_map


class TestDecode:
    def test_all_low_logits_give_nothing(self):
        maps = [_single_level_maps(4, 8), _single_level_maps(2, 16)]
        dets = decode(maps, (8, 16), conf_threshold=0.01, max_dets=10, frame_hw=(32, 32))
        assert dets == []

    def test_hand_decoded_cell(self):
        cls_map, reg_map = _single_level_maps(20, 32)
        cls_map[1, 0, 0] = 10.0
        reg_map[:, 0, 0] = 1.0
        dets = decode([(cls_map, reg_map)], (32,), 0.01, 10, frame_hw=(640, 640))
        assert len(dets) == 1
        d = dets[0]
        # center (16,16), half-extents 32, clamped at the frame edge
        assert d.box == (0.0, 0.0, 48.0, 48.0)
        assert d.class_id == 1
        assert d.score == pytest.approx(1.0 / (1.0 + np.exp(-10.0)), rel=1e-6)

    def test_hand_decoded_interior_cell(self):
        cls_map, reg_map = _single_level_maps(20, 32)
        cls_map[0, 1, 1] = 10.0
        reg_map[:, 1, 1] = 1.0
        dets = decode([(cls_map, reg_map)], (32,), 0.01, 10, frame_hw=(640, 640))
        assert len(dets) == 1
        assert dets[0].box == (16.0, 16.0, 80.0, 80.0)

    def test_max_dets_one_returns_global_argmax(self):
        rng = np.random.default_rng(6)
        cls_map = rng.standard_normal((3, 6, 6)).astype(np.float32)
        reg_map = rng.uniform(0.1, 2.0, (4, 6, 6)).astype(np.float32)
        dets = decode([(cls_map, reg_map)], (8,), 0.0, 1, frame_hw=(48, 48))
        assert len(dets) == 1
        best = 1.0 / (1.0 + np.exp(-cls_map.max()))
        assert dets[0].score == pytest.approx(best, rel=1e-6)

    def test_boxes_valid_and_inside_frame(self):
        rng = np.random.default_rng(7)
        cls_map = rng.standard_normal((3, 8, 8)).astype(np.float32) * 3
        reg_map = rng.uniform(0.0, 6.0, (4, 8, 8)).astype(np.float32)
        dets = decode([(cls_map, reg_map)], (8,), 0.3, 100, frame_hw=(64, 64))
        assert dets
        for d in dets:
            x1, y1, x2, y2 = d.box
            assert x2 > x1 and y2 > y1
            assert 0 <= x1 and 0 <= y1 and x2 <= 64 and y2 <= 64
            assert np.isfinite(d.score)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            decode([], (8,), 1.5, 10, (64, 64))

    @pytest.mark.parametrize("case", ["random", "ties", "none"])
    def test_matches_per_cell_reference(self, case):
        # the three desk levels (160 px input): 525 cells, near the 1% prior
        rng = np.random.default_rng(8)
        maps = []
        for grid in (20, 10, 5):
            logits = rng.normal(-4.6, 1.0, (3, grid, grid))
            if case == "ties":      # a few distinct scores, so most cells tie
                logits = np.round(logits)
            if case == "none":
                logits = np.full((3, grid, grid), -40.0)
            maps.append((logits.astype(np.float32),
                         rng.uniform(-1.0, 30.0, (4, grid, grid)).astype(np.float32)))
        for max_dets in (1, 300, 600):
            dets = decode(maps, (8, 16, 32), 0.001, max_dets, (160, 160))
            want = decode_loops(maps, (8, 16, 32), 0.001, max_dets, (160, 160))
            assert [(d.box, d.score, d.class_id) for d in dets] == want
            assert len(want) == (0 if case == "none" else min(max_dets, 525))


class TestAccounting:
    def test_single_pointwise_conv_with_bias(self):
        layer = Conv2dLayer(np.random.default_rng(0), 8, 8, kernel=1, bias=True)
        assert layer.num_params() == 8 * 8 + 8

    def test_stem_tally_matches_hand_sum(self):
        spec = get_scale("n")
        c1, c2 = spec.channels()[:2]
        model = Detector(spec)
        want = (3 * c1 * 9) + 2 * c1 + (c1 * c2 * 9) + 2 * c2
        assert model.stem.num_params() == want

    def test_full_scale_n_budget(self):
        model = Detector(get_scale("n"))
        params = model.count_params()
        assert abs(params - 4.0e6) <= 0.15 * 4.0e6

    def test_conv_flop_formula(self):
        assert conv_flops(8, 8, 3, 1, (16, 16)) == 294_912

    def test_resolution_doubling_quadruples_conv_flops(self):
        assert conv_flops(8, 16, 3, 1, (32, 32)) == 4 * conv_flops(8, 16, 3, 1, (16, 16))

    def test_resolution_doubling_quadruples_model_flops(self):
        # everything scales with H*W except the tiny channel-attention 1D convs
        model = Detector(TOY)
        ratio = model.count_flops(256) / model.count_flops(128)
        assert ratio == pytest.approx(4.0, rel=1e-3)

    def test_flops_within_budget(self):
        model = Detector(get_scale("n"))
        flops = model.count_flops(640)
        assert abs(flops - 9.0e9) <= 0.2 * 9.0e9

    def test_flop_accounting_pinned(self):
        # exact figures of the hand-counted per-block formulas; any change to
        # the accounting rule has to reproduce them row for row
        want_totals = {"n": 9_489_259_968, "s": 35_768_843_136, "m": 97_949_059_776}
        for name, want in want_totals.items():
            assert Detector(get_scale(name)).count_flops(640) == want, name
        model = Detector(get_scale("n"))
        rows = [(name, c_out, out_hw, flops)
                for _, name, _, c_out, out_hw, flops in model._layer_table(640)]
        assert rows == [
            ("stem", 32, (160, 160), 324_403_200),
            ("down3", 64, (80, 80), 235_929_792),
            ("csp3", 64, (80, 80), 348_160_192),
            ("down4", 128, (40, 40), 235_929_984),
            ("csp4", 128, (40, 40), 580_403_968),
            ("down5", 256, (20, 20), 235_930_368),
            ("csp5", 256, (20, 20), 578_561_536),
            ("fuse3", 64, (80, 80), 965_017_600),
            ("fuse4", 128, (40, 40), 692_224_000),
            ("fuse5", 256, (20, 20), 555_827_200),
            ("lat5", 128, (20, 20), 26_214_400),
            ("csp_t4", 128, (40, 40), 400_589_184),
            ("lat4", 64, (40, 40), 26_214_400),
            ("csp_t3", 64, (80, 80), 407_961_792),
            ("down_n3", 64, (40, 40), 117_964_800),
            ("csp_n4", 128, (40, 40), 372_531_584),
            ("down_n4", 128, (20, 20), 117_964_800),
            ("csp_n5", 256, (20, 20), 369_767_168),
            ("head_p3", 7, (80, 80), 1_893_171_200),
            ("head_p4", 7, (40, 40), 709_222_400),
            ("head_p5", 7, (20, 20), 295_270_400),
        ]
        assert model.flops((640, 640))[0] == want_totals["n"]

    def test_summary_mentions_widths(self):
        model = Detector(TOY)
        text = model.summary(64)
        assert text.startswith("version 1")
        assert "stage_channels" in text and "total_params" in text


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, toy_model):
        path = tmp_path / "model.ckpt"
        toy_model.save_checkpoint(path)
        loaded = Detector.from_checkpoint(path)
        for (na, pa), (nb, pb) in zip(toy_model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data), na
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((1, 3, 64, 64)).astype(np.float32))
        _, maps_a = toy_model(x)
        _, maps_b = loaded.eval()(x)
        assert np.array_equal(maps_a[0][0].data, maps_b[0][0].data)

    def test_shape_mismatch_detected(self, tmp_path, toy_model):
        path = tmp_path / "model.ckpt"
        toy_model.save_checkpoint(path)
        other = Detector(get_scale("n", width_override=0.25))
        with pytest.raises((ShapeError, KeyError)):
            other.load_state(__import__("ssmdet.tensorio", fromlist=["load_checkpoint"])
                             .load_checkpoint(path)[1])
