"""Schedule shape, target assignment, optimizer behavior, divergence guard."""

import numpy as np
import pytest

from oracles import detection_loss_scalar
from ssmdet.config import RunConfig
from ssmdet.model import Detector, get_scale
from ssmdet.tensor import Tape, Tensor
from ssmdet.train import (
    SgdMomentum,
    TrainingDiverged,
    _box_iou_loss,
    assign_targets,
    detection_loss,
    lr_at,
    train_toy,
)

TOY = get_scale("n", width_override=0.125)


def _toy_cfg(**kw):
    base = dict(scale="n", width_override=0.125, input_size=64, batch_size=2,
                epochs=2, seed=0, num_classes=3, out_dir="unused")
    base.update(kw)
    return RunConfig(**base)


class TestSchedule:
    def test_warmup_starts_at_zero_and_hits_initial(self):
        cfg = _toy_cfg(epochs=50)
        assert lr_at(0.0, cfg) == 0.0
        assert lr_at(3.0, cfg) == pytest.approx(cfg.lr_initial)

    def test_warmup_is_linear(self):
        cfg = _toy_cfg(epochs=50)
        assert lr_at(1.5, cfg) == pytest.approx(0.5 * cfg.lr_initial)
        assert lr_at(2.0, cfg) - lr_at(1.0, cfg) == pytest.approx(lr_at(1.0, cfg))

    def test_final_epoch_reaches_floor(self):
        cfg = _toy_cfg(epochs=50)
        assert lr_at(50.0, cfg) == pytest.approx(cfg.lr_final)

    def test_never_increases_after_warmup(self):
        cfg = _toy_cfg(epochs=40)
        values = [lr_at(t, cfg) for t in np.linspace(3.0, 40.0, 200)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestAssignment:
    def test_center_cell_and_level_choice(self):
        grids = [(8, 8), (4, 4), (2, 2)]
        # ~32px box at 64px input sits best on the stride-8 level
        targets, positives = assign_targets(
            [[(1, (10.0, 10.0, 42.0, 42.0))]], (8, 16, 32), grids, 3, np.float32)
        assert len(positives) == 1
        lvl, n, i, j, cls, _ = positives[0]
        assert (lvl, n, cls) == (0, 0, 1)
        assert (i, j) == (3, 3)  # center (26, 26) / stride 8
        assert targets[0][0, 1, 3, 3] == 1.0
        assert targets[0].sum() == 1.0

    def test_box_size_drives_level_choice(self):
        grids = [(16, 16), (8, 8), (4, 4)]
        batch = [[(0, (0.0, 0.0, 60.0, 60.0)),      # ~4x stride 16
                  (1, (0.0, 0.0, 120.0, 120.0)),    # ~4x stride 32
                  (2, (0.0, 0.0, 30.0, 30.0))]]     # ~4x stride 8
        _, positives = assign_targets(batch, (8, 16, 32), grids, 3, np.float32)
        levels = {cls: lvl for lvl, _, _, _, cls, _ in positives}
        assert levels == {0: 1, 1: 2, 2: 0}

    def test_cell_collisions_drop_later_boxes(self):
        grids = [(8, 8), (4, 4), (2, 2)]
        box = (10.0, 10.0, 42.0, 42.0)
        _, positives = assign_targets(
            [[(0, box), (1, box)]], (8, 16, 32), grids, 3, np.float32)
        assert len(positives) == 1
        assert positives[0][4] == 0


class TestDetectionLoss:
    STRIDES = (8, 16, 32)
    # image 0: a stride-8 box, a second box on its cell (dropped) and a
    # stride-16 box; image 1: no boxes; image 2: a small stride-8 box.
    # Nothing lands on the stride-32 level.
    BATCH = [[(0, (10.0, 10.0, 42.0, 42.0)), (1, (10.0, 10.0, 42.0, 42.0)),
              (2, (2.0, 4.0, 58.0, 60.0))],
             [],
             [(1, (30.0, 20.0, 50.0, 44.0))]]

    @pytest.fixture(autouse=True)
    def finite_checks(self):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield

    def _maps(self, seed):
        rng = np.random.default_rng(seed)
        cls_maps, reg_maps = [], []
        for s in self.STRIDES:
            g = 64 // s
            cls_maps.append(rng.normal(0.0, 2.0, (3, 3, g, g)))
            reg_maps.append(rng.uniform(0.05, 3.0, (3, 4, g, g)))
        reg_maps[2][:] = 0.0   # empty predicted boxes on a level without positives
        return cls_maps, reg_maps

    def _loss(self, cls_maps, reg_maps, batch):
        maps = [(Tensor(c), Tensor(r)) for c, r in zip(cls_maps, reg_maps)]
        total, cls_val, box_val = detection_loss(maps, batch, self.STRIDES, 3)
        return total.item(), cls_val, box_val

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_reference(self, seed):
        cls_maps, reg_maps = self._maps(seed)
        got = self._loss(cls_maps, reg_maps, self.BATCH)
        want = detection_loss_scalar(cls_maps, reg_maps, self.BATCH, self.STRIDES)
        assert want[2] > 0.0
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0)

    def test_box_loss_records_two_nodes_per_decoded_edge(self):
        # each edge is one slice and one add or subtract of the grid centre;
        # the overlap, areas and ratio take 17 more nodes
        reg = Tensor(np.random.default_rng(0).uniform(0.1, 2.0, (2, 4, 3, 3)), requires_grad=True)
        with Tape() as tape:
            _box_iou_loss(reg, 8, np.ones((2, 4, 3, 3)))
        assert len(tape) == 1 + 4 * 2 + 17

    def test_batch_without_boxes_has_zero_box_term(self):
        cls_maps, reg_maps = self._maps(3)
        batch = [[], [], []]
        total, cls_val, box_val = self._loss(cls_maps, reg_maps, batch)
        want = detection_loss_scalar(cls_maps, reg_maps, batch, self.STRIDES)
        assert box_val == 0.0 and want[2] == 0.0
        assert cls_val == pytest.approx(want[1], rel=1e-12, abs=0.0)
        assert total == cls_val


class TestOptimizer:
    def test_momentum_accumulates_velocity(self):
        from ssmdet.blocks import parameter
        p = parameter(np.zeros(2))
        opt = SgdMomentum([p], momentum=0.5)
        p.grad = np.array([1.0, 2.0])
        opt.step(lr=0.1)
        assert np.allclose(p.data, [-0.1, -0.2])
        opt.step(lr=0.1)  # same grad; velocity = 0.5*v + g
        assert np.allclose(p.data, [-0.25, -0.5])

    def test_none_grads_skipped(self):
        from ssmdet.blocks import parameter
        p = parameter(np.ones(3))
        SgdMomentum([p], momentum=0.9).step(lr=1.0)
        assert np.array_equal(p.data, np.ones(3))


class TestTrainToy:
    @pytest.fixture()
    def tiny_dataset(self):
        rng = np.random.default_rng(0)
        images = [rng.random((3, 64, 64)).astype(np.float32) for _ in range(4)]
        boxes = [[(i % 3, (8.0, 8.0, 40.0, 40.0))] for i in range(4)]
        return list(zip(images, boxes))

    def test_zero_epochs_leaves_weights_untouched(self, tiny_dataset, tmp_path):
        model = Detector(TOY, seed=0)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        records = train_toy(model, tiny_dataset, _toy_cfg(epochs=0, out_dir=str(tmp_path)))
        assert records == []
        for n, p in model.named_parameters():
            assert np.array_equal(before[n], p.data), n

    def test_records_and_outputs_written(self, tiny_dataset, tmp_path):
        model = Detector(TOY, seed=0)
        records = train_toy(model, tiny_dataset,
                            _toy_cfg(epochs=2, out_dir=str(tmp_path)))
        assert len(records) == 2
        assert all(np.isfinite(r["loss"]) for r in records)
        metrics = (tmp_path / "metrics.txt").read_text().splitlines()
        assert metrics[0] == "version 1"
        assert len(metrics) == 3
        assert (tmp_path / "model.ckpt").exists()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_toy(Detector(TOY, seed=0), [], _toy_cfg())

    def test_non_finite_loss_aborts_with_step(self, tmp_path):
        rng = np.random.default_rng(1)
        bad = [(np.full((3, 64, 64), np.inf, dtype=np.float32),
                [(0, (8.0, 8.0, 40.0, 40.0))])]
        model = Detector(TOY, seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingDiverged) as excinfo:
                train_toy(model, bad,
                          _toy_cfg(epochs=1, batch_size=1, out_dir=str(tmp_path)),
                          write_outputs=False)
        assert excinfo.value.step == 0

    def test_training_is_deterministic_per_seed(self, tiny_dataset):
        runs = []
        for _ in range(2):
            model = Detector(TOY, seed=4)
            runs.append(train_toy(model, tiny_dataset, _toy_cfg(epochs=2),
                                  write_outputs=False))
        assert runs[0] == runs[1]
