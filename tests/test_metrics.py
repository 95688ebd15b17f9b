"""Evaluator semantics and the brute-force oracle comparison."""

import numpy as np
import pytest

from oracles import eval_map_bruteforce, random_detections
from ssmdet.metrics import MAP_THRESHOLDS, eval_map, iou_xyxy
from ssmdet.model import Detection


class TestIou:
    def test_identical_boxes(self):
        assert iou_xyxy((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint_boxes(self):
        assert iou_xyxy((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        assert iou_xyxy((0, 0, 2, 1), (1, 0, 3, 1)) == pytest.approx(1.0 / 3.0)


class TestEvalMap:
    def test_perfect_predictions_score_one(self):
        gts = [[(0, (0.0, 0.0, 10.0, 10.0)), (1, (20.0, 20.0, 30.0, 30.0))],
               [(2, (5.0, 5.0, 15.0, 25.0))]]
        preds = [[Detection(box, 0.9, cls) for cls, box in img] for img in gts]
        m = eval_map(preds, gts)
        assert m["mAP50:95"] == pytest.approx(1.0)
        assert m["mAP50"] == pytest.approx(1.0)
        assert m["precision"] == pytest.approx(1.0)
        assert m["recall"] == pytest.approx(1.0)

    def test_no_predictions_scores_zero(self):
        gts = [[(0, (0.0, 0.0, 10.0, 10.0))]]
        m = eval_map([[]], gts)
        assert m["mAP50:95"] == 0.0
        assert m["recall"] == 0.0

    def test_one_of_two_matched_ap50(self):
        gts = [[(0, (0.0, 0.0, 10.0, 10.0)), (0, (40.0, 40.0, 50.0, 50.0))]]
        preds = [[Detection((0.0, 0.0, 10.0, 10.0), 0.9, 0)]]
        m = eval_map(preds, gts, iou_thresholds=[0.5])
        # 101-point interpolation: precision 1 holds for the 51 recall
        # points at or below 0.5
        assert m["mAP50"] == pytest.approx(51.0 / 101.0)

    def test_false_positive_after_match_lowers_precision_tail(self):
        gts = [[(0, (0.0, 0.0, 10.0, 10.0))]]
        preds = [[Detection((0.0, 0.0, 10.0, 10.0), 0.9, 0),
                  Detection((60.0, 60.0, 70.0, 70.0), 0.5, 0)]]
        m = eval_map(preds, gts, iou_thresholds=[0.5])
        assert m["mAP50"] == pytest.approx(1.0)
        assert m["precision"] == pytest.approx(0.5)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            eval_map([[]], [[], []])

    @pytest.mark.parametrize("scores", ["raw", "quarters"])
    @pytest.mark.parametrize("thresholds", [MAP_THRESHOLDS, (0.75,), (0.5,)],
                             ids=["50to95", "75", "50"])
    def test_matches_bruteforce_oracle_on_small_instances(self, thresholds, scores):
        rng = np.random.default_rng(0)
        keys = ["mAP50:95", "precision", "recall"]
        keys += [k for k, t in (("mAP50", 0.5), ("mAP75", 0.75)) if t in thresholds]
        for case in range(40):
            preds, gts = random_detections(rng, n_images=int(rng.integers(1, 4)),
                                           max_boxes=4, n_classes=3)
            if scores == "quarters":   # ties, and scores exactly at the 0.25 cut
                for d in (d for dets in preds for d in dets):
                    d.score = round(d.score * 4.0) / 4.0
            got = eval_map(preds, gts, thresholds)
            want = eval_map_bruteforce(preds, gts, thresholds)
            for key in keys:
                assert got[key] == pytest.approx(want[key], abs=0.0), (case, key)
