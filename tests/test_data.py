"""Image I/O, letterboxing, synthetic generation, document roundtrips and line splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import damaged

from ssmdet import data as D
from ssmdet.config import load_config
from ssmdet.model import Detection
from ssmdet.tensorio import load_checkpoint


class TestPpm:
    def test_all_red_image(self, tmp_path):
        img = np.zeros((3, 2, 2), dtype=np.float32)
        img[0] = 1.0
        path = tmp_path / "red.ppm"
        D.save_ppm(img, path)
        back = D.load_ppm(path)
        assert np.array_equal(back[0], np.ones((2, 2)))
        assert np.array_equal(back[1], np.zeros((2, 2)))
        assert np.array_equal(back[2], np.zeros((2, 2)))

    def test_roundtrip_on_grid_values(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, (3, 5, 7)) / 255.0).astype(np.float32)
        path = tmp_path / "grid.ppm"
        D.save_ppm(img, path)
        assert np.allclose(D.load_ppm(path), img, atol=1e-7)

    def test_header_has_p6_magic(self, tmp_path):
        path = tmp_path / "hdr.ppm"
        D.save_ppm(np.zeros((3, 4, 6), dtype=np.float32), path)
        assert path.read_bytes().startswith(b"P6\n6 4\n255\n")

    def test_malformed_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            D.load_ppm(path)

    @pytest.mark.parametrize("size", [b"-2 2", b"0 0", b"3 0"])
    def test_empty_or_negative_size_rejected(self, tmp_path, size):
        path = tmp_path / "empty.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + b"\x00" * 12)
        with pytest.raises(ValueError, match="at least 1x1"):
            D.load_ppm(path)

    @pytest.mark.parametrize("header", [b"P6\n# a comment", b"P6 4 4 #", b"P6\n4 # four\n4 #"])
    def test_comment_running_to_the_end_is_a_truncated_header(self, tmp_path, header):
        path = tmp_path / "cut.ppm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match=f"^load_ppm: {path}: truncated header$"):
            D.load_ppm(path)

    def test_truncated_pixels_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            D.load_ppm(path)


class TestLetterbox:
    def test_square_is_pure_resize(self):
        img = np.random.default_rng(1).random((3, 32, 32)).astype(np.float32)
        out, scale, (ox, oy) = D.letterbox(img, 64)
        assert out.shape == (3, 64, 64)
        assert scale == 2.0 and ox == 0 and oy == 0
        assert np.array_equal(out[:, ::2, ::2], img)

    def test_wide_image_pads_vertically(self):
        img = np.zeros((3, 50, 100), dtype=np.float32)
        out, scale, (ox, oy) = D.letterbox(img, 64)
        assert scale == 0.64
        nh = round(50 * scale)
        assert ox == 0
        assert abs(oy - (64 - nh) // 2) <= 1
        top_pad, bottom_pad = oy, 64 - nh - oy
        assert abs(top_pad - bottom_pad) <= 1

    def test_box_roundtrip_within_a_pixel(self):
        img = np.zeros((3, 30, 70), dtype=np.float32)
        _, scale, offsets = D.letterbox(img, 96)
        box = (4.0, 6.0, 50.0, 25.0)
        mapped = D.letterbox_box(box, scale, offsets)
        back = D.unletterbox_box(mapped, scale, offsets)
        assert max(abs(a - b) for a, b in zip(box, back)) <= 1.0


class TestSynthetic:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        D.gen_synthetic(4, 64, 3, seed=5, out_dir=a)
        D.gen_synthetic(4, 64, 3, seed=5, out_dir=b)
        for rel in ["annotations.txt"] + [f"images/img_{i:05d}.ppm" for i in range(4)]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        D.gen_synthetic(2, 64, 3, seed=1, out_dir=a)
        D.gen_synthetic(2, 64, 3, seed=2, out_dir=b)
        assert (a / "images/img_00000.ppm").read_bytes() != (b / "images/img_00000.ppm").read_bytes()

    def test_boxes_inside_bounds(self, tmp_path):
        annotated = D.gen_synthetic(12, 96, 3, seed=9, out_dir=tmp_path / "d")
        assert annotated
        for ann in annotated:
            assert 1 <= len(ann.boxes) <= 5
            for cls, (x1, y1, x2, y2) in ann.boxes:
                assert 0 <= cls < 3
                assert 0.0 <= x1 < x2 <= 96.0
                assert 0.0 <= y1 < y2 <= 96.0

    def test_class_histogram_roughly_uniform(self, tmp_path):
        annotated = D.gen_synthetic(80, 64, 3, seed=3, out_dir=tmp_path / "d")
        counts = np.zeros(3)
        for ann in annotated:
            for cls, _ in ann.boxes:
                counts[cls] += 1
        total = counts.sum()
        assert total >= 200
        expected = total / 3.0
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 13.8  # p=0.001 cutoff at 2 dof

    def test_too_many_classes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            D.gen_synthetic(1, 64, 9, seed=0, out_dir=tmp_path / "d")


class TestDocuments:
    def test_annotation_roundtrip(self, tmp_path):
        annotated = D.gen_synthetic(3, 64, 3, seed=4, out_dir=tmp_path / "d")
        loaded = D.load_annotations(tmp_path / "d" / "annotations.txt")
        assert loaded == annotated

    def test_dataset_arrays_align_with_annotations(self, tmp_path):
        D.gen_synthetic(3, 64, 3, seed=4, out_dir=tmp_path / "d")
        arrays = D.load_dataset_arrays(tmp_path / "d")
        assert len(arrays) == 3
        for img, boxes in arrays:
            assert img.shape == (3, 64, 64)
            assert boxes

    def test_detections_roundtrip(self, tmp_path):
        per_image = {
            "images/img_00000.ppm": [Detection((1.0, 2.0, 3.5, 4.25), 0.75, 2)],
            "images/img_00001.ppm": [],
        }
        path = tmp_path / "dets.txt"
        D.save_detections(per_image, path)
        assert path.read_text().startswith("version 1")
        back = D.load_detections(path)
        assert back == per_image

    def test_truncated_annotations_rejected(self, tmp_path):
        D.gen_synthetic(3, 64, 3, seed=4, out_dir=tmp_path / "d")
        path = tmp_path / "d" / "annotations.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")  # first image line and one box line
        with pytest.raises(ValueError, match="line 3: image announces"):
            D.load_annotations(path)
        path.write_text("\n".join(lines[:2]) + "\n")  # count line but no image
        with pytest.raises(ValueError, match="line 2: count 3 != 0 image lines"):
            D.load_annotations(path)

    def test_truncated_detections_rejected(self, tmp_path):
        path = tmp_path / "dets.txt"
        path.write_text("version 1\ncount 1\nimage a.ppm 3\ndet 0 0.5 1.0 2.0 3.0 4.0\n")
        with pytest.raises(ValueError, match="line 3: image announces 3 det lines, 1 follow"):
            D.load_detections(path)
        path.write_text("version 1\ncount 1\nimage a.ppm 1\ndet 0 0.5 1.0\n")
        with pytest.raises(ValueError, match="line 4: expected a 7-field det line"):
            D.load_detections(path)

    # each bad value, on line 4 of a document that is otherwise valid
    @pytest.mark.parametrize("line,want", [
        ("det 0 nan 1 2 3 4", "'nan' is not a finite number"),
        ("det 0 inf 1 2 3 4", "'inf' is not a finite number"),
        ("det 0 -inf 1 2 3 4", "'-inf' is not a finite number"),
        ("det 0 1.5 1 2 3 4", "score 1.5 must be in [0, 1]"),
        ("det 0 -0.25 1 2 3 4", "score -0.25 must be in [0, 1]"),
        ("det -1 0.5 1 2 3 4", "class id -1 must be >= 0"),
        ("det 0 0.5 1 2 inf 4", "'inf' is not a finite number"),
        ("det 0 0.5 3 2 1 4", "box (3.0, 2.0, 1.0, 4.0) must have x1 <= x2 and y1 <= y2"),
        ("det 0 0.5 1 4 3 2", "box (1.0, 4.0, 3.0, 2.0) must have x1 <= x2 and y1 <= y2"),
        ("det 0.5 0.5 1 2 3 4", "invalid literal for int()"),
    ], ids=lambda v: v if v.startswith("det") else "")
    def test_invalid_detection_rejected_naming_file_and_line(self, tmp_path, line, want):
        path = tmp_path / "dets.txt"
        path.write_text(f"version 1\ncount 1\nimage a.ppm 1\n{line}\n")
        with pytest.raises(ValueError) as err:
            D.load_detections(path)
        assert str(err.value).startswith(f"{path} line 4: ") and want in str(err.value)

    @pytest.mark.parametrize("image,box,line,want", [
        ("16 16", "box -2 1 2 3 4", 4, "class id -2 must be >= 0"),
        ("16 16", "box 0 nan 2 3 4", 4, "'nan' is not a finite number"),
        ("16 16", "box 0 1 2 3 -inf", 4, "'-inf' is not a finite number"),
        ("16 16", "box 0 3 4 1 2", 4, "box (3.0, 4.0, 1.0, 2.0) must have x1 <= x2 and y1 <= y2"),
        ("-5 16", "box 0 1 2 3 4", 3, "image size -5x16 (height x width) must be at least 1x1"),
        ("16 0", "box 0 1 2 3 4", 3, "image size 16x0 (height x width) must be at least 1x1"),
    ], ids=["class-below-0", "nan-coordinate", "inf-coordinate", "reversed-box",
            "negative-height", "zero-width"])
    def test_invalid_annotation_rejected_naming_file_and_line(self, tmp_path, image, box, line,
                                                              want):
        path = tmp_path / "ann.txt"
        path.write_text(f"version 1\ncount 1\nimage a.ppm {image} 1\n{box}\n")
        with pytest.raises(ValueError) as err:
            D.load_annotations(path)
        assert str(err.value) == f"{path} line {line}: {want}"

    def test_degenerate_boxes_and_edge_scores_accepted(self, tmp_path):
        # clamping to the frame makes zero-width and zero-height boxes
        path = tmp_path / "dets.txt"
        path.write_text("version 1\ncount 1\nimage a.ppm 2\n"
                        "det 0 0.0 1 2 1 4\ndet 3 1.0 1 2 3 2\n")
        assert D.load_detections(path) == {"a.ppm": [Detection((1.0, 2.0, 1.0, 4.0), 0.0, 0),
                                                     Detection((1.0, 2.0, 3.0, 2.0), 1.0, 3)]}
        path.write_text("version 1\ncount 1\nimage a.ppm 1 1 1\nbox 0 5 5 5 5\n")
        assert D.load_annotations(path) == [D.AnnotatedImage("a.ppm", 1, 1, [(0, (5.0,) * 4)])]

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("version 2\ncount 0\n")
        with pytest.raises(ValueError):
            D.load_annotations(path)


# Vertical tab, form feed and the ASCII separators end a line for str.splitlines
# but not for these documents: a line holding one is one line.
# loader -> (load, text before line N, text after it, N, line holding {}, where {} lands)
_LINE_DOCUMENTS = {
    "checkpoint": (load_checkpoint, "CKPT 1\n", "end\n", 2, "meta n {}",
                   lambda got: got[0]["n"]),
    "config": (load_config, "seed = 1\n", "", 2, "out_dir = {}", lambda got: got.out_dir),
    "annotations": (D.load_annotations, "version 1\ncount 1\n", "", 3, "image {} 16 16 0",
                    lambda got: got[0].path),
}


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"], ids=repr)
@pytest.mark.parametrize("loader", list(_LINE_DOCUMENTS))
def test_line_holding_a_line_separator_is_one_line(tmp_path, loader, brk):
    load, head, tail, number, template, kept = _LINE_DOCUMENTS[loader]
    path = tmp_path / "doc"
    value = f"a{brk}b.ppm"
    path.write_bytes(f"{head}{template.format(value)}\n{tail}".encode())
    assert kept(load(path)) == value
    bad = f"bad{brk}line x"
    path.write_bytes(f"{head}{bad}\n{tail}".encode())
    with pytest.raises(ValueError) as err:
        load(path)
    assert f"line {number}: " in str(err.value) and repr(bad) in str(err.value)


# ---- round trips and damaged files -----------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
# one line of text: printable ASCII, spaces included
_name = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), min_size=1, max_size=12)
# a valid box: finite corners with x1 <= x2 and y1 <= y2, degenerate ones included
_box = st.tuples(_finite, _finite, _finite, _finite).map(
    lambda b: (min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3])))
_annotated = st.builds(
    D.AnnotatedImage, path=_name, height=st.integers(1, 4096), width=st.integers(1, 4096),
    boxes=st.lists(st.tuples(st.integers(0, 99), _box), max_size=3))
_detection = st.builds(Detection, box=_box, score=st.floats(0.0, 1.0),
                       class_id=st.integers(0, 99))


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=100, deadline=None)
@given(pixels=st.integers(1, 6).flatmap(lambda h: st.integers(1, 6).flatmap(
    lambda w: st.lists(st.integers(0, 255), min_size=3 * h * w, max_size=3 * h * w).map(
        lambda v: np.array(v, dtype=np.uint8).reshape(3, h, w)))))
def test_ppm_roundtrip_is_exact(doc_dir, pixels):
    image = pixels.astype(np.float32) / 255.0
    path = doc_dir / "round.ppm"
    D.save_ppm(image, path)
    back = D.load_ppm(path)
    assert back.dtype == np.float32 and np.array_equal(back, image)


@settings(max_examples=100, deadline=None)
@given(annotated=st.lists(_annotated, max_size=4))
def test_annotation_roundtrip_is_exact(doc_dir, annotated):
    path = doc_dir / "round_annotations.txt"
    D.save_annotations(annotated, path)
    assert D.load_annotations(path) == annotated


@settings(max_examples=100, deadline=None)
@given(per_image=st.dictionaries(_name, st.lists(_detection, max_size=3), max_size=4))
def test_detection_roundtrip_is_exact(doc_dir, per_image):
    path = doc_dir / "round_detections.txt"
    D.save_detections(per_image, path)
    assert D.load_detections(path) == per_image


@pytest.fixture(scope="module")
def good_documents(doc_dir):
    """The bytes of one valid PPM, annotation and detection document."""
    D.save_ppm(np.random.default_rng(0).random((3, 4, 5)), doc_dir / "good.ppm")
    D.save_annotations([D.AnnotatedImage("images/a b.ppm", 64, 48, [(1, (1.5, 2.0, 30.25, 40.0))]),
                        D.AnnotatedImage("images/c.ppm", 64, 64, [])], doc_dir / "good_ann.txt")
    D.save_detections({"images/a.ppm": [Detection((1.0, 2.0, 3.5, 4.25), 0.75, 2),
                                        Detection((0.0, 0.5, 9.0, 8.0), 0.125, 0)],
                       "images/b.ppm": []}, doc_dir / "good_det.txt")
    return {load: (doc_dir / name).read_bytes() for load, name in (
        (D.load_ppm, "good.ppm"), (D.load_annotations, "good_ann.txt"),
        (D.load_detections, "good_det.txt"))}


# A damaged document either loads or raises a ValueError subclass (UnicodeDecodeError
# included), never IndexError, KeyError or TypeError.
@pytest.mark.parametrize("load", [D.load_ppm, D.load_annotations, D.load_detections],
                         ids=lambda f: f.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_document_loads_or_raises_value_error(doc_dir, good_documents, load, data):
    path = doc_dir / "damaged"
    path.write_bytes(data.draw(damaged(good_documents[load])))
    try:
        load(path)
    except ValueError:
        pass
