"""CLI subcommands: exit codes, summary lines, end-to-end pipeline."""

import numpy as np
import pytest

from ssmdet.cli import main


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_argument_exits_2():
    assert main(["gen-synthetic"]) == 2


@pytest.mark.parametrize("argv", [
    ["check-shapes", "--out", "runs"],
    ["check-shapes", "--conf", "0.5"],
    ["param-count", "--out", "runs"],
    ["param-count", "--conf", "0.5"],
    ["train-toy", "--data", "data", "--conf", "0.5"],
    ["infer", "--checkpoint", "model.ckpt", "--images", "img.ppm", "--scale", "n"],
    ["infer", "--checkpoint", "model.ckpt", "--images", "img.ppm", "--seed", "1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_option_the_subcommand_does_not_read_exits_2(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval-map", "infer"])
def test_directory_for_input_file_exits_1(tmp_path, capsys, command):
    argv = {"eval-map": ["eval-map", "--detections", str(tmp_path), "--annotations", str(tmp_path)],
            "infer": ["infer", "--checkpoint", str(tmp_path), "--images", str(tmp_path / "img.ppm")]}
    assert main(argv[command]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{command} error: ") and "directory" in lines[0]


# options named in a case's id, beside the subcommand and the value
_OPTIONS_IN_ID = ("--channels", "--states", "--count", "--image-size", "--seed", "--threads")


@pytest.mark.parametrize("argv", [
    ["param-count", "--input-size", "0"],
    ["param-count", "--input-size", "16"],
    ["param-count", "--input-size", "40"],
    ["param-count", "--input-size", "-32"],
    ["check-shapes", "--input-size", "0"],
    ["check-shapes", "--input-size", "40"],
    ["check-shapes", "--input-size", "-32"],
    ["scan-bench", "--lengths", "16", "--block-lens", "8", "--repeats", "0"],
    ["scan-bench", "--lengths", "16", "--block-lens", "8", "--channels", "0"],
    ["scan-bench", "--lengths", "16", "--block-lens", "8", "--states", "0"],
    ["scan-bench", "--lengths", "16", "--block-lens", "8", "--states", "-1"],
    ["grad-check", "--block", "upsample", "--seeds", "0"],
    ["grad-check", "--block", "upsample", "--seeds", "-1"],
    ["gen-synthetic", "--out", "OUT", "--count", "0"],
    ["gen-synthetic", "--out", "OUT", "--count", "-1"],
    ["gen-synthetic", "--out", "OUT", "--image-size", "3"],
    ["gen-synthetic", "--out", "OUT", "--image-size", "0"],
    ["gen-synthetic", "--out", "OUT", "--image-size", "-8"],
    ["gen-synthetic", "--out", "OUT", "--seed", "-1"],
    ["scan-bench", "--lengths", "16", "--block-lens", "8", "--seed", "-1"],
    # rejected before the (missing) checkpoint is read
    ["infer", "--checkpoint", "OUT", "--images", "OUT", "--out", "OUT", "--threads", "0"],
    ["infer", "--checkpoint", "OUT", "--images", "OUT", "--out", "OUT", "--threads", "-3"],
], ids=lambda argv: f"{argv[0]}{argv[-2] if argv[-2] in _OPTIONS_IN_ID else ''}{argv[-1]}")
def test_bad_size_exits_1_with_one_error_line(capsys, tmp_path, argv):
    out_dir = tmp_path / "out"
    assert main([str(out_dir) if a == "OUT" else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    size = int(argv[-1])
    pad = f"; pad by {-size % 32}x{-size % 32}" if size > 0 else ""
    want = f"input {size}x{size} must be positive and divisible by 32{pad}"
    if argv[0] == "scan-bench":
        want = f"{argv[-2][2:]} {size} must be >= 1"
    if argv[0] == "grad-check":
        want = f"seeds {size} must be >= 1"
    minimum = {"--count": 1, "--image-size": 4, "--seed": 0, "--threads": 1}.get(argv[-2])
    if minimum is not None:
        want = f"{argv[-2][2:]} {size} must be >= {minimum}"
    assert captured.err.splitlines() == [f"{argv[0]} error: {want}"]
    assert not out_dir.exists()


def test_gen_synthetic_accepts_the_smallest_values(tmp_path, capsys):
    assert main(["gen-synthetic", "--out", str(tmp_path), "--count", "1",
                 "--image-size", "4", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith("gen-synthetic images=1 ")


def test_param_count_summary_line(capsys):
    assert main(["param-count", "--scale", "n"]) == 0
    out = capsys.readouterr().out
    assert "param-count scale=n params=" in out
    assert "flops=" in out


def test_check_shapes_ok(capsys):
    assert main(["check-shapes", "--input-size", "64"]) == 0
    out = capsys.readouterr().out.strip()
    assert "check-shapes ok=true" in out
    assert "grids=8x8,4x4,2x2" in out


def test_grad_check_single_block(capsys):
    assert main(["grad-check", "--block", "upsample", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "grad-check blocks=1 failed=0" in out


def test_scan_bench_writes_csv(tmp_path, capsys):
    assert main(["scan-bench", "--lengths", "16,32", "--channels", "2",
                 "--states", "2", "--block-lens", "8", "--repeats", "1",
                 "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "scan_bench.csv").read_text().strip().split("\n")
    assert csv[0].startswith("impl,")
    assert len(csv) == 1 + 2 * 2


def test_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("input_size = 100\n")
    assert main(["param-count", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("config,argv,want", [
    ("num_classes = 0\n", ["param-count"], "num_classes 0 must be >= 1"),
    ("", ["check-shapes", "--seed", "-1"], "seed -1 must be >= 0"),
    # rejected before the (missing) data directory is read
    ("momentum = 2\n", ["train-toy", "--data", "missing"], "momentum 2.0 must be in [0, 1)"),
    ("width_override = inf\n", ["param-count"],
     "width_override inf must be finite and >= 0 (0 keeps the scale's own)"),
    ("depth_override = -1\n", ["param-count"],
     "depth_override -1.0 must be finite and >= 0 (0 keeps the scale's own)"),
    ("lr_final = -0.5\n", ["train-toy", "--data", "missing"], "lr_final -0.5 must be >= 0"),
], ids=["num-classes-0", "seed-1", "momentum-2", "width-inf", "depth-negative", "lr-final-negative"])
def test_bad_config_value_exits_1_with_one_error_line(tmp_path, capsys, config, argv, want):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [f"{argv[0]} error: {want}"]


def test_full_pipeline(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(
        "scale = n\nwidth_override = 0.125\ninput_size = 64\n"
        "batch_size = 2\nepochs = 1\nnum_classes = 3\nseed = 0\n"
        f"out_dir = {run_dir}\n")

    assert main(["gen-synthetic", "--out", str(data_dir), "--count", "4",
                 "--image-size", "64", "--classes", "3", "--seed", "1"]) == 0
    assert main(["train-toy", "--config", str(cfg), "--data", str(data_dir)]) == 0
    assert (run_dir / "model.ckpt").exists()
    assert (run_dir / "metrics.txt").exists()

    image = data_dir / "images" / "img_00000.ppm"
    assert main(["infer", "--config", str(cfg), "--checkpoint", str(run_dir / "model.ckpt"),
                 "--images", str(image), "--conf", "0.0001", "--out", str(run_dir)]) == 0
    det_doc = run_dir / "detections.txt"
    assert det_doc.exists()

    out = capsys.readouterr().out
    assert "gen-synthetic images=4" in out
    assert "train-toy epochs=1" in out
    assert "infer images=1" in out


def test_eval_map_on_perfect_detections(tmp_path, capsys):
    from ssmdet import data as D
    from ssmdet.model import Detection

    data_dir = tmp_path / "data"
    annotated = D.gen_synthetic(3, 64, 3, seed=2, out_dir=data_dir)
    per_image = {
        ann.path: [Detection(box, 0.95, cls) for cls, box in ann.boxes]
        for ann in annotated
    }
    det_doc = tmp_path / "dets.txt"
    D.save_detections(per_image, det_doc)
    assert main(["eval-map", "--detections", str(det_doc),
                 "--annotations", str(data_dir / "annotations.txt")]) == 0
    out = capsys.readouterr().out
    assert "mAP50=1.0000" in out
    assert "recall=1.0000" in out


def test_eval_map_on_truncated_documents_exits_1(tmp_path, capsys):
    from ssmdet import data as D

    data_dir = tmp_path / "data"
    D.gen_synthetic(3, 64, 3, seed=2, out_dir=data_dir)
    annotations = data_dir / "annotations.txt"
    good_dets = tmp_path / "dets.txt"
    D.save_detections({}, good_dets)
    cut_dets = tmp_path / "cut_dets.txt"
    cut_dets.write_text("version 1\ncount 1\nimage images/img_00000.ppm 3\n"
                        "det 0 0.5 1.0 2.0 3.0 4.0\n")
    assert main(["eval-map", "--detections", str(cut_dets),
                 "--annotations", str(annotations)]) == 1
    lines = annotations.read_text().splitlines()
    annotations.write_text("\n".join(lines[:4]) + "\n")
    assert main(["eval-map", "--detections", str(good_dets),
                 "--annotations", str(annotations)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("eval-map error: ") == 2
    assert "cut_dets.txt line 3: image announces 3 det lines" in err
    assert "annotations.txt line 3: image announces" in err


@pytest.mark.parametrize("damage", ["drop", "extra", "meta"])
def test_infer_rejects_mismatched_checkpoint(tmp_path, capsys, damage):
    from ssmdet import data as D, tensorio
    from ssmdet.model import Detector, get_scale

    D.gen_synthetic(1, 64, 3, seed=3, out_dir=tmp_path / "data")
    ckpt = tmp_path / "model.ckpt"
    Detector(get_scale("n", 3, width_override=0.125)).save_checkpoint(ckpt)
    meta, tensors = tensorio.load_checkpoint(ckpt)
    if damage == "drop":
        del tensors["csp3.dw.norm.gain"]
    elif damage == "extra":
        tensors["extra.weight"] = np.zeros(2, dtype=np.float32)
    else:
        del meta["scale"]
    tensorio.save_checkpoint(ckpt, tensors, meta)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"input_size = 64\nout_dir = {tmp_path / 'run'}\n")
    assert main(["infer", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--images", str(tmp_path / "data" / "images" / "img_00000.ppm")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    want = {"drop": "1 missing entries ['csp3.dw.norm.gain']",
            "extra": "1 unexpected ['extra.weight']",
            "meta": "no meta lines ['scale']"}[damage]
    assert err.startswith("infer error: checkpoint has ") and want in err


@pytest.mark.parametrize("bad_class", ["5-classes", "negative"])
def test_train_toy_rejects_out_of_range_class_ids(tmp_path, capsys, bad_class):
    data_dir = tmp_path / "data"
    classes = "5" if bad_class == "5-classes" else "3"
    assert main(["gen-synthetic", "--out", str(data_dir), "--count", "4",
                 "--image-size", "64", "--classes", classes, "--seed", "1"]) == 0
    annotations = data_dir / "annotations.txt"
    lines = annotations.read_text().splitlines()
    box_ids = [int(line.split()[1]) for line in lines if line.startswith("box ")]
    if bad_class == "5-classes":
        assert max(box_ids) >= 3
    else:
        last = max(i for i, line in enumerate(lines) if line.startswith("box "))
        lines[last] = "box -1 " + lines[last].split(" ", 2)[2]
        annotations.write_text("\n".join(lines) + "\n")
    # index, in annotation order, of the first image that holds a bad id
    images = [line for line in lines if line.startswith(("image ", "box "))]
    bad_line = next(i for i, line in enumerate(images)
                    if line.startswith("box ") and not 0 <= int(line.split()[1]) < 3)
    bad_image = sum(line.startswith("image ") for line in images[:bad_line]) - 1
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("scale = n\nwidth_override = 0.125\ninput_size = 64\n"
                   "batch_size = 4\nepochs = 1\nnum_classes = 3\nseed = 0\n"
                   f"out_dir = {tmp_path / 'run'}\n")
    capsys.readouterr()
    assert main(["train-toy", "--config", str(cfg), "--data", str(data_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    err = captured.err.splitlines()
    if bad_class == "negative":
        # load_annotations rejects a class id below 0, naming its line
        assert err == [f"train-toy error: {annotations} line {last + 1}: class id -1 must be >= 0"]
        return
    assert len(err) == 1 and err[0].startswith(f"train-toy error: dataset image {bad_image} has ")
    assert "outside [0, 3)" in err[0]


def test_train_toy_zero_epochs_summary_has_no_losses(tmp_path, capsys):
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert main(["gen-synthetic", "--out", str(data_dir), "--count", "2",
                 "--image-size", "64", "--seed", "1"]) == 0
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("scale = n\nwidth_override = 0.125\ninput_size = 64\n"
                   f"epochs = 0\nbatch_size = 1\nout_dir = {run_dir}\n")
    capsys.readouterr()
    assert main(["train-toy", "--config", str(cfg), "--data", str(data_dir)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"train-toy epochs=0 out={run_dir}"]
    assert captured.err == ""
    assert (run_dir / "model.ckpt").exists()


def test_infer_multithreaded_matches_single(tmp_path):
    from ssmdet import data as D

    data_dir = tmp_path / "data"
    run_dir_a, run_dir_b = tmp_path / "a", tmp_path / "b"
    D.gen_synthetic(3, 64, 3, seed=3, out_dir=data_dir)
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("scale = n\nwidth_override = 0.125\ninput_size = 64\n"
                   "epochs = 0\nbatch_size = 1\nnum_classes = 3\n"
                   f"out_dir = {run_dir_a}\n")
    assert main(["train-toy", "--config", str(cfg), "--data", str(data_dir)]) == 0
    images = [str(data_dir / "images" / f"img_{i:05d}.ppm") for i in range(3)]
    ckpt = str(run_dir_a / "model.ckpt")
    assert main(["infer", "--config", str(cfg), "--checkpoint", ckpt,
                 "--images", *images, "--conf", "0.001", "--out", str(run_dir_a)]) == 0
    assert main(["infer", "--config", str(cfg), "--checkpoint", ckpt,
                 "--images", *images, "--conf", "0.001", "--out", str(run_dir_b),
                 "--threads", "3"]) == 0
    assert (run_dir_a / "detections.txt").read_text() == \
        (run_dir_b / "detections.txt").read_text()


# one bad value in a document that is otherwise valid: (detection line, annotation box line)
@pytest.mark.parametrize("det,box,want", [
    ("det 0 nan 1 2 3 4", "box 0 1 2 3 4", "dets.txt line 4: 'nan' is not a finite number"),
    ("det 0 inf 1 2 3 4", "box 0 1 2 3 4", "dets.txt line 4: 'inf' is not a finite number"),
    ("det 0 0.5 1 2 3 4", "box -2 1 2 3 4", "ann.txt line 4: class id -2 must be >= 0"),
    ("det 0 0.5 1 2 3 4", "box 0 nan 2 3 4", "ann.txt line 4: 'nan' is not a finite number"),
    ("det 0 0.5 1 2 3 4", "box 0 3 4 1 2",
     "ann.txt line 4: box (3.0, 4.0, 1.0, 2.0) must have x1 <= x2 and y1 <= y2"),
], ids=["nan-score", "inf-score", "negative-class", "nan-box", "reversed-box"])
def test_eval_map_rejects_invalid_values_with_one_error_line(tmp_path, capsys, det, box, want):
    dets, ann = tmp_path / "dets.txt", tmp_path / "ann.txt"
    dets.write_text(f"version 1\ncount 1\nimage a.ppm 1\n{det}\n")
    ann.write_text(f"version 1\ncount 1\nimage a.ppm 16 16 1\n{box}\n")
    assert main(["eval-map", "--detections", str(dets), "--annotations", str(ann)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"eval-map error: {tmp_path / want}"]


def test_eval_map_rejects_negative_image_height(tmp_path, capsys):
    dets, ann = tmp_path / "dets.txt", tmp_path / "ann.txt"
    dets.write_text("version 1\ncount 1\nimage a.ppm 1\ndet 0 0.5 1 2 3 4\n")
    ann.write_text("version 1\ncount 1\nimage a.ppm -5 16 1\nbox 0 1 2 3 4\n")
    assert main(["eval-map", "--detections", str(dets), "--annotations", str(ann)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"eval-map error: {ann} line 3: image size -5x16 (height x width) must be at least 1x1"]


# a desk checkpoint with one meta line replaced: (line, replacement)
_BAD_META = {
    "width-inf": (b"meta width 0.125", b"meta width inf"),
    "width-nan": (b"meta width 0.125", b"meta width nan"),
    "width-text": (b"meta width 0.125", b"meta width wide"),
    "depth-zero": (b"meta depth 0.33", b"meta depth 0.0"),
    "classes-zero": (b"meta num_classes 3", b"meta num_classes 0"),
    "classes-float": (b"meta num_classes 3", b"meta num_classes 3.5"),
    "scale-unknown": (b"meta scale n", b"meta scale zz"),
}


@pytest.mark.parametrize("bad", ["checkpoint", "image", "manifest", "non-ascii", "header-comment",
                                 *_BAD_META])
def test_infer_malformed_input_exits_1(tmp_path, capsys, bad):
    from ssmdet.model import Detector, get_scale

    ckpt, image = tmp_path / "model.ckpt", tmp_path / "img.ppm"
    if bad in ("checkpoint", "manifest", "non-ascii"):
        ckpt.write_bytes({"checkpoint": b"CKPT \nend\n", "manifest": b"CKPT 1\ngarbage\nend\n",
                          "non-ascii": b"CKPT 1\nmeta n \xff\nend\n"}[bad])
    else:
        Detector(get_scale("n", 3, width_override=0.125)).save_checkpoint(ckpt)
        if bad in _BAD_META:
            line, replacement = _BAD_META[bad]
            raw = ckpt.read_bytes()
            assert raw.count(line + b"\n") == 1
            ckpt.write_bytes(raw.replace(line + b"\n", replacement + b"\n"))
    image.write_bytes({"image": b"P6\n0 0\n255\n", "header-comment": b"P6\n# no line end"}
                      .get(bad, b"P6\n1 1\n255\n\x00\x00\x00"))
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(f"input_size = 64\nout_dir = {tmp_path / 'run'}\n")
    assert main(["infer", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--images", str(image)]) == 1
    err = capsys.readouterr().err.splitlines()
    want = {"checkpoint": "unsupported checkpoint version ''",
            "image": "image size 0x0 must be at least 1x1",
            "manifest": "malformed checkpoint manifest line 2: 'garbage'",
            "non-ascii": "malformed checkpoint manifest line 2: 'meta n \ufffd'",
            "header-comment": f"load_ppm: {image}: truncated header",
            "width-inf": "scale width inf and depth 0.33 must be finite and positive",
            "width-nan": "scale width nan and depth 0.33 must be finite and positive",
            "width-text": "checkpoint meta width 'wide' does not parse as float",
            "depth-zero": "scale width 0.125 and depth 0.0 must be finite and positive",
            "classes-zero": "num_classes 0 must be >= 1",
            "classes-float": "checkpoint meta num_classes '3.5' does not parse as int",
            "scale-unknown": "unknown scale 'zz'"}[bad]
    assert len(err) == 1 and err[0].startswith("infer error: ") and want in err[0]
