"""Command-line entry points.

Every subcommand ends with one machine-readable summary line and exits 0
on success, 1 on a failed check, 2 on usage errors (argparse's default).
Runs are deterministic for a fixed (config, seed) in the default
single-threaded mode; `infer --threads K` may fan out across images, with
outputs kept in input order.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bench, data
from .config import ConfigError, RunConfig, load_config
from .metrics import eval_map
from .model import Detector, check_input_size, get_scale
from .tensor import Tensor
from .train import TrainingDiverged, train_toy
from .verify import GRAD_CHECKS, run_grad_suite

__all__ = ["main"]


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "scale", None):
        cfg.scale = args.scale
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "conf", None) is not None:
        cfg.conf_threshold = args.conf
    return cfg.validate()


def _require_at_least(*checks) -> None:
    """Reject the first ``(option, value, minimum)`` whose value is below its minimum."""
    for name, value, low in checks:
        if value < low:
            raise ValueError(f"{name} {value} must be >= {low}")


def _build_model(cfg: RunConfig) -> Detector:
    spec = get_scale(
        cfg.scale, cfg.num_classes,
        width_override=cfg.width_override or None,
        depth_override=cfg.depth_override or None)
    return Detector(spec, seed=cfg.seed)


def _cmd_check_shapes(args) -> int:
    cfg = _load_run_config(args)
    size = args.input_size
    check_input_size(size, size)
    spec = get_scale(cfg.scale, cfg.num_classes, width_override=0.125)
    model = Detector(spec, seed=cfg.seed).eval()
    images = Tensor(np.zeros((1, 3, size, size), dtype=np.float32))
    pyramid, maps = model(images)
    grids = [cls.shape[2:] for cls, _ in maps]
    want = [(size // s, size // s) for s in model.STRIDES]
    stem_hw = (size // 4, size // 4)
    ok = grids == want
    grid_txt = ",".join(f"{h}x{w}" for h, w in grids)
    print(f"check-shapes ok={str(ok).lower()} input={size} grids={grid_txt} "
          f"stem={stem_hw[0]}x{stem_hw[1]} p3_channels={pyramid.p3.shape[1]}")
    return 0 if ok else 1


def _cmd_grad_check(args) -> int:
    names = list(GRAD_CHECKS) if args.all or not args.block else args.block
    unknown = [n for n in names if n not in GRAD_CHECKS]
    if unknown:
        print(f"grad-check error=unknown-blocks {','.join(unknown)}")
        return 2
    _require_at_least(("seeds", args.seeds, 1))
    results = run_grad_suite(names, seeds=range(args.seeds))
    failed = 0
    for name, reports in results.items():
        bad = [r for r in reports if not r.passed]
        failed += bool(bad)
        worst = max(r.max_rel_err for r in reports)
        status = "pass" if not bad else "FAIL"
        print(f"  {name}: {status} seeds={len(reports)} max_rel_err={worst:.3e}")
    print(f"grad-check blocks={len(results)} failed={failed}")
    return 0 if failed == 0 else 1


def _cmd_scan_bench(args) -> int:
    lengths = [int(v) for v in args.lengths.split(",")]
    block_lens = [int(v) for v in args.block_lens.split(",")]
    _require_at_least(("seed", args.seed, 0))
    rows = bench.bench_scan(lengths, args.channels, args.states, block_lens,
                            repeats=args.repeats, seed=args.seed)
    csv = bench.rows_to_csv(rows)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "scan_bench.csv").write_text(csv)
    else:
        sys.stdout.write(csv)
    print(f"scan-bench rows={len(rows)} lengths={args.lengths}")
    return 0


def _cmd_param_count(args) -> int:
    cfg = _load_run_config(args)
    model = _build_model(cfg)
    params = model.count_params()
    flops = model.count_flops(args.input_size)
    if args.summary:
        sys.stdout.write(model.summary(args.input_size))
    print(f"param-count scale={cfg.scale} params={params} flops={flops} "
          f"input={args.input_size}")
    return 0


def _cmd_gen_synthetic(args) -> int:
    # below 4 px a shape and its margin do not fit in the image
    _require_at_least(("count", args.count, 1), ("image-size", args.image_size, 4),
                      ("seed", args.seed, 0))
    annotated = data.gen_synthetic(args.count, args.image_size, args.classes,
                                   args.seed, args.out)
    n_boxes = sum(len(a.boxes) for a in annotated)
    print(f"gen-synthetic images={len(annotated)} boxes={n_boxes} out={args.out}")
    return 0


def _cmd_train_toy(args) -> int:
    cfg = _load_run_config(args)
    dataset = data.load_dataset_arrays(args.data)
    model = _build_model(cfg)
    try:
        records = train_toy(model, dataset, cfg)
    except TrainingDiverged as err:
        print(f"train-toy diverged step={err.step}")
        return 1
    losses = (f" first_loss={records[0]['loss']:.4g} last_loss={records[-1]['loss']:.4g}"
              if records else "")
    print(f"train-toy epochs={len(records)}{losses} out={cfg.out_dir}")
    return 0


def _cmd_infer(args) -> int:
    _require_at_least(("threads", args.threads, 1))
    cfg = _load_run_config(args)
    model = Detector.from_checkpoint(args.checkpoint)
    paths = [Path(p) for p in args.images]

    def run_one(path: Path):
        image = data.load_ppm(path)
        boxed, scale, offsets = data.letterbox(image, cfg.input_size)
        dets = model.detect(Tensor(boxed[None]), cfg.conf_threshold)[0]
        for d in dets:
            d.box = data.unletterbox_box(d.box, scale, offsets)
        return dets

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(run_one, paths))
    else:
        results = [run_one(p) for p in paths]
    per_image = {str(p): dets for p, dets in zip(paths, results)}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data.save_detections(per_image, out / "detections.txt")
    total = sum(len(d) for d in results)
    print(f"infer images={len(paths)} detections={total} conf={cfg.conf_threshold} "
          f"out={out / 'detections.txt'}")
    return 0


def _cmd_eval_map(args) -> int:
    annotated = data.load_annotations(args.annotations)
    dets = data.load_detections(args.detections)
    predictions = [dets.get(a.path, dets.get(str(a.path), [])) for a in annotated]
    truth = [a.boxes for a in annotated]
    m = eval_map(predictions, truth)
    print(f"eval-map mAP50={m['mAP50']:.4f} mAP75={m['mAP75']:.4f} "
          f"mAP50:95={m['mAP50:95']:.4f} precision={m['precision']:.4f} "
          f"recall={m['recall']:.4f}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ssmdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: a subcommand without --conf must reject it, not read it as --config
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p):
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--scale", type=str, default=None, choices=["n", "s", "m", "N", "S", "M"])
        p.add_argument("--seed", type=int, default=None)

    p = add("check-shapes", help="verify stride ladder and head grids")
    common(p)
    p.add_argument("--input-size", type=int, default=64)
    p.set_defaults(fn=_cmd_check_shapes)

    p = add("grad-check", help="finite-difference checks per block")
    p.add_argument("--all", action="store_true")
    p.add_argument("--block", nargs="*", default=None)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(fn=_cmd_grad_check)

    p = add("scan-bench", help="time sequential vs blocked scans")
    p.add_argument("--lengths", type=str, default="1024,2048,4096")
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--states", type=int, default=16)
    p.add_argument("--block-lens", type=str, default="16,64")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_scan_bench)

    p = add("param-count", help="report parameters and FLOPs")
    common(p)
    p.add_argument("--input-size", type=int, default=640)
    p.add_argument("--summary", action="store_true")
    p.set_defaults(fn=_cmd_param_count)

    p = add("gen-synthetic", help="write a deterministic shapes dataset")
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--image-size", type=int, default=160)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen_synthetic)

    p = add("train-toy", help="overfit-scale training run")
    common(p)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--data", type=str, required=True)
    p.set_defaults(fn=_cmd_train_toy)

    p = add("infer", help="detect objects in PPM images")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--conf", type=float, default=None)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--images", nargs="+", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_infer)

    p = add("eval-map", help="score detections against annotations")
    p.add_argument("--detections", type=str, required=True)
    p.add_argument("--annotations", type=str, required=True)
    p.set_defaults(fn=_cmd_eval_map)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, OSError, ValueError) as err:
        print(f"{args.command} error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
