#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload detect-desk --seed 1 --seconds 20 --trace 0

Run from the repository root. It imports ``ssmdet`` from ``src/`` and
drives it only through its public calls. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps each layer's calls with spans,
writes a Chrome trace and a per-layer table under ``perfbench/out/`` and
prints the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 when every output check passed, 1 when one failed and 2 when
the package cannot be found.
"""

import os

# fixed before numpy loads so OpenBLAS starts with this many threads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("detect-desk", "detect-n640", "train-desk"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _metric_block(values: dict) -> dict:
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def _table(values: dict) -> str:
    return "\n".join(f"{name:<34} {v:>14.6g} {unit}" for name, (v, unit) in values.items())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "ssmdet" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'ssmdet'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np

    import bench_workloads as wl

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} numpy={np.__version__} "
          f"blas_threads={BLAS_THREADS} cpus={os.cpu_count()}")
    # the generators take non-negative seeds; any integer maps onto one
    run, tracer = wl.run_workload(args.workload, args.seed % 2**63, args.seconds,
                                  bool(args.trace), OUT)
    correct = run.check_error is None
    if not correct:
        print(f"check failed: {run.check_error}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        unit = "step" if args.workload == "train-desk" else "image"
        values = tracer.layer_metrics(len(run.step_s), run.passes, run.detections)
        _, top = tracer.totals()
        covered = sum(row[1] for row in top.values()) / 1e9
        lines = [f"# per-layer table: {args.workload} seed {args.seed}, ms per {unit}, "
                 f"eval_map per pass",
                 f"window_s {run.window_s:.6g} top_level_spans_s {covered:.6g} "
                 f"coverage {covered / run.window_s:.4f}",
                 "# traced end-to-end (an untraced run of the same seed gives the overhead)",
                 *(_table(part) for part in wl.end_to_end(run)), "# per-layer", _table(values)]
        (OUT / f"{stem}-layers.txt").write_text("\n".join(lines) + "\n")
        tracer.write_chrome_trace(OUT / f"{stem}.trace.json", wl.TRACE_UNITS_WRITTEN)
        print("\n".join(lines[:2]))
    else:
        values, info = wl.end_to_end(run)
        print(_table(values))
        print("# informational, not gated\n" + _table(info))
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": _metric_block(values)}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
