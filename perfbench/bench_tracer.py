"""Span tracer that wraps the package's public calls for the traced run.

Nothing here changes the package: ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back. A span records its name, start, end, parent span and the
unit (image or training step) it belongs to; the self time of a span is
its duration minus the time its child spans cover. Spans are kept in
memory and written as Chrome trace-event JSON, which Perfetto opens.

Backward rules are timed by wrapping ``tensor.make_op``: a rule created
while a conv or scan span is innermost is replaced by a timed rule, so
the backward pass of those ops shows as ``<span>.bwd`` under
``tensor.backward``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from ssmdet import blocks, data, metrics, model, ops, ssm, tensor, train

_now = time.perf_counter_ns
_MISSING = object()

ACTIVATIONS = ("sigmoid", "silu", "softplus")
NORMS = ("batch_norm", "layer_norm")
LAYOUT = ("split_channels", "concat_channels", "channel_shuffle", "upsample_nearest")
CONV_KINDS = ("dw3x3", "pw1x1", "dense3x3")


def conv_kind(x_shape, w_shape, groups: int) -> str:
    c_in = x_shape[1]
    kh = w_shape[2]
    if kh == 1:
        return "pw1x1"
    return "dw3x3" if groups == c_in and groups > 1 else "dense3x3"


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent, name, start_ns, end_ns, self_ns, unit)
        self.stack = []        # [id, name, start_ns, child_ns]
        self.counts = defaultdict(float)
        self.unit = 0
        self.row_flops = {}    # layer-table row -> FLOPs per image
        self.row_part = {}     # layer-table row -> part
        self._next = 0
        self._patches = []

    # ---- spans ---------------------------------------------------------
    def begin(self, name: str) -> None:
        self._next += 1
        self.stack.append([self._next, name, _now(), 0])

    def end(self) -> None:
        t1 = _now()
        sid, name, t0, child = self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1][0] if self.stack else 0
        if self.stack:
            self.stack[-1][3] += dur
        self.spans.append((sid, parent, name, t0, t1, dur - child, self.unit))

    def innermost(self) -> str:
        return self.stack[-1][1] if self.stack else ""

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return wrapper

    # ---- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def install(self, detector, input_size: int) -> None:
        """Wrap each layer's public calls; rows come from ``_layer_table``."""
        t = self
        self._patch(data, "load_ppm", self.timed("data.load_ppm", data.load_ppm))
        self._patch(data, "letterbox", self.timed("data.letterbox", data.letterbox))
        self._patch(model.Detector, "forward", self.timed("model.forward", model.Detector.forward))
        self._patch(model, "decode", self.timed("model.decode", model.decode))
        self._patch(metrics, "eval_map", self.timed("metrics.eval_map", metrics.eval_map))

        # one span per row of the layer table; FLOPs per image from the table
        for part, name, module, _, _, flops in detector._layer_table(input_size):
            self.row_flops[name] = flops
            self.row_part[name] = part
            self._patch(module, "forward", self._row_wrapper(name, module.forward))

        conv2d = ops.conv2d

        def traced_conv2d(x, w, bias=None, stride=1, padding=0, groups=1):
            kind = "ops.conv2d." + conv_kind(x.shape, w.shape, groups)
            t.begin(kind)
            try:
                out = conv2d(x, w, bias, stride, padding, groups)
            finally:
                t.end()
            n, c_out, ho, wo = out.shape
            t.counts[kind + ".flops"] += 2 * w.shape[1] * w.shape[2] * w.shape[3] * c_out * ho * wo * n
            return out

        self._patch(ops, "conv2d", traced_conv2d)
        for name in ACTIVATIONS:
            self._patch(ops, name, self.timed("ops.act", getattr(ops, name)))
        for name in NORMS:
            self._patch(ops, name, self.timed("ops.norm", getattr(ops, name)))
        for name in LAYOUT:
            self._patch(ops, name, self.timed("ops.layout", getattr(ops, name)))

        scan = blocks.ssm_scan

        def traced_scan(x, delta, A, B, P, Q, *args, **kwargs):
            t.begin("ssm.scan")
            try:
                y = scan(x, delta, A, B, P, Q, *args, **kwargs)
            finally:
                t.end()
            t.counts["ssm.scan.calls"] += 1
            if y.requires_grad:
                bt, length, d = x.shape
                t.counts["ssm.scan.state_bytes"] += bt * length * d * A.shape[1] * x.data.itemsize
            return y

        self._patch(blocks, "ssm_scan", traced_scan)
        self._patch(blocks, "cross_scan", self.timed("ssm.cross", blocks.cross_scan))
        self._patch(blocks, "cross_merge", self.timed("ssm.cross", blocks.cross_merge))

        for owner in (tensor, ops, ssm):
            self._patch(owner, "make_op", self._make_op_wrapper(owner.make_op))
        self._patch(tensor, "backward", self.timed("tensor.backward", tensor.backward))

        self._patch(train, "detection_loss", self.timed("train.loss", train.detection_loss))
        sgd_step = train.SgdMomentum.step

        def traced_step(opt, lr):
            t.begin("train.optimizer")
            try:
                sgd_step(opt, lr)
            finally:
                t.end()
                t.unit += 1      # the optimizer step closes a training step

        self._patch(train.SgdMomentum, "step", traced_step)
        assign = train.assign_targets

        def counted_assign(*args, **kwargs):
            targets, positives = assign(*args, **kwargs)
            t.counts["train.positives"] += len(positives)
            return targets, positives

        self._patch(train, "assign_targets", counted_assign)

    def _row_wrapper(self, name, fn):
        t = self
        span = "model.layer." + name

        def wrapper(x, *args, **kwargs):
            t.counts["rows." + name + ".images"] += x.shape[0]
            t.begin(span)
            try:
                return fn(x, *args, **kwargs)
            finally:
                t.end()
        return wrapper

    def _make_op_wrapper(self, make_op):
        t = self

        def traced_make_op(out_data, rule, *inputs):
            inner = t.innermost()
            if inner.startswith("ops.conv2d.") or inner == "ssm.scan":
                rule = t.timed(inner + ".bwd", rule)
            out = make_op(out_data, rule, *inputs)
            t.counts["tensor.ops"] += 1
            if out.requires_grad:
                t.counts["tensor.tape_nodes"] += 1
                t.counts["tensor.tape_out_bytes"] += out.data.nbytes
            return out
        return traced_make_op

    # ---- output --------------------------------------------------------
    def chrome_trace(self, max_unit: int) -> dict:
        """Trace-event JSON of the spans of units < ``max_unit``."""
        t_zero = min((s[3] for s in self.spans), default=0)
        events = [{
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (t0 - t_zero) / 1e3, "dur": (t1 - t0) / 1e3, "pid": 1, "tid": 1,
            "args": {"id": sid, "parent": parent, "unit": unit, "self_us": self_ns / 1e3},
        } for sid, parent, name, t0, t1, self_ns, unit in self.spans if unit < max_unit]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, max_unit: int) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(max_unit), fh)

    def totals(self):
        """Per span name: (count, total ns, self ns); top-level spans apart."""
        by_name = defaultdict(lambda: [0, 0, 0])
        top = defaultdict(lambda: [0, 0, 0])
        for _, parent, name, t0, t1, self_ns, _ in self.spans:
            for table in (by_name, top) if parent == 0 else (by_name,):
                row = table[name]
                row[0] += 1
                row[1] += t1 - t0
                row[2] += self_ns
        return by_name, top

    def layer_metrics(self, units: int, passes: int, detections: int) -> dict:
        """Per-layer metrics, normalised per unit (image or step) and per
        eval pass. Model rows and parts, ``model.forward``/``decode`` and the
        ``train.*`` phases are span durations; ops, ssm and tensor.backward
        are self times."""
        by, _ = self.totals()
        per_unit = 1.0 / max(units, 1)
        total_ms = lambda n: by[n][1] / 1e6 * per_unit if n in by else 0.0
        self_ms = lambda n: by[n][2] / 1e6 * per_unit if n in by else 0.0
        gflops = lambda flops, ns: flops / ns if ns else 0.0
        count = lambda key: self.counts.get(key, 0.0) * per_unit
        m = {
            "data.load_ppm.ms": (total_ms("data.load_ppm"), "ms"),
            "data.letterbox.ms": (total_ms("data.letterbox"), "ms"),
            "model.forward.ms": (total_ms("model.forward"), "ms"),
            "model.decode.ms": (total_ms("model.decode"), "ms"),
        }
        parts = {}
        for name, flops in self.row_flops.items():
            span = "model.layer." + name
            ns = by[span][1] if span in by else 0
            done = flops * self.counts.get("rows." + name + ".images", 0.0)
            part = parts.setdefault(self.row_part[name], [0, 0.0])
            part[0] += ns
            part[1] += done
            m[span + ".ms"] = (ns / 1e6 * per_unit, "ms")
            m[span + ".gflops"] = (gflops(done, ns), "GFLOP/s")
        for part in ("stem", "backbone", "fusion", "neck", "head"):
            ns, done = parts.get(part, (0, 0.0))
            m[f"model.part.{part}.ms"] = (ns / 1e6 * per_unit, "ms")
            m[f"model.part.{part}.gflops"] = (gflops(done, ns), "GFLOP/s")
        for kind in CONV_KINDS:
            span = "ops.conv2d." + kind
            m[span + ".ms"] = (self_ms(span), "ms")
            m[span + ".gflops"] = (gflops(self.counts.get(span + ".flops", 0.0),
                                          by[span][2] if span in by else 0), "GFLOP/s")
            m[span + ".bwd_ms"] = (self_ms(span + ".bwd"), "ms")
        m.update({
            "ops.act.ms": (self_ms("ops.act"), "ms"),
            "ops.norm.ms": (self_ms("ops.norm"), "ms"),
            "ops.layout.ms": (self_ms("ops.layout"), "ms"),
            "ssm.scan.fwd_ms": (self_ms("ssm.scan"), "ms"),
            "ssm.scan.bwd_ms": (self_ms("ssm.scan.bwd"), "ms"),
            "ssm.scan.calls": (count("ssm.scan.calls"), "count"),
            "ssm.scan.state_mb": (count("ssm.scan.state_bytes") / 2**20, "MB"),
            "ssm.cross.ms": (self_ms("ssm.cross"), "ms"),
            "tensor.ops": (count("tensor.ops"), "count"),
            "tensor.tape_nodes": (count("tensor.tape_nodes"), "count"),
            "tensor.tape_out_mb": (count("tensor.tape_out_bytes") / 2**20, "MB"),
            "tensor.backward.ms": (self_ms("tensor.backward"), "ms"),
            "train.forward.ms": (total_ms("model.forward") if "train.optimizer" in by else 0.0, "ms"),
            "train.loss.ms": (total_ms("train.loss"), "ms"),
            "train.backward.ms": (total_ms("tensor.backward"), "ms"),
            "train.optimizer.ms": (total_ms("train.optimizer"), "ms"),
            "train.positives": (count("train.positives"), "count"),
            "metrics.eval_map.ms": (by["metrics.eval_map"][1] / 1e6 / passes
                                    if passes and "metrics.eval_map" in by else 0.0, "ms"),
            "metrics.detections": (detections / passes if passes else 0.0, "count"),
        })
        return m

