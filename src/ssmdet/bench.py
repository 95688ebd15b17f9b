"""Scan timing harness with checksum-verified implementations.

Rows report the median wall time over repeats. The blocked rows time the
chunked scan core that ``ssm_scan`` runs inside the detector; each is
checked against the sequential reference before any timing so a broken
kernel can never publish numbers.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .ssm import SSMParams, selective_scan_blocked, selective_scan_seq

__all__ = ["BenchRow", "ChecksumMismatch", "bench_scan", "rows_to_csv"]

_CSV_HEADER = "impl,L,D,N,block_len,wall_ns_median,checksum"


class ChecksumMismatch(RuntimeError):
    pass


@dataclass
class BenchRow:
    impl: str
    length: int
    channels: int
    states: int
    block_len: int
    wall_ns_median: int
    checksum: float

    def csv(self) -> str:
        return (f"{self.impl},{self.length},{self.channels},{self.states},"
                f"{self.block_len},{self.wall_ns_median},{self.checksum:.9e}")


def _random_instance(rng, length, channels, states):
    params = SSMParams(
        A=rng.uniform(-2.0, -0.1, (channels, states)),
        B=rng.standard_normal((channels, states)),
        P=rng.standard_normal((channels, states)),
        Q=rng.standard_normal(channels),
        delta=rng.uniform(0.001, 0.1, (length, channels)),
    )
    x = rng.standard_normal((length, channels))
    return x, params


def bench_scan(lengths, channels: int, states: int, block_lens, repeats: int = 5,
               seed: int = 0) -> list[BenchRow]:
    """Time every configuration; returns one row per (impl, L, block_len).

    Checksums gate admission: a blocked variant whose output sum differs
    from the sequential reference is rejected before any timing. Repeats
    interleave round-robin across configurations so a transient slow
    phase of the host does not bias any single row, and the collector is
    paused while sampling.
    """
    for name, value in (("repeats", repeats), ("channels", channels), ("states", states)):
        if value < 1:
            raise ValueError(f"{name} {value} must be >= 1")
    rng = np.random.default_rng(seed)
    runs = []     # (row skeleton without time, closure)
    for length in lengths:
        x, params = _random_instance(rng, length, channels, states)
        ref_sum = float(selective_scan_seq(x, params).y.sum())
        runs.append(((("seq", length, channels, states, 0, ref_sum)),
                     lambda x=x, p=params: selective_scan_seq(x, p)))
        for block_len in block_lens:
            got = float(selective_scan_blocked(x, params, block_len).y.sum())
            if abs(got - ref_sum) > 1e-9 * max(1.0, abs(ref_sum)):
                raise ChecksumMismatch(
                    f"L={length} block_len={block_len}: checksum {got!r} != {ref_sum!r}")
            runs.append(((("blocked", length, channels, states, block_len, got)),
                         lambda x=x, p=params, b=block_len: selective_scan_blocked(x, p, b)))

    samples: list[list[int]] = [[] for _ in runs]
    for _, fn in runs:
        fn()  # warm caches and allocator before sampling
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for slot, (_, fn) in zip(samples, runs):
                t0 = time.perf_counter_ns()
                fn()
                slot.append(time.perf_counter_ns() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    return [
        BenchRow(impl, length, d, n, block_len, int(np.median(slot)), checksum)
        for ((impl, length, d, n, block_len, checksum), _), slot in zip(runs, samples)
    ]


def rows_to_csv(rows) -> str:
    return "\n".join([_CSV_HEADER] + [r.csv() for r in rows]) + "\n"
