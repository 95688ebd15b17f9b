"""Benchmark harness: checksum gating and CSV output."""

import pytest

from ssmdet.bench import BenchRow, ChecksumMismatch, bench_scan, rows_to_csv


def test_rows_cover_every_configuration():
    rows = bench_scan([16, 32], channels=4, states=4, block_lens=[4, 8], repeats=2)
    assert len(rows) == 2 * (1 + 2)
    impls = [(r.impl, r.length, r.block_len) for r in rows]
    assert ("seq", 16, 0) in impls
    assert ("blocked", 32, 8) in impls


def test_checksums_agree_between_implementations():
    rows = bench_scan([24], channels=3, states=5, block_lens=[6], repeats=1)
    sums = {r.impl: r.checksum for r in rows}
    assert sums["seq"] == pytest.approx(sums["blocked"], abs=1e-9)


def test_checksum_mismatch_aborts(monkeypatch):
    from ssmdet import bench as bench_mod

    def corrupted(x, params, block_len):
        res = bench_mod.selective_scan_seq(x, params)
        res.y = res.y + 1.0
        return res

    monkeypatch.setattr(bench_mod, "selective_scan_blocked", corrupted)
    with pytest.raises(ChecksumMismatch):
        bench_mod.bench_scan([16], channels=2, states=3, block_lens=[4], repeats=1)


def test_csv_layout():
    rows = [BenchRow("seq", 8, 2, 3, 0, 1234, 5.5)]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "impl,L,D,N,block_len,wall_ns_median,checksum"
    assert lines[1].startswith("seq,8,2,3,0,1234,")


def test_timing_is_positive():
    rows = bench_scan([32], channels=2, states=2, block_lens=[8], repeats=2)
    assert all(r.wall_ns_median > 0 for r in rows)


@pytest.mark.parametrize("kwargs,name", [
    ({"channels": 0}, "channels 0"),
    ({"states": 0}, "states 0"),
    ({"states": -1}, "states -1"),
    ({"repeats": 0}, "repeats 0"),
])
def test_sizes_below_one_rejected(kwargs, name):
    args = {"channels": 2, "states": 2, "repeats": 1, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
        bench_scan([16], block_lens=[4], **args)
