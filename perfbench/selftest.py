"""Tests of the benchmark itself.  They are kept out of the package's test
suite; run them from the root of the checkout with

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv) -> tuple[dict, dict]:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace", [
    ("mc-small-n", 0), ("mc-small-n", 1), ("mc-large-n", 0), ("exact", 0), ("exact", 1),
])
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    details, result = _result(capsys, ["--workload", workload, "--seed", "5", "--seconds", "0",
                                       "--trace", str(trace), "--tiny"])
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCHMARK["per_layer" if trace else "end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    assert details["provenance"]["bit_generator"] == "Philox"
    if trace:
        assert all(result["metrics"][f"cli.{sub}.p50_s"]["value"] > 0 for sub in run.SUBCOMMANDS)
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in names)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def test_missing_package_is_an_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "exact", "--seed", "1", "--seconds", "1"]) != 0


def _failed_frac(workload: wl.Workload) -> float:
    out = run.run_rounds(workload, seed=3, rounds=1, seconds=0)
    return out.failed / out.attempted


def test_corrupted_histogram_bin_is_a_failure(monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = wl.setup("mc-small-n", tiny=True)
    assert _failed_frac(workload) == 0
    job = workload.jobs[0]
    honest = job.run

    def corrupted(seed):
        out = honest(seed)
        key = next(iter(out.hist.bins))
        out.hist.bins[key] += 1
        return out

    job.run = corrupted
    assert _failed_frac(workload) > 0


def test_corrupted_closed_form_is_a_failure(monkeypatch):
    monkeypatch.chdir(ROOT)
    honest = wl.area_polynomial
    monkeypatch.setattr(wl, "area_polynomial", lambda n: [c + 1 for c in honest(n)])
    assert _failed_frac(wl.setup("exact", tiny=True)) > 0


def test_golden_digest_mismatch_is_a_failure():
    workload = wl.build("mc-small-n", tiny=False)
    workload.jobs = workload.jobs[:1]
    assert run.check_golden(workload)[1] == 0
    workload.golden = {workload.jobs[0].name: "0" * 16}
    attempted, failed, failures = run.check_golden(workload)
    assert (attempted, failed) == (1, 1) and "golden" in failures[0]


def test_oracles_match_the_library():
    from parkfn import enumeration, ensemble

    for n in range(1, 7):
        bins = ensemble.exhaustive_histogram(n, "area").bins
        assert wl.area_polynomial(n) == [bins.get(k, 0) for k in range(max(bins) + 1)]
        assert wl.mean_first_by_census(n) == enumeration.exact_mean_first(n)
    assert wl.mean_first_by_census(200) == enumeration.exact_mean_first(200)
    assert isinstance(wl.mean_first_by_census(3), Fraction)


def test_tail_is_the_eleventh_largest():
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 3)
    latencies = [float(i) for i in range(1, 101)]
    value, percentile, count = run.tail(latencies)
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert sum(lat > value for lat in latencies) == run.TAIL_BEYOND


def test_bins_digest_ignores_key_type_and_order():
    import numpy as np

    a = {(1, 0): 2, (0, 1): 3}
    b = {(np.int64(0), np.int64(1)): 3, (1, 0): 2}
    assert wl.bins_digest(a) == wl.bins_digest(b)
    assert wl.bins_digest({0.5: 1}) != wl.bins_digest({0.5000000000000001: 1})
