"""Golden histograms: the bins and summaries of `run_experiment` at a fixed
seed, pinned bit for bit for every statistic on every ensemble.

A change to the sampler or a statistic kernel that moves any bin, any bin
key's type or any summary fails here.  Where an experiment raises (`lucky`
on a draw that is not a parking function), the exception type is pinned.

Regenerate only when a change of results is intended:
`PYTHONPATH=src python tests/test_golden_histograms.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from parkfn import ExperimentConfig, run_experiment
from parkfn.ensemble import ENSEMBLES, STATISTICS

GOLDEN_PATH = Path(__file__).with_name("golden_histograms.json")
SEED = 161109821
COUNT = 300
SIZES = (1, 2, 7, 100)
# The pinned cases: each registry statistic under its name, but longest-run
# (under "<") as "longest-run<"; longest-run under "=" has none.
CASES = sorted("longest-run<" if s == "longest-run" else s
               for s in STATISTICS if s != "longest-run=")


def _config(case: str, ensemble: str, n: int) -> ExperimentConfig:
    statistic = "longest-run" if case == "longest-run<" else case
    return ExperimentConfig(n=n, count=COUNT, seed=SEED, ensemble=ensemble, statistic=statistic)


def fingerprint(case: str, ensemble: str, n: int) -> dict:
    """Digest of the bins (keys by repr, so a numpy scalar or a float in place
    of an int changes it) and the exact summaries, or the exception type."""
    try:
        hist = run_experiment(_config(case, ensemble, n))
    except Exception as exc:  # the exception type is what gets pinned
        return {"raises": type(exc).__name__}
    bins = sorted((repr(k), type(c).__name__, c) for k, c in hist.bins.items())
    digest = hashlib.sha256(json.dumps(bins).encode()).hexdigest()[:24]
    summaries = {k: [type(v).__name__, v] for k, v in hist.summaries.items()}
    return {"bins": digest, "distinct": len(bins), "summaries": summaries}


def _key(ensemble: str, n: int) -> str:
    return f"{ensemble}/{n}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_histograms_match_golden(case, golden):
    expected = golden[case]
    assert set(expected) == {_key(e, n) for e in ENSEMBLES for n in SIZES}
    for ensemble in ENSEMBLES:
        for n in SIZES:
            # JSON round-trips the summary floats exactly
            assert fingerprint(case, ensemble, n) == expected[_key(ensemble, n)], (ensemble, n)


if __name__ == "__main__":
    table = {case: {_key(e, n): fingerprint(case, e, n) for e in ENSEMBLES for n in SIZES}
             for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
