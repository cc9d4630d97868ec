"""The workloads: fixed job mixes over parkfn's public API, each job with the
check of its output, and the mix of `parkfn` command-line runs that traced
runs time.

A job maps a job seed to an output; its check returns the list of ways the
output is wrong (empty when it is right) and runs outside the timed region.
Every workload has a full-size mix and a tiny mix of the same jobs; the tiny
mix is the warm-up during set-up and the smoke test of the benchmark.

parkfn is imported by `setup`, not at module import, so that set-up time
includes it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Any, Callable, Optional

WORKLOADS = ("mc-small-n", "mc-large-n", "exact")
REFERENCE_SEED = 42
GOLDEN_PATH = Path(__file__).with_name("golden.json")
STANDARD_FEATURES = ("descent-pattern", "equality-pattern", "weak-descent-pattern",
                     "species", "inversions", "longest-run")
CHILD_TIMEOUT_S = 120  # a fresh interpreter that takes longer has failed


@dataclass
class Job:
    name: str
    run: Callable[[int], Any]
    check: Callable[[Any, int], list[str]]
    fingerprint: Callable[[Any], str]
    items: int = 0  # functions drawn or enumerated by one run
    golden: bool = False  # has a golden digest at the reference seed
    subcommand: str = ""  # cli jobs only


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    golden: dict


def job_seed(seed: int, round_index: int, job_index: int) -> int:
    return ((seed % (1 << 40)) * 1_000_003 + round_index * 1009 + job_index) % (1 << 63)


# --- fingerprints ---------------------------------------------------------

def _canon(v):
    if isinstance(v, (tuple, list)):
        import numpy as np

        return np.asarray(v).tolist()  # Python ints or floats, whatever the input type
    if isinstance(v, numbers.Integral):
        return int(v)
    return float(v)


def bins_digest(bins: dict) -> str:
    """Digest of a histogram's bins that ignores key order and key type
    (tuple or list, Python or numpy number)."""
    items = sorted((json.dumps(_canon(k)), int(c)) for k, c in bins.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def value_digest(value) -> str:
    # pickle, not repr: repr refuses integers of more than 4300 digits
    return hashlib.sha256(pickle.dumps(value)).hexdigest()[:16]


def _show(value) -> str:
    try:
        return repr(value)[:300]
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# --- Monte Carlo jobs -----------------------------------------------------

@dataclass
class MCOutput:
    hist: Any
    payload_bytes: int
    ks: Optional[tuple[float, float]]  # (vs excursion, vs bridge)


def _replay_value(stat: str, values: tuple[int, ...], n: int, m: int):
    """The statistic of one replayed function, from the scalar API."""
    from parkfn import stats

    if stat == "first":
        return values[0]
    if stat == "scaled-area":
        return stats.scaled_area(values)
    if stat == "lucky":
        return stats.lucky(values)
    if stat == "inversions":
        return stats.inversions(values)
    if stat == "species":
        return stats.species(values, m=m)
    if stat == "kmax":
        decomp = stats.max_first_coordinate(values[1:])
        return 0 if decomp is None else decomp.k
    if stat == "descent-pattern":
        return stats.descent_pattern(values)
    if stat == "scaled-max-discrepancy":
        counts = [0] * (m + 1)
        for v in values:
            counts[v] += 1
        running = best = 0
        for k in range(1, m + 1):
            running += counts[k]
            best = max(best, running - k)
        return best / math.sqrt(n)
    raise ValueError(stat)


def mc_job(n: int, stat: str, count: int, ensemble_name: str = "pf", ks: bool = False,
           first_mean: Optional[float] = None) -> Job:
    from parkfn import core, ensemble, sample

    if ks:
        from parkfn import limits
    m = n + 1 if ensemble_name == "fn1" else n
    config = dict(n=n, count=count, ensemble=ensemble_name, statistic=stat)

    def run(seed: int) -> MCOutput:
        hist = ensemble.run_experiment(ensemble.ExperimentConfig(seed=seed, **config))
        payload = json.dumps(hist.to_json_dict(), default=str)
        distances = None
        if ks:
            distances = (ensemble.ks_distance_to_limit(hist, limits.max_discrepancy_cdf),
                         ensemble.ks_distance_to_limit(hist, limits.bridge_max_cdf))
        return MCOutput(hist, len(payload), distances)

    replay = True  # once per job and run: a replay costs a third of a job at n = 10^5

    def replay_one(seed: int, bins: dict) -> list[str]:
        nonlocal replay
        replay = False
        index = seed % count
        rng = sample.split_stream(seed, index)
        if ensemble_name == "pf":
            values = tuple(sample.sample_parking_function(n, rng))
            if not core.is_parking_function(values):
                return [f"replayed sample {index} is not a parking function"]
        else:
            values = sample.sample_uniform_function(n, m, rng).values
        value = _replay_value(stat, values, n, m)
        if bins.get(value, 0) < 1:
            return [f"replayed sample {index} has {stat}={value!r}, absent from the bins"]
        return []

    def check(out: MCOutput, seed: int) -> list[str]:
        hist = out.hist
        errors = []
        if hist.total != count or (hist.n, hist.count, hist.seed) != (n, count, seed):
            errors.append(f"histogram total {hist.total} for count {count}")
        if replay:
            errors += replay_one(seed, hist.bins)
        if first_mean is not None:
            se = math.sqrt(hist.summaries["var"] / count)
            if abs(hist.summaries["mean"] - first_mean) > 6 * se:
                errors.append(f"mean first {hist.summaries['mean']} is over 6 SE "
                              f"from the exact {first_mean}")
        if out.ks is not None:
            excursion, bridge = out.ks
            if not (0 <= excursion <= 1 and 0 <= bridge <= 1):
                errors.append(f"KS distances {out.ks} outside [0, 1]")
            elif (excursion < bridge) != (ensemble_name == "pf"):
                errors.append(f"KS distances {out.ks} favour the wrong limit law")
        return errors

    name = f"{ensemble_name}-{n}-{stat}"
    return Job(name, run, check, lambda out: bins_digest(out.hist.bins), items=count,
               golden=True)


def mc_small_jobs(tiny: bool) -> list[Job]:
    from parkfn import enumeration

    n, count = (12, 20) if tiny else (100, 100)
    jobs = [mc_job(n, stat, count) for stat in
            ("scaled-area", "lucky", "inversions", "species", "kmax", "descent-pattern")]
    jobs.insert(0, mc_job(n, "first", count,
                          first_mean=float(enumeration.exact_mean_first(n))))
    jobs.append(mc_job(2 * n, "scaled-max-discrepancy", count))
    jobs += [mc_job(n, stat, count, ensemble_name="fn1")
             for stat in ("species", "descent-pattern")]
    return jobs


def mc_large_jobs(tiny: bool, golden: dict) -> list[Job]:
    from parkfn import enumeration

    if tiny:
        n, small_n, counts = 2000, 200, dict(first=4, area=4, smd=40, lucky=4)
        mean_first = float(enumeration.exact_mean_first(n))
    else:
        n, small_n, counts = 100_000, 10_000, dict(first=25, area=6, smd=18, lucky=4)
        # exact_mean_first(100000) takes a minute; golden.json holds its value.
        mean_first = float(golden["exact_mean_first_100000"])
    return [
        mc_job(n, "first", counts["first"], first_mean=mean_first),
        mc_job(n, "scaled-area", counts["area"]),
        mc_job(n, "scaled-max-discrepancy", counts["smd"], ks=True),
        mc_job(n, "scaled-max-discrepancy", counts["smd"], ensemble_name="fn1", ks=True),
        mc_job(small_n, "lucky", counts["lucky"]),
    ]


# --- exact jobs -----------------------------------------------------------

def area_polynomial(n: int) -> list[int]:
    """Coefficients of sum over PF_n of q^area, by Kreweras's recurrence for
    the inversion enumerator of trees:
    I_{m+1}(q) = sum_i C(m-1, i) [i+1]_q I_{i+1}(q) I_{m-i}(q), I_1 = 1."""
    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    enum = {1: [1]}
    for m in range(1, n + 1):
        total: list[int] = []
        for i in range(m):
            term = mul([comb(m - 1, i)] * (i + 1), mul(enum[i + 1], enum[m - i]))
            total += [0] * (len(term) - len(total))
            for k, c in enumerate(term):
                total[k] += c
        enum[m + 1] = total
    return enum[n + 1]


def mean_first_by_census(n: int) -> Fraction:
    """E(pi_1) from the first-coordinate census with the order of summation
    swapped: sum_s C(n-1, s) (s+1)^{s-1} (n-s)^{n-s-2} (n-s)(n-s+1)/2 over
    (n+1)^{n-1}, with 1^{-1} = 1 at the boundary terms."""
    total = 0
    for s in range(n):
        left = (s + 1) ** (s - 1) if s >= 1 else 1
        right = (n - s) ** (n - s - 2) if n - s >= 2 else 1
        total += comb(n - 1, s) * left * right * (n - s) * (n - s + 1) // 2
    return Fraction(total, (n + 1) ** (n - 1))


def _exact_job(name: str, run: Callable[[], Any], expect: Callable[[Any], list[str]],
               items: int = 0) -> Job:
    return Job(name, lambda seed: run(), lambda out, seed: expect(out),
               value_digest, items=items)


def _equal(label: str, actual, expected) -> list[str]:
    return [] if actual == expected else [f"{label}: got {_show(actual)}, expected {_show(expected)}"]


def exact_jobs(tiny: bool) -> list[Job]:
    from parkfn import ensemble, enumeration, limits

    # Sizes below those of the acceptance tests (n = 7 and 6, count_first at
    # 300) keep a round near half a second, so that each job runs often
    # enough in a run for its best time to settle.
    big, small, census_n, mean_n = (5, 4, 12, 40) if tiny else (6, 5, 150, 3000)
    pf_big, pf_small, fn_small = (big + 1) ** (big - 1), (small + 1) ** (small - 1), (small + 1) ** small
    jobs = [
        _exact_job(f"enumerate_pf({big})",
                   lambda: sum(1 for _ in enumeration.enumerate_pf(big)),
                   lambda c: _equal("count", c, pf_big), items=pf_big),
        _exact_job(f"exhaustive_histogram({big}, area)",
                   lambda: ensemble.exhaustive_histogram(big, "area").bins,
                   lambda bins: _equal("area census", [bins.get(k, 0) for k in range(
                       max(bins) + 1)], area_polynomial(big)), items=pf_big),
    ]
    for stat in enumeration.GF_STATISTICS:
        jobs.append(_exact_job(
            f"gf_statistic({small}, {stat})",
            lambda stat=stat: enumeration.gf_statistic(small, stat),
            lambda poly, stat=stat: _equal(stat, poly, enumeration.gf_closed_form(small, stat)),
            items=pf_small))
    for feature in STANDARD_FEATURES:
        jobs.append(_exact_job(
            f"exact_equidistribution({small}, {feature})",
            lambda feature=feature: ensemble.exact_equidistribution(small, feature).equal,
            lambda equal: _equal("equal", equal, True), items=pf_small + fn_small))
    m = small + 1
    peak_count = m ** (small - 3) * (m - 1) * m * (m + 1) // 3
    for i in range(2, small):
        jobs.append(_exact_job(
            f"weak_peak_check({small}, {i})",
            lambda i=i: ensemble.weak_peak_check(small, i),
            lambda r: _equal("weak peak (equal, pf, f)", (r.equal, r.pf_count, r.f_count),
                             (True, peak_count // m, peak_count)),
            items=pf_small + fn_small))

    @functools.cache
    def census_mean() -> Fraction:  # slow: computed once, in the first check
        return mean_first_by_census(mean_n)

    jobs += [
        _exact_job(f"joint_coordinate_bound_check({small}, 2)",
                   lambda: ensemble.joint_coordinate_bound_check(small, 2),
                   lambda r: _equal("holds", r.holds and r.max_difference <= r.bound, True),
                   items=pf_small),
        _exact_job(f"count_first({census_n}, k) over k",
                   lambda: sum(enumeration.count_first(census_n, k)
                               for k in range(1, census_n + 1)),
                   lambda total: _equal("sum", total, (census_n + 1) ** (census_n - 1))),
        _exact_job(f"exact_mean_first({mean_n})",
                   lambda: enumeration.exact_mean_first(mean_n),
                   lambda mean: _equal("mean", mean, census_mean())),
        _exact_job("excursion_max_mean",
                   lambda: limits.excursion_max_mean(),
                   lambda mean: [] if abs(mean - math.sqrt(math.pi / 2)) < 1e-9
                   else [f"excursion max mean {mean} != sqrt(pi/2)"]),
    ]
    return jobs


# --- cli jobs -------------------------------------------------------------

@dataclass
class CLIOutput:
    returncode: int
    stdout: str
    stderr: str


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",", 1) for line in lines[1:]]


def cli_jobs(tiny: bool) -> list[Job]:
    import parkfn
    from parkfn import core, ensemble, enumeration, limits, stats

    src = str(Path(parkfn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    stats_n, dist_max, enum_n, verify_n, compare_n = (5, 0.5, 3, 3, 3) if tiny else (8, 3.0, 6, 6, 5)
    sample_n, sample_count = (10, 50) if tiny else (50, 2000)

    def stats_input(seed: int) -> tuple[int, ...]:
        # a_i uniform on [1, i] gives a parking function in any order; drawn
        # without parkfn so that a traced run records no in-process draw
        rng = random.Random(seed)
        values = [rng.randint(1, i) for i in range(1, stats_n + 1)]
        rng.shuffle(values)
        return tuple(values)

    def cli(subcommand: str, make_args: Callable[[int], list[str]],
            expect: Callable[[CLIOutput, int], list[str]], items: int = 0,
            golden: bool = False, fingerprint: Callable[[CLIOutput], str] | None = None) -> Job:
        def run(seed: int) -> CLIOutput:
            proc = subprocess.run([sys.executable, "-m", "parkfn.cli", *make_args(seed)],
                                  capture_output=True, text=True, env=env,
                                  timeout=CHILD_TIMEOUT_S)
            return CLIOutput(proc.returncode, proc.stdout, proc.stderr)

        def check(out: CLIOutput, seed: int) -> list[str]:
            if out.returncode != 0:
                return [f"exit code {out.returncode}: {out.stderr.strip()[-300:]}"]
            try:
                return expect(out, seed)
            except (ValueError, KeyError, IndexError) as exc:
                return [f"unparseable output ({exc!r})"]

        return Job(f"cli {subcommand}", run, check,
                   fingerprint or (lambda out: text_digest(out.stdout)),
                   items=items, golden=golden, subcommand=subcommand)

    def expect_stats(out: CLIOutput, seed: int) -> list[str]:
        values = stats_input(seed)
        got = json.loads(out.stdout)
        expected = {
            "function": ",".join(map(str, values)),
            "is_parking_function": True,
            "first": values[0],
            "lucky": stats.lucky(values),
            "area": core.inconvenience(values),
            "inversions": stats.inversions(values),
            "descent-pattern": list(stats.descent_pattern(values)),
            "species": list(stats.species(values, m=stats_n)),
            "max-discrepancy": stats.max_discrepancy(values),
        }
        return [f"stats {k}: got {got.get(k)!r}, expected {v!r}"
                for k, v in expected.items() if got.get(k) != v]

    def expect_dist(out: CLIOutput, seed: int) -> list[str]:
        rows = _csv_rows(out.stdout)
        errors = _equal("dist rows", len(rows), round(dist_max / 0.1) + 1)
        for arg, value in rows:
            if abs(float(value) - limits.max_discrepancy_cdf(float(arg))) > 1e-12:
                errors.append(f"dist at {arg}: {value}")
        return errors

    def expect_enumerate(out: CLIOutput, seed: int) -> list[str]:
        rows = dict(_csv_rows(out.stdout))
        expected = {"total": str((enum_n + 1) ** (enum_n - 1)),
                    "mean_first": str(enumeration.exact_mean_first(enum_n))}
        expected.update({f"first={k}": str(enumeration.count_first(enum_n, k))
                         for k in range(1, enum_n + 1)})
        return _equal("enumerate rows", rows, expected)

    expected_hists: dict[int, dict] = {}

    def sample_bins(out: CLIOutput) -> dict:
        return {tuple(b["value"]) if isinstance(b["value"], list) else b["value"]: b["count"]
                for b in json.loads(out.stdout)["bins"]}

    def expect_sample(out: CLIOutput, seed: int) -> list[str]:
        if seed not in expected_hists:
            expected_hists[seed] = ensemble.run_experiment(ensemble.ExperimentConfig(
                n=sample_n, count=sample_count, seed=seed, statistic="lucky")).bins
        return _equal("sample bins", sample_bins(out), expected_hists[seed])

    def expect_verify(out: CLIOutput, seed: int) -> list[str]:
        lines = out.stdout.strip().splitlines()
        return _equal("verify last line", lines[-1] if lines else "", "all identities verified")

    def expect_compare(out: CLIOutput, seed: int) -> list[str]:
        expected = {}
        for feature in STANDARD_FEATURES:
            report = ensemble.exact_equidistribution(compare_n, feature)
            expected[feature] = "equal" if report.equal else f"UNEQUAL at {report.witness}"
        for i in range(2, compare_n):
            report = ensemble.weak_peak_check(compare_n, i)
            expected[f"weak-peak@{i}"] = "equal" if report.equal else "UNEQUAL"
        return _equal("compare rows", dict(_csv_rows(out.stdout)), expected)

    return [
        cli("version", lambda seed: ["--version"],
            lambda out, seed: _equal("version", out.stdout.strip(), parkfn.__version__)),
        cli("stats", lambda seed: ["stats", "--pf", ",".join(map(str, stats_input(seed)))],
            expect_stats),
        cli("dist", lambda seed: ["dist", "--dist", "excursion-max", "--max", str(dist_max)],
            expect_dist),
        cli("enumerate", lambda seed: ["enumerate", "--n", str(enum_n)], expect_enumerate),
        cli("sample", lambda seed: ["sample", "--n", str(sample_n), "--count", str(sample_count),
                                    "--seed", str(seed), "--stat", "lucky", "--format", "json"],
            expect_sample, items=sample_count, golden=True,
            fingerprint=lambda out: bins_digest(sample_bins(out))),
        cli("verify", lambda seed: ["verify", "--n-max", str(verify_n)], expect_verify),
        cli("compare", lambda seed: ["compare", "--n", str(compare_n)], expect_compare),
    ]


# --- set-up ---------------------------------------------------------------

def build(name: str, tiny: bool) -> Workload:
    """The job mix of a workload, or, for "cli", the command-line runs."""
    golden = load_golden()
    if name == "mc-small-n":
        jobs = mc_small_jobs(tiny)
    elif name == "mc-large-n":
        jobs = mc_large_jobs(tiny, golden)
    elif name == "exact":
        jobs = exact_jobs(tiny)
    elif name == "cli":
        jobs = cli_jobs(tiny)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, jobs, golden.get(name, {}) if not tiny else {})


def setup(name: str, tiny: bool = False) -> Workload:
    """Import parkfn, build the workload's job mix and warm up: run the tiny
    mix once, discarding the outputs."""
    import parkfn  # noqa: F401

    workload = build(name, tiny)
    for job in build(name, tiny=True).jobs:
        job.run(0)
    return workload
