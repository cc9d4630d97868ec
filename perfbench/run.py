"""parkfn benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload mc-small-n --seed 1 --seconds 20 --trace 0

Run from the root of a parkfn checkout; the package is imported from its
`src` directory.  The run sets up (imports parkfn, builds the job mix, warms
up), then repeats rounds of the whole mix, in an order shuffled from the
seed and with job seeds drawn from it, for about `--seconds` seconds of job
time.  Every job's output is checked outside its timed region, and every
job with a golden digest is also run at the reference seed and compared
with it.  Fresh interpreters that measure set-up and import time run one at
a time between rounds.

With `--trace 0` the last line of standard output holds the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced pass
over the same jobs as an untraced pass, and of the cli layer, timed on
`parkfn` subcommands run in fresh interpreters.  The line before it holds the
details: provenance, the tail percentile and job count, the raw timings and
the failures.  perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, Sequence

import spans
import workloads as wl

SETUP_SAMPLES = 3  # the run's own set-up and two fresh interpreters
IMPORT_SAMPLES = 8
IMPORTTIME_SAMPLES = 3
CLI_ROUNDS = 3
TAIL_BEYOND = 10
MIN_ROUNDS = 3  # each job's best time is taken over at least this many runs
STATS = ("first", "scaled-area", "lucky", "inversions", "species", "kmax",
         "descent-pattern", "scaled-max-discrepancy", "area")
SUBCOMMANDS = ("version", "stats", "dist", "enumerate", "sample", "verify", "compare")
IMPORT_PACKAGES = ("numpy", "scipy", "sympy", "mpmath", "parkfn")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny job sizes (smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the set-up time (used for setup_s)")
    return p.parse_args(argv)


# --- the loop ---------------------------------------------------------------

class Run:
    """Outcome of a pass over rounds of the job mix."""

    def __init__(self) -> None:
        self.latencies: list[tuple[int, float]] = []  # (job index, seconds)
        self.rounds = 0
        self.fingerprints: dict[tuple[int, int], str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(lat for _j, lat in self.latencies)


def run_rounds(workload: wl.Workload, seed: int, rounds: int | None, seconds: float,
               tracer: spans.Tracer | None = None, check: bool = True,
               interludes: Sequence[Callable[[], None]] = ()) -> Run:
    """Run `rounds` rounds or, when it is None, as many whole rounds as the
    first round's job time fits into `seconds`, and at least MIN_ROUNDS.  Outputs
    are checked (or, with `check` false, only fingerprinted) outside the
    timed region.  The interludes run between rounds, spread evenly."""
    out = Run()
    done = 0
    while rounds is None or out.rounds < rounds:
        r = out.rounds
        order = list(range(len(workload.jobs)))
        random.Random(f"{seed}:{r}").shuffle(order)
        busy = 0.0
        for j in order:
            job = workload.jobs[j]
            js = wl.job_seed(seed, r, j)
            out.attempted += 1
            if tracer is not None:
                tracer.job = job.name
                tracer.enter("job")
            t0 = time.perf_counter()
            try:
                result = job.run(js)
            except Exception as exc:  # a failed job is counted, the run goes on
                result = None
                out.failed += 1
                out.failures.append(f"{job.name} seed {js}: raised {exc!r}")
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.leave()
            out.latencies.append((j, latency))
            busy += latency
            if result is None:
                continue
            if tracer is not None and isinstance(result, wl.MCOutput):
                tracer.calls["ensemble.serialize.bytes"] += result.payload_bytes
                tracer.calls["samples"] += job.items
            errors = job.check(result, js) if check else []
            out.failed += bool(errors)
            out.failures += [f"{job.name} seed {js}: {e}" for e in errors]
            out.fingerprints[(r, j)] = job.fingerprint(result) if not errors else "failed"
        out.rounds += 1
        if rounds is None:
            rounds = max(MIN_ROUNDS, int(seconds // busy))
        for interlude in interludes[done:len(interludes) * out.rounds // rounds]:
            interlude()
            done += 1
    return out


def check_golden(workload: wl.Workload) -> tuple[int, int, list[str]]:
    """Run every job that has a golden digest at the reference seed; returns
    the jobs attempted and failed, and the failures."""
    failures = []
    failed = 0
    jobs = [job for job in workload.jobs if job.golden and workload.golden]
    for job in jobs:
        try:
            result = job.run(wl.REFERENCE_SEED)
        except Exception as exc:  # counted as a failure of the golden job
            errors = [f"raised {exc!r}"]
        else:
            errors = job.check(result, wl.REFERENCE_SEED)
            got = job.fingerprint(result) if not errors else "failed"
            if got != workload.golden.get(job.name):
                errors.append(f"digest {got} != golden {workload.golden.get(job.name)}")
        failed += bool(errors)
        failures += [f"golden {job.name}: {e}" for e in errors]
    return len(jobs), failed, failures


# --- fresh interpreters -----------------------------------------------------

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))


def setup_sample(args: argparse.Namespace) -> float:
    """Set-up time of this workload in a fresh interpreter."""
    cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=wl.CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_sample() -> float:
    """Wall time of a fresh `python -c "import parkfn"`.  The exit is awaited
    on a pidfd: `Popen.wait` with a timeout polls every 50 ms, which would
    round the time up to the next poll."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import parkfn"], env=child_env())
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], wl.CHILD_TIMEOUT_S)
    finally:
        os.close(pidfd)
    elapsed = time.perf_counter() - t0
    if not exited:
        proc.kill()
    if proc.wait() != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return elapsed


def import_breakdown(count: int) -> dict[str, float]:
    """Median self time of each package's modules while importing parkfn.cli,
    from `python -X importtime`."""
    samples: dict[str, list[float]] = {pkg: [] for pkg in IMPORT_PACKAGES}
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import parkfn.cli"],
                              env=child_env(), capture_output=True, text=True,
                              timeout=wl.CHILD_TIMEOUT_S, check=True)
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _cumulative, module = line[len("import time:"):].split("|")
            package = module.strip().split(".")[0]
            if package in totals:
                totals[package] += int(self_us) / 1e6
        for pkg, total in totals.items():
            samples[pkg].append(total)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


# --- reporting --------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The latency at the highest percentile with at least TAIL_BEYOND jobs
    beyond it, that percentile, and the job count (the maximum when there
    are too few jobs)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def provenance(args: argparse.Namespace) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    from parkfn import __version__, sample

    return {
        "python": sys.version.split()[0],
        "parkfn": __version__,
        **{pkg: version(pkg) for pkg in ("numpy", "scipy", "sympy", "mpmath")},
        "bit_generator": type(sample.RngStream(0)._gen.bit_generator).__name__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": args.seed,
        "reference_seed": wl.REFERENCE_SEED,
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: wl.Workload, run: Run, setup_s: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics.  The same job (same sizes, another seed) runs once
    a round, so its lowest latency in the run is its cost with the least
    interference from other load on the machine; every job run is timed at
    that cost for the percentiles and the throughputs.  The raw timings are
    kept in the details."""
    best: dict[int, float] = {}
    for j, lat in run.latencies:
        best[j] = min(lat, best.get(j, lat))
    timed = [best[j] for j, _lat in run.latencies]
    job_tail, percentile, count = tail(timed)
    producing = [j for j in best if workload.jobs[j].items]
    raw = [lat for _j, lat in run.latencies]
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "samples_per_s": metric(sum(workload.jobs[j].items for j in producing)
                                / sum(best[j] for j in producing), "1/s"),
        "jobs_per_s": metric(len(best) / sum(best.values()), "1/s"),
        "job_p50_s": metric(statistics.median(timed), "s"),
        "job_tail_s": metric(job_tail, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    details = {
        "tail_percentile": percentile, "jobs": count, "rounds": run.rounds,
        "best_latency_s": {workload.jobs[j].name: best[j] for j in sorted(best)},
        "raw_job_p50_s": statistics.median(raw), "raw_job_tail_s": tail(raw)[0],
        "setup_samples_s": setup_s,
    }
    return metrics, details


def per_layer(untraced: Run, traced: Run, tracer: spans.Tracer, cli: wl.Workload,
              cli_run: Run, import_s: list[float], imports: dict[str, float]) -> dict:
    """Per-layer metrics, per round of the job mix; the cli layer from fresh
    interpreters."""
    rounds = traced.rounds
    calls = {k: v / rounds for k, v in tracer.calls.items()}
    self_s = {k: v / rounds for k, v in tracer.self_s.items()}
    m: dict[str, dict] = {}

    def pair(name: str, count_key: str = "calls") -> None:
        m[f"{name}.{count_key}"] = metric(calls.get(name, 0), "count")
        m[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")

    pair("sample.split_stream")
    pair("sample.draw")
    samples = calls.get("samples", 0)
    m["sample.draw.draws_per_sample"] = metric(
        calls.get("sample.draw", 0) / samples if samples else 0.0, "ratio")
    for stat in STATS:
        pair(f"stats.{stat}")
    pair("stats.feature")
    pair("core.park")
    m["core.construct.calls"] = metric(calls.get("core.construct", 0), "count")
    for name in ("run_experiment", "histogram", "serialize", "equidistribution"):
        m[f"ensemble.{name}.self_s"] = metric(self_s.get(f"ensemble.{name}", 0.0), "s")
    m["ensemble.serialize.bytes"] = metric(calls.get("ensemble.serialize.bytes", 0), "bytes")
    pair("ensemble.distance")
    for name in ("profiles", "expand", "all_functions"):
        pair(f"enumeration.{name}", "count")
    pair("enumeration.oracle")
    pair("limits.eval")
    m["cli.import_s"] = metric(min(import_s), "s")
    for pkg in IMPORT_PACKAGES:
        m[f"cli.import.{pkg}_s"] = metric(imports[pkg], "s")
    for sub in SUBCOMMANDS:
        lats = [lat for j, lat in cli_run.latencies if cli.jobs[j].subcommand == sub]
        m[f"cli.{sub}.p50_s"] = metric(statistics.median(lats) if lats else 0.0, "s")
    m["trace.overhead_s"] = metric((traced.busy_s - untraced.busy_s) / rounds, "s")
    return m


# --- main -------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "parkfn" / "__init__.py").is_file():
        print(f"error: {src}/parkfn not found; run from the root of a parkfn checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    load_before = os.getloadavg()
    t0 = time.perf_counter()
    workload = wl.setup(args.workload, tiny=args.tiny)
    own_setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    failures: list[str] = []
    attempted = failed = 0
    if args.trace:
        untraced = run_rounds(workload, args.seed, None, args.seconds / 2)
        tracer = spans.Tracer()
        patches = spans.Patches(tracer)
        patches.install()
        try:
            traced = run_rounds(workload, args.seed, untraced.rounds, 0, tracer, check=False)
        finally:
            patches.restore()
        for key, digest in traced.fingerprints.items():
            if untraced.fingerprints.get(key) != digest:
                failed += 1
                failures.append(f"traced output of {workload.jobs[key[1]].name} round {key[0]} "
                                "differs from the untraced output")
        # the cli layer: parkfn subcommands in fresh interpreters, checked
        cli = wl.build("cli", tiny=args.tiny)
        cli_run = run_rounds(cli, args.seed, 1 if args.tiny else CLI_ROUNDS, 0)
        cli_attempted, cli_failed, cli_failures = check_golden(cli)
        attempted += untraced.attempted + traced.attempted + cli_run.attempted + cli_attempted
        failed += untraced.failed + traced.failed + cli_run.failed + cli_failed
        failures += untraced.failures + traced.failures + cli_run.failures + cli_failures
        import_s = [import_sample() for _ in range(1 if args.tiny else IMPORT_SAMPLES)]
        metrics = per_layer(untraced, traced, tracer, cli, cli_run, import_s,
                            import_breakdown(1 if args.tiny else IMPORTTIME_SAMPLES))
        details = {"rounds": traced.rounds, "kept_spans": len(tracer.records),
                   "span_counts": dict(sorted(tracer.calls.items()))}
    else:
        setup_s = [own_setup_s]

        def take_setup() -> None:
            setup_s.append(setup_sample(args))

        # fresh interpreters, spread over the run
        interludes = [] if args.tiny else [take_setup] * (SETUP_SAMPLES - 1)
        run = run_rounds(workload, args.seed, None, args.seconds, interludes=interludes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted += run.attempted
        failed += run.failed
        failures += run.failures
        metrics, details = end_to_end(workload, run, setup_s, peak_rss_mb)
    golden_attempted, golden_failed, golden_failures = check_golden(workload)
    attempted += golden_attempted
    failed += golden_failed
    failures += golden_failures
    details.update({
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args),
        "job_mix": [job.name for job in workload.jobs],
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "failed_frac": failed / attempted,
        "failures": failures[:20],
    })
    print(json.dumps(details, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
