"""Command-line interface: sampling, statistics, enumeration, reference
distributions, ensemble comparisons, and the verification suite."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Optional, Sequence, TextIO

from . import __version__, ensemble, enumeration, limits, stats
from .core import PrefSequence, dyck_encode, is_parking_function, park, queue_profile
from .sample import shift_block

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2


class UsageError(Exception):
    pass


def parse_seed(text: str) -> int:
    """Seeds accepted as decimal or 0x-hex, in [0, 2^64)."""
    try:
        seed = int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError as exc:
        raise UsageError(f"invalid seed {text!r}") from exc
    if not 0 <= seed < 1 << 64:
        raise UsageError(f"seed {text!r} outside [0, 2^64)")
    return seed


def parse_function(text: str) -> PrefSequence:
    """Parse a comma-separated 1-based preference sequence, with codomain
    bound m = max(n, largest value)."""
    tokens = text.split(",")
    values = []
    for pos, token in enumerate(tokens, start=1):
        stripped = token.strip()
        try:
            v = int(stripped)
        except ValueError as exc:
            raise UsageError(f"token {pos}: {stripped!r} is not an integer") from exc
        if v < 1:
            raise UsageError(f"token {pos}: values are 1-based, got {v}")
        values.append(v)
    if not values:
        raise UsageError("empty function")
    return PrefSequence(values=tuple(values), m=max(len(values), max(values)))


def _metadata(args: argparse.Namespace, **extra) -> dict:
    meta = {"tool_version": __version__}
    for key in ("seed", "n", "count", "stat", "ensemble"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key] = getattr(args, key)
    meta.update(extra)
    return meta


@contextmanager
def _output(args: argparse.Namespace) -> Iterator[TextIO]:
    """The --out file, closed on exit even when writing fails, or stdout."""
    if getattr(args, "out", None):
        with open(args.out, "w") as out:
            yield out
    else:
        yield sys.stdout


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    with _output(args) as out:
        json.dump(payload, out, indent=2, default=str)
        out.write("\n")


def _emit_rows(args: argparse.Namespace, header: Sequence[str],
               rows: Sequence[Sequence], meta: dict) -> None:
    if args.format == "json":
        return _emit_json(args, {**meta, "columns": list(header), "rows": [list(r) for r in rows]})
    with _output(args) as out:
        for key, value in sorted(meta.items()):
            out.write(f"# {key}={value}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(x) for x in row) + "\n")


# --- subcommands ----------------------------------------------------------

def cmd_sample(args: argparse.Namespace) -> int:
    seed = parse_seed(args.seed)
    n = args.n
    if args.stat:
        config = ensemble.ExperimentConfig(
            n=n, count=args.count, seed=seed, ensemble=args.ensemble,
            statistic=args.stat, relation=args.relation,
        )
        hist = ensemble.run_experiment(config)
        payload = hist.to_json_dict()
        if args.format == "json":
            _emit_json(args, {**payload, "tool_version": __version__})
        else:
            rows = [("|".join(map(str, b["value"])) if isinstance(b["value"], list) else b["value"],
                     b["count"]) for b in payload["bins"]]
            _emit_rows(args, ("value", "count"), rows,
                       _metadata(args, seed=seed, statistic=args.stat))
        return EXIT_OK
    # raw functions, one per line
    functions = [",".join(map(str, f))
                 for block in ensemble.sample_blocks(n, args.count, seed, args.ensemble)
                 for f in block.tolist()]
    meta = _metadata(args, seed=seed)
    if args.format == "json":
        _emit_json(args, {**meta, "functions": functions})
    else:
        _emit_rows(args, ("index", "function"),
                   [(i, f'"{text}"') for i, text in enumerate(functions)], meta)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    if args.pf:
        text = args.pf
    elif args.file:
        with open(args.file) as fh:
            text = fh.read().strip()
    else:
        raise UsageError("stats needs --pf or --file")
    seq = parse_function(text)
    values, n = seq.values, seq.n
    block, m = stats.row_block(values, seq.m)
    outcome = park(values)  # succeeds exactly on parking functions
    result: dict = {"function": ",".join(map(str, values)), "n": n,
                    "is_parking_function": outcome.success}
    for name in (*stats.STATISTICS, "longest-run"):
        if name != "lucky" or outcome.success:  # lucky is defined on PF_n only
            result[name] = stats.statistic_kernel(name, args.relation)(block, n, m)[0].tolist()
    if outcome.success:
        result.update({
            "spots": list(outcome.spots),
            "queue-profile": list(queue_profile(values)),
            "dyck-area": dyck_encode(values).area,
        })
    else:
        result["failed_at"] = outcome.failed_at
    _emit_json(args, result)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    limit = args.n_max if args.n_max is not None else max(enumeration.DEFAULT_ENUM_LIMIT, n)
    if args.stat:
        poly = enumeration.gf_statistic(n, args.stat, limit=limit)
        meta = _metadata(args, statistic=args.stat, polynomial="coefficients by power of q")
        _emit_rows(args, ("power", "coefficient"), list(enumerate(poly)), meta)
        return EXIT_OK
    rows = [("total", str(enumeration.count_pf(n)))]
    rows += [(f"first={k}", str(enumeration.count_first(n, k))) for k in range(1, n + 1)]
    rows.append(("mean_first", str(enumeration.exact_mean_first(n))))
    _emit_rows(args, ("quantity", "value"), rows, _metadata(args))
    return EXIT_OK


def cmd_dist(args: argparse.Namespace) -> int:
    params = {}
    if args.x is not None:
        params["x"] = args.x
    if not args.step > 0:
        raise UsageError(f"--step must be positive, got {args.step}")
    handle = limits.distribution_handle(args.dist, **params)
    rows = []
    if handle.kind == "pmf":
        for j in range(max(handle.support_min, int(args.min)), int(args.max) + 1):
            rows.append((j, handle.evaluate(j)))
    else:
        t = args.min
        while t <= args.max + 1e-12:
            rows.append((round(t, 10), handle.evaluate(t)))
            t += args.step
    meta = _metadata(args, distribution=handle.name,
                     **{k: v for k, v in handle.parameters})
    _emit_rows(args, ("argument", "value"), rows, meta)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    n = args.n
    rows = []
    if args.ks:
        seed = parse_seed(args.seed)
        config = ensemble.ExperimentConfig(
            n=n, count=args.count, seed=seed, ensemble=args.ensemble,
            statistic="scaled-max-discrepancy",
        )
        hist = ensemble.run_experiment(config)
        rows.append(("ks_vs_excursion_max",
                     ensemble.ks_distance_to_limit(hist, limits.max_discrepancy_cdf)))
        rows.append(("ks_vs_bridge_max",
                     ensemble.ks_distance_to_limit(hist, limits.bridge_max_cdf)))
        _emit_rows(args, ("comparison", "value"), rows, _metadata(args, seed=seed))
        return EXIT_OK
    if args.tv:
        seed = parse_seed(args.seed)
        config = ensemble.ExperimentConfig(
            n=n, count=args.count, seed=seed, ensemble=args.ensemble, statistic="first",
        )
        hist = ensemble.run_experiment(config)
        uniform = {j: 1 / n for j in range(1, n + 1)}
        rows.append(("tv_first_vs_uniform", ensemble.tv_distance(hist, uniform)))
        _emit_rows(args, ("comparison", "value"), rows, _metadata(args, seed=seed))
        return EXIT_OK
    features = [args.feature] if args.feature else list(ensemble.EQUIDISTRIBUTED_FEATURES)
    for feature in features:
        report = ensemble.exact_equidistribution(n, feature, relation=args.relation)
        rows.append((feature, "equal" if report.equal else f"UNEQUAL at {report.witness}"))
    if not args.feature and n >= 3:
        for i in range(2, n):
            report = ensemble.weak_peak_check(n, i)
            rows.append((f"weak-peak@{i}", "equal" if report.equal else "UNEQUAL"))
    _emit_rows(args, ("feature", "status"), rows, _metadata(args))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    n_max = args.n_max
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "ok" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail and not ok:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    # one pass over PF_n per n gives both the count and the first-coordinate census
    censuses = {n: ensemble.exhaustive_histogram(n, "first", limit=n_max).bins
                 for n in range(1, n_max + 1)}
    for n, census in censuses.items():
        observed = sum(census.values())
        expected = enumeration.count_pf(n)
        check(f"count_pf({n}) = {expected}", observed == expected,
              f"module=enumerate op=count_pf n={n} expected={expected} actual={observed}")
    for n, census in censuses.items():
        ok = all(enumeration.count_first(n, k) == census.get(k, 0) for k in range(1, n + 1))
        check(f"count_first census n={n}", ok,
              f"module=enumerate op=count_first n={n} expected={[enumeration.count_first(n, k) for k in range(1, n + 1)]} actual={census}")
    for n in range(1, min(n_max, 10) + 1):
        lhs, rhs = enumeration.abel_identity_check(Fraction(1), Fraction(1), n)
        check(f"abel identity n={n}", lhs == rhs,
              f"module=enumerate op=abel_identity_check n={n} expected={rhs} actual={lhs}")
    for n in range(1, n_max + 1):
        brute = Fraction(
            sum(k * enumeration.count_first(n, k) for k in range(1, n + 1)),
            enumeration.count_pf(n),
        )
        exact = enumeration.exact_mean_first(n)
        check(f"exact_mean_first n={n}", exact == brute,
              f"module=enumerate op=exact_mean_first n={n} expected={brute} actual={exact}")
    for n in range(2, min(n_max, 7) + 1):
        for stat in enumeration.GF_STATISTICS:
            ok = enumeration.gf_statistic(n, stat, limit=n_max) == enumeration.gf_closed_form(n, stat)
            check(f"gf {stat} n={n}", ok, f"module=enumerate op=gf_statistic stat={stat} n={n}")
    for n in range(1, min(n_max, 5) + 1):
        total = Fraction(0)
        for k in range(1, n + 1):
            total += enumeration.k_pi_law(n, k)
        check(f"k_pi_law sums to 1 n={n}", total == 1,
              f"module=enumerate op=k_pi_law n={n} expected=1 actual={total}")
    for n in range(1, min(n_max, 4) + 1):
        # every function [n] -> [n+1], shifted: each parking function n+1 times
        shifted = (shift_block(block, n) for block in ensemble.function_blocks(n, n + 1))
        hits = ensemble._census(lambda block, n, m: block, shifted, n, n + 1)
        ok = (all(is_parking_function(f, n) and c == n + 1 for f, c in hits.items())
              and len(hits) == enumeration.count_pf(n))
        check(f"sampler shift exactness n={n}", ok,
              f"module=sample op=shift_block n={n}")
    for n in range(2, min(n_max, 5) + 1):
        report = ensemble.exact_equidistribution(n, "descent-pattern")
        check(f"equidistribution descent-pattern n={n}", report.equal,
              f"module=ensemble op=exact_equidistribution n={n} witness={report.witness}")
    print(f"{failures} failure(s)" if failures else "all identities verified")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkfn",
        description="Random parking functions: sampling, statistics, exact "
                    "enumeration, limit laws, and ensemble comparisons.",
        epilog="Seeds are accepted as decimal or 0x-hex.  Sample i of an "
               "experiment always uses stream index i, so a seed fixes the "
               "results bit for bit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", default="0", help="decimal or 0x-hex seed")

    p = sub.add_parser("sample", help="emit raw functions or statistic histograms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--stat", default=None,
                   help="histogram this statistic instead of emitting functions")
    p.add_argument("--ensemble", choices=ensemble.ENSEMBLES, default="pf")
    p.add_argument("--relation", choices=("<", "<=", ">", ">="), default="<")
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("stats", help="compute all statistics of one function")
    p.add_argument("--pf", default=None, help='inline function, e.g. "1,3,5,3,1"')
    p.add_argument("--file", default=None, help="file containing the function")
    p.add_argument("--relation", choices=("<", "<=", ">", ">="), default="<")
    common(p, seed=False)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("enumerate", help="exact counts, first-coordinate table, GF polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=enumeration.GF_STATISTICS, default=None)
    p.add_argument("--n-max", type=int, default=None, help="enumeration size cap override")
    common(p, seed=False)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("dist", help="tabulate a limit distribution to CSV")
    p.add_argument("--dist", required=True,
                   choices=("borel", "maxwell", "excursion-max", "bridge-max",
                            "airy-area", "poisson", "gaussian"))
    p.add_argument("--x", type=float, default=None, help="parameter for maxwell")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.1)
    common(p, seed=False)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("compare", help="equidistribution reports, TV/KS distances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--feature", default=None)
    p.add_argument("--relation", choices=("<", "<=", ">", ">="), default="<")
    p.add_argument("--ks", action="store_true",
                   help="KS distance of scaled max-discrepancy to the limit laws")
    p.add_argument("--tv", action="store_true",
                   help="TV distance of the first coordinate to uniform")
    p.add_argument("--count", type=int, default=20000)
    p.add_argument("--ensemble", choices=ensemble.ENSEMBLES, default="pf")
    common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify", help="run the exact-identity suite up to a size cap")
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
