"""Command-line interface: sampling, statistics, enumeration, reference
distributions, ensemble comparisons, and the verification suite."""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, islice, product, repeat, takewhile
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

from . import __version__, ensemble, enumeration, stats
from .core import PrefSequence, dyck_encode, park, queue_profile
from .sample import shift_block

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
# Most rows `parkfn dist` tabulates: a larger grid is refused, not started.
DIST_MAX_ROWS = 100_000


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


def _metadata(**values) -> dict:
    """The tool version, then each value the command read, once."""
    return {"tool_version": __version__, **values}


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
    meta = _metadata(seed=seed, n=n, count=args.count, ensemble=args.ensemble)
    if args.stat:
        config = ensemble.ExperimentConfig(
            n=n, count=args.count, seed=seed, ensemble=args.ensemble, statistic=args.stat,
        )
        hist = ensemble.run_experiment(config)
        payload = hist.to_json_dict()
        if args.format == "json":
            _emit_json(args, {**payload, "tool_version": __version__})
        else:
            rows = [("|".join(map(str, b["value"])) if isinstance(b["value"], list) else b["value"],
                     b["count"]) for b in payload["bins"]]
            _emit_rows(args, ("value", "count"), rows, {**meta, "statistic": args.stat})
        return EXIT_OK
    # raw functions, one per line
    functions = [",".join(map(str, f))
                 for block in ensemble.sample_blocks(n, args.count, seed, args.ensemble)
                 for f in block.tolist()]
    if args.format == "json":
        _emit_json(args, {**meta, "functions": functions})
    else:
        _emit_rows(args, ("index", "function"),
                   [(i, f'"{text}"') for i, text in enumerate(functions)], meta)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    if args.file is None:
        text = args.pf
    else:
        with open(args.file) as fh:
            text = fh.read().strip()
    seq = parse_function(text)
    values, n = seq.values, seq.n
    block, m = stats.row_block(values, seq.m)
    outcome = park(values)  # succeeds exactly on parking functions
    result: dict = {"function": ",".join(map(str, values)), "n": n,
                    "is_parking_function": outcome.success}
    for name, kernel in stats.STATISTICS.items():
        if name != "lucky" or outcome.success:  # lucky is defined on PF_n only
            result[name] = kernel(block, n, m)[0].tolist()
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
    if args.stat:
        n_max = enumeration.DEFAULT_ENUM_LIMIT if args.n_max is None else args.n_max
        if n > n_max:
            raise UsageError(f"--stat enumerates PF_{n}, above --n-max {n_max}; "
                             "raise --n-max to opt in")
        poly = enumeration.gf_statistic(n, args.stat, limit=n_max)
        meta = _metadata(n=n, statistic=args.stat, polynomial="coefficients by power of q")
        _emit_rows(args, ("power", "coefficient"), list(enumerate(poly)), meta)
        return EXIT_OK
    if args.n_max is not None:
        raise UsageError("--n-max: read only with --stat; the table is counted in closed form")
    # Python prints ints of at most this many digits (0: any); an n whose
    # total, (n+1)^(n-1), is longer is refused before anything is counted.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python < 3.10.7: none
    too_long = UsageError(f"--n {n}: the counts of PF_{n} have more than {digits} digits, "
                          "Python's limit for printing an int (sys.set_int_max_str_digits)")
    if digits and n >= 1 and (n - 1) * math.log10(n + 1) >= digits:
        raise too_long
    rows = [("total", str(enumeration.count_pf(n)))]
    rows += [(f"first={k}", str(c)) for k, c in enumerate(enumeration.first_counts(n), start=1)]
    try:
        rows.append(("mean_first", str(enumeration.exact_mean_first(n))))
    except ValueError:  # its numerator can have a few digits more than the total
        raise too_long from None
    _emit_rows(args, ("quantity", "value"), rows, _metadata(n=n))
    return EXIT_OK


def cmd_dist(args: argparse.Namespace) -> int:
    from . import limits  # loaded only by the subcommands that use it

    bounds = (("--min", args.min), ("--max", args.max))
    for option, value in bounds:
        if not math.isfinite(value):
            raise UsageError(f"{option} must be finite, got {value}")
    handle = limits.distribution_handle(args.dist)
    step = args.step
    if handle.kind == "pmf":  # tabulated at each whole number in [--min, --max]
        unread = [f"--step {step}"] * (step is not None) + [
            f"{option} {value}" for option, value in bounds if not value.is_integer()]
        if unread:
            raise UsageError(f"{', '.join(unread)}: {handle.name} is a pmf, "
                             "tabulated at whole numbers")
        points = range(max(handle.support_min, int(args.min)), int(args.max) + 1)
    else:  # t += step from --min while t <= --max
        step = 0.1 if step is None else step
        if not step > 0:
            raise UsageError(f"--step must be positive, got {step}")
        points = takewhile(lambda t: t <= args.max + 1e-12,
                           accumulate(repeat(step), initial=args.min))
    # counted before any is evaluated; a step below the spacing of doubles
    # near --min never moves t, and stops here too
    grid = list(islice(points, DIST_MAX_ROWS + 1))
    if len(grid) > DIST_MAX_ROWS:
        raise UsageError(f"--min {args.min} --max {args.max} --step {step} "
                         f"gives more than {DIST_MAX_ROWS} rows")
    rows = [(x if handle.kind == "pmf" else round(x, 10), handle.evaluate(x)) for x in grid]
    meta = _metadata(distribution=handle.name, **dict(handle.parameters))
    _emit_rows(args, ("argument", "value"), rows, meta)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    n = args.n
    if args.ks or args.tv:
        count = 20000 if args.count is None else args.count
        seed = parse_seed("0" if args.seed is None else args.seed)
        ens = "pf" if args.ensemble is None else args.ensemble
        config = ensemble.ExperimentConfig(
            n=n, count=count, seed=seed, ensemble=ens,
            statistic="scaled-max-discrepancy" if args.ks else "first",
        )
        hist = ensemble.run_experiment(config)
        if args.ks:
            from . import limits

            rows = [("ks_vs_excursion_max",
                     ensemble.ks_distance_to_limit(hist, limits.max_discrepancy_cdf)),
                    ("ks_vs_bridge_max",
                     ensemble.ks_distance_to_limit(hist, limits.bridge_max_cdf))]
        else:
            m = ensemble._codomain(ens, n)  # fn1's first value is uniform on [1, n+1]
            uniform = {j: 1 / m for j in range(1, m + 1)}
            rows = [("tv_first_vs_uniform", ensemble.tv_distance(hist, uniform))]
        meta = _metadata(seed=seed, n=n, count=count, ensemble=ens)
        _emit_rows(args, ("comparison", "value"), rows, meta)
        return EXIT_OK
    # the exact mode compares both ensembles exhaustively: no seed, count or ensemble
    unread = [f"--{name}" for name in ("count", "seed", "ensemble")
              if getattr(args, name) is not None]
    if unread:
        raise UsageError(f"{', '.join(unread)}: read only with --ks or --tv; "
                         "the exact mode draws no sample")
    features = [args.feature] if args.feature else [
        *ensemble.EQUIDISTRIBUTED_FEATURES, *(f"weak-peak@{i}" for i in range(2, n))]
    rows = []
    for feature in features:
        report = ensemble.exact_equidistribution(n, feature)
        rows.append((feature, "equal" if report.equal else f"UNEQUAL at {report.witness}"))
    _emit_rows(args, ("feature", "status"), rows, _metadata(n=n))
    return EXIT_OK


def _identities(n_max: int) -> Iterator[tuple[str, str, object, object]]:
    """The exact identities `verify` checks up to n_max, in order: one
    (name, where, actual, expected) row each, which holds when actual == expected."""
    # one pass over PF_n per n gives both the count and the first-coordinate census
    censuses = {n: ensemble.exhaustive_histogram(n, "first", limit=n_max).bins
                for n in range(1, n_max + 1)}
    for n, census in censuses.items():
        expected = enumeration.count_pf(n)
        yield (f"count_pf({n}) = {expected}", f"enumerate op=count_pf n={n}",
               sum(census.values()), expected)
    for n, census in censuses.items():
        yield (f"count_first census n={n}", f"enumerate op=count_first n={n}",
               [census.get(k, 0) for k in range(1, n + 1)], enumeration.first_counts(n))
    for n in range(1, min(n_max, 10) + 1):
        lhs, rhs = enumeration.abel_identity_check(Fraction(1), Fraction(1), n)
        yield f"abel identity n={n}", f"enumerate op=abel_identity_check n={n}", lhs, rhs
    for n in range(1, n_max + 1):
        brute = Fraction(
            sum(k * c for k, c in enumerate(enumeration.first_counts(n), start=1)),
            enumeration.count_pf(n),
        )
        yield (f"exact_mean_first n={n}", f"enumerate op=exact_mean_first n={n}",
               enumeration.exact_mean_first(n), brute)
    for n in range(2, min(n_max, 7) + 1):
        for stat in enumeration.GF_STATISTICS:
            yield (f"gf {stat} n={n}", f"enumerate op=gf_statistic stat={stat} n={n}",
                   enumeration.gf_statistic(n, stat, limit=n_max),
                   enumeration.gf_closed_form(n, stat))
    for n in range(1, min(n_max, 5) + 1):
        yield (f"k_pi_law sums to 1 n={n}", f"enumerate op=k_pi_law n={n}",
               sum(enumeration.k_pi_law(n, k) for k in range(1, n + 1)), 1)
    for n in range(1, min(n_max, 4) + 1):
        # every function [n] -> [n+1] (at most 625), shifted: each parking
        # function n+1 times
        every = np.array(list(product(range(1, n + 2), repeat=n)), dtype=np.int64)
        yield (f"sampler shift exactness n={n}", f"sample op=shift_block n={n}",
               Counter(map(tuple, shift_block(every, n).tolist())),
               dict.fromkeys(enumeration.enumerate_pf(n), n + 1))
    for n in range(2, min(n_max, 5) + 1):
        # the witness is the first value whose counts differ: none when equal
        yield (f"equidistribution descent-pattern n={n}",
               f"ensemble op=exact_equidistribution n={n}",
               ensemble.exact_equidistribution(n, "descent-pattern").witness, None)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {args.n_max}")
    failures = 0
    for name, where, actual, expected in _identities(args.n_max):
        if actual == expected:
            print(f"[ok] {name}")
        else:
            print(f"[FAIL] {name} (module={where} expected={expected} actual={actual})")
            failures += 1
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
                   help='histogram a statistic or feature, e.g. "lucky" or "weak-peak@3"')
    p.add_argument("--ensemble", choices=ensemble.ENSEMBLES, default="pf")
    common(p)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("stats", help="compute all statistics of one function")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pf", default=None, help='inline function, e.g. "1,3,5,3,1"')
    source.add_argument("--file", default=None, help="file containing the function")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("enumerate", help="exact counts, first-coordinate table, GF polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=enumeration.GF_STATISTICS, default=None)
    p.add_argument("--n-max", type=int, default=None,
                   help="largest n that --stat enumerates "
                        f"(default {enumeration.DEFAULT_ENUM_LIMIT})")
    common(p, seed=False)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("dist", help="tabulate a limit distribution to CSV")
    p.add_argument("--dist", required=True,
                   help="borel, maxwell@x for x in (0, 1) (e.g. maxwell@0.5), "
                        "excursion-max, bridge-max, airy-area, poisson or gaussian")
    p.add_argument("--min", type=float, default=0.0)
    p.add_argument("--max", type=float, default=3.0)
    p.add_argument("--step", type=float, default=None,
                   help="grid step of a cdf or pdf (default 0.1); a pmf takes none")
    common(p, seed=False)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("compare", help="equidistribution reports, TV/KS distances")
    p.add_argument("--n", type=int, required=True)
    distance = p.add_mutually_exclusive_group()
    distance.add_argument("--feature", default=None,
                          help='one feature, e.g. "longest-run>=", "strict-peak@3" or '
                               'the chain expression "1<3;2>=4"')
    distance.add_argument("--ks", action="store_true",
                          help="KS distance of scaled max-discrepancy to the limit laws")
    distance.add_argument("--tv", action="store_true",
                          help="TV distance of the first coordinate to uniform")
    # --count, --seed and --ensemble apply with --ks or --tv only; their
    # defaults (20000, 0 and pf) are filled in there, so None means not given
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--ensemble", choices=ensemble.ENSEMBLES, default=None)
    common(p)
    p.set_defaults(fn=cmd_compare, seed=None)

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
