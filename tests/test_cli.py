"""Command-line interface: subcommands, formats, and exit codes."""

import json
import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import oracles
import pytest

from parkfn import (
    count_first,
    count_pf,
    exact_mean_first,
    is_parking_function,
    sample_parking_function,
    sample_uniform_function,
    split_stream,
)
from parkfn import cli, enumeration, stats
from parkfn.core import dyck_encode, inconvenience, park, queue_profile
from parkfn.ensemble import EQUIDISTRIBUTED_FEATURES
from parkfn.enumeration import gf_closed_form
from parkfn.limits import xi_moment
from parkfn.stats import max_first_coordinate
from parkfn.cli import (
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    main,
    parse_function,
    parse_seed,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv, timeout=60):
    """`parkfn` in a fresh interpreter, so that a hang fails by timeout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "parkfn.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_parse_seed():
    assert parse_seed("42") == 42
    assert parse_seed("0xff") == 255
    assert parse_seed(str(2**64 - 1)) == 2**64 - 1
    for text in ("banana", "-1", str(2**64), hex(2**64)):
        with pytest.raises(UsageError):
            parse_seed(text)


def test_parse_function():
    seq = parse_function("1, 3, 5, 3, 1")
    assert seq.values == (1, 3, 5, 3, 1)
    assert seq.n == 5 and seq.m == 5
    with pytest.raises(UsageError, match="token 2"):
        parse_function("1,x,3")
    with pytest.raises(UsageError, match="1-based"):
        parse_function("1,0")
    with pytest.raises(UsageError):
        parse_function("")


def test_sample_raw_is_seeded_and_valid(capsys):
    code, out1, _ = run_cli(capsys, "sample", "--n", "6", "--count", "3", "--seed", "9")
    assert code == EXIT_OK
    code, out2, _ = run_cli(capsys, "sample", "--n", "6", "--count", "3", "--seed", "9")
    assert out1 == out2
    lines = [l for l in out1.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "index,function"
    for line in lines[1:]:
        idx, text = line.split(",", 1)
        values = tuple(int(v) for v in text.strip('"').split(","))
        assert is_parking_function(values)
        # row i is sample i of stream i, as the one-sample API draws it
        assert values == tuple(sample_parking_function(6, split_stream(9, int(idx))))


def test_sample_hex_seed_equivalence(capsys):
    _, dec, _ = run_cli(capsys, "sample", "--n", "4", "--count", "2", "--seed", "255")
    _, hexed, _ = run_cli(capsys, "sample", "--n", "4", "--count", "2", "--seed", "0xff")
    assert dec == hexed


def test_sample_histogram_json(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--n", "5", "--count", "200", "--seed", "1",
        "--stat", "lucky", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["statistic"] == "lucky"
    assert sum(row["count"] for row in payload["bins"]) == 200
    assert all(1 <= row["value"] <= 5 for row in payload["bins"])


def test_sample_fn_ensemble(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--n", "3", "--count", "5", "--seed", "2",
        "--ensemble", "fn1",
    )
    assert code == EXIT_OK
    for line in out.splitlines():
        if line.startswith("#") or line.startswith("index"):
            continue
        idx, text = line.split(",", 1)
        values = tuple(int(v) for v in text.strip('"').split(","))
        assert values == sample_uniform_function(3, 4, split_stream(2, int(idx))).values


def test_sample_and_compare_refuse_lucky_off_pf(capsys):
    # refused for every seed, not only for one whose draws do not park
    for seed, ensemble_name in product(("0", "1"), ("fn", "fn1")):
        code, out, err = run_cli(capsys, "sample", "--n", "2", "--count", "1", "--seed", seed,
                                 "--stat", "lucky", "--ensemble", ensemble_name)
        assert (code, out) == (EXIT_USAGE, ""), (seed, ensemble_name)
        assert err == ("error: lucky requires a parking function, and ensemble "
                       f"{ensemble_name} holds other functions at n = 2\n")
    code, out, err = run_cli(capsys, "compare", "--n", "4", "--feature", "lucky")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: lucky requires a parking function")


def test_stats_subcommand(capsys):
    code, out, _ = run_cli(capsys, "stats", "--pf", "1,3,5,3,1")
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["is_parking_function"] is True
    assert result["spots"] == [1, 3, 5, 4, 2]
    assert result["lucky"] == 3
    assert result["area"] == 2
    assert result["max-discrepancy"] == 1
    assert result["queue-profile"] == [0, 1, 0, 1, 0, 0]
    assert result["descent-pattern"] == [0, 0, 1, 1]
    assert result["dyck-area"] == 2


def test_stats_non_parking_function(capsys):
    code, out, _ = run_cli(capsys, "stats", "--pf", "3,3,3")
    assert code == EXIT_OK
    result = json.loads(out)
    assert result["is_parking_function"] is False
    assert result["failed_at"] == 2


# Each longest-run key of `stats` and the relation it names.
LONGEST_RUNS = {"longest-run" + ("" if r == "<" else r): r for r in ("<", ">", "<=", ">=", "=")}


def _stats_oracle(values):
    """What `stats` prints for a function, from the scalar definitions."""
    n = len(values)
    m = max(n, *values)
    is_pf = is_parking_function(values)
    outcome = park(values)
    decomp = max_first_coordinate(values[1:])
    if max(values) <= n:
        discrepancy = oracles.max_discrepancy(values)
    else:  # queue_profile takes values in [1, n]; a value above n is never counted
        discrepancy = max(0, *(sum(v <= k for v in values) - k for k in range(1, n + 1)))
    expected = {
        "function": ",".join(map(str, values)),
        "n": n,
        "is_parking_function": is_pf,
        "first": values[0],
        "area": inconvenience(values),
        "scaled-area": oracles.scaled_area(values),
        "repeats": oracles.repeats(values),
        "ones": oracles.ones(values),
        "descents": oracles.descents(values),
        "descent-pattern": list(oracles.descent_pattern(values)),
        "species": list(oracles.species(values, m=m)),
        "inversions": oracles.inversions(values),
        "max-discrepancy": discrepancy,
        "scaled-max-discrepancy": discrepancy / math.sqrt(n),
        "kmax": decomp.k if decomp else 0,
        **{name: oracles.longest_run(values, r) for name, r in LONGEST_RUNS.items()},
    }
    if is_pf:
        expected.update({"lucky": oracles.lucky(values), "spots": list(outcome.spots),
                         "queue-profile": list(queue_profile(values)),
                         "dyck-area": dyck_encode(values).area})
    else:
        expected["failed_at"] = outcome.failed_at
    return expected


def test_stats_matches_scalar_oracles(capsys):
    # every function [n] -> [n+1] for n <= 4: each key, and the key set, as
    # the scalar oracles give them, longest-run under every relation
    for n in range(1, 5):
        for values in product(range(1, n + 2), repeat=n):
            text = ",".join(map(str, values))
            code, out, _ = run_cli(capsys, "stats", "--pf", text)
            assert code == EXIT_OK
            assert json.loads(out) == _stats_oracle(values), text


def test_stats_inversions_at_dtype_edges(capsys):
    # m = max(n, largest value) sets the kernel's compare dtype
    for m in (255, 256, 65535, 65536, stats.MAX_VALUE):
        for values in ((m, 1, m, 1, m - 1, 2, m), (1, m, m - 1, m - 1, 2, 1, m)):
            code, out, _ = run_cli(capsys, "stats", "--pf", ",".join(map(str, values)))
            assert code == EXIT_OK
            assert json.loads(out)["inversions"] == oracles.inversions(values), (m, values)
    code, out, _ = run_cli(capsys, "stats", "--pf", ",".join(map(str, range(100, 0, -1))))
    assert json.loads(out)["inversions"] == 4950


def test_stats_rejects_values_beyond_its_bound(capsys):
    big = stats.MAX_VALUE + 1
    code, _, err = run_cli(capsys, "stats", "--pf", f"1,2,{big}")
    assert code == EXIT_USAGE and str(big) in err


def test_stats_from_file(tmp_path, capsys):
    path = tmp_path / "fn.txt"
    path.write_text("2,1,1\n")
    code, out, _ = run_cli(capsys, "stats", "--file", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["is_parking_function"] is True


def test_stats_requires_input(capsys):
    code, _, err = run_cli(capsys, "stats")
    assert code == EXIT_USAGE
    assert "error" in err
    # one input: --pf and --file together are refused, not one of them ignored
    code, out, err = run_cli(capsys, "stats", "--pf", "1,1", "--file", "/nonexistent")
    assert code == EXIT_USAGE and out == "" and "--file" in err and "--pf" in err
    # stats always prints JSON, so it takes no --format
    code, out, err = run_cli(capsys, "stats", "--pf", "1,2", "--format", "csv")
    assert code == EXIT_USAGE and out == "" and "--format" in err


def test_enumerate_table(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4")
    assert code == EXIT_OK
    rows = dict(
        line.split(",", 1)
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith("quantity")
    )
    assert rows["total"] == str(count_pf(4))
    for k in range(1, 5):
        assert rows[f"first={k}"] == str(count_first(4, k))
    assert rows["mean_first"] == str(exact_mean_first(4))
    # the table is counted in closed form, so it refuses the cap of --stat's enumeration
    code, out, err = run_cli(capsys, "enumerate", "--n", "3", "--n-max", "2")
    assert code == EXIT_USAGE and out == "" and "--n-max" in err


def test_enumerate_table_at_large_n(capsys):
    # the rows of the per-k sums, from one running sum
    code, out, _ = run_cli(capsys, "enumerate", "--n", "300")
    assert code == EXIT_OK
    rows = [line.split(",", 1) for line in out.splitlines()
            if line and not line.startswith("#") and not line.startswith("quantity")]
    assert rows == ([["total", str(count_pf(300))]]
                    + [[f"first={k}", str(count_first(300, k))] for k in range(1, 301)]
                    + [["mean_first", str(exact_mean_first(300))]])


def test_enumerate_table_refuses_unprintable_n(capsys):
    # (n+1)^(n-1) has 4402 digits at n = 1400, above Python's default 4300;
    # at n = 1366 the total has 4281 digits but the mean's numerator 4284
    saved = sys.get_int_max_str_digits()
    try:
        for n, digits in ((1400, 4300), (1366, 4283)):
            sys.set_int_max_str_digits(digits)
            code, out, err = run_cli(capsys, "enumerate", "--n", str(n))
            assert code == EXIT_USAGE and not out
            assert f"--n {n}" in err and f"{digits} digits" in err
    finally:
        sys.set_int_max_str_digits(saved)


def test_enumerate_gf(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--stat", "ones")
    assert code == EXIT_OK
    coeffs = [
        int(line.split(",")[1])
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith("power")
    ]
    assert sum(coeffs) == count_pf(4)
    assert coeffs[0] == 0  # every parking function uses the value 1


def test_enumerate_stat_is_capped_by_n_max(capsys):
    # PF_9 has 10^8 functions: refused at the default cap, not started
    proc = run_cli_process("enumerate", "--n", "9", "--stat", "lucky", timeout=20)
    assert proc.returncode == EXIT_USAGE
    assert "--n-max" in proc.stderr
    code, out, _ = run_cli(capsys, "enumerate", "--n", "9", "--stat", "ones", "--n-max", "9")
    assert code == EXIT_OK
    coeffs = [int(line.split(",")[1]) for line in out.splitlines()
              if line and not line.startswith("#") and not line.startswith("power")]
    assert tuple(coeffs) == gf_closed_form(9, "ones")


def test_dist_borel_table(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--dist", "borel", "--min", "1", "--max", "5"
    )
    assert code == EXIT_OK
    rows = [
        line.split(",")
        for line in out.splitlines()
        if line and not line.startswith("#") and not line.startswith("argument")
    ]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert float(rows[0][1]) == pytest.approx(0.36787944117144233)
    # a pmf is tabulated at whole numbers: a step, or a bound between two, is refused
    for argv, options in (
        (("borel", "--min", "1.7", "--max", "4.9", "--step", "0.5"), ("--step", "--min", "--max")),
        (("borel", "--step", "1"), ("--step",)),
        (("poisson", "--max", "4.5"), ("--max",)),
        (("poisson", "--min", "0.5", "--max", "2"), ("--min",)),
    ):
        code, out, err = run_cli(capsys, "dist", "--dist", *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert all(option in err for option in options) and "pmf" in err, argv


def test_dist_borel_default_range_starts_at_support():
    proc = run_cli_process("dist", "--dist", "borel", "--max", "3")
    assert proc.returncode == EXIT_OK, proc.stderr
    rows = [line.split(",")[0] for line in proc.stdout.splitlines()
            if line and not line.startswith("#")]
    assert rows == ["argument", "1", "2", "3"]


def test_dist_airy_area_default_grid(capsys):
    # the density is 0 at the grid's default start, its limit as x -> 0+
    code, out, _ = run_cli(capsys, "dist", "--dist", "airy-area")
    assert code == EXIT_OK
    rows = [line for line in out.splitlines()
            if line and not line.startswith("#") and not line.startswith("argument")]
    assert len(rows) == 31
    assert rows[0] == "0.0,0.0"


def test_dist_rejects_nonpositive_step():
    for step in ("0", "-0.1", "nan"):
        proc = run_cli_process("dist", "--dist", "excursion-max", "--step", step)
        assert proc.returncode == EXIT_USAGE
        assert "--step" in proc.stderr


def test_dist_refuses_grids_that_never_finish():
    # 3 * 10^9 rows; a step that never moves t past 10^17; an int() overflow
    for argv, option in (
        (("--dist", "excursion-max", "--step", "1e-9"), "--step"),
        (("--dist", "excursion-max", "--min", "1e17", "--max", "2e17", "--step", "1"), "--step"),
        (("--dist", "poisson", "--max", "1e400"), "--max"),
    ):
        proc = run_cli_process("dist", *argv, timeout=20)
        assert proc.returncode == EXIT_USAGE, argv
        assert option in proc.stderr and "Traceback" not in proc.stderr, argv


def test_sample_rejects_out_of_range_seed(capsys):
    for seed in ("-1", str(2**64)):
        code, _, err = run_cli(capsys, "sample", "--n", "3", "--stat", "first", "--seed", seed)
        assert code == EXIT_USAGE and "seed" in err


def test_sample_refuses_a_count_past_the_last_stream(capsys):
    # one stream per sample, indexed in [0, 2^64): refused before any draw,
    # for a histogram and for raw functions alike
    for stat in (("--stat", "first"), ()):
        code, out, err = run_cli(capsys, "sample", "--n", "5", "--count", str(2**64 + 1), *stat)
        assert code == EXIT_USAGE and "2^64" in err and not out, stat


def test_dist_maxwell_takes_x_in_its_name(capsys):
    code, out, _ = run_cli(capsys, "dist", "--dist", "maxwell@0.5", "--max", "1.0")
    assert code == EXIT_OK
    assert "# distribution=maxwell" in out and "# x=0.5" in out
    for name in ("maxwell", "maxwell@1.5"):
        code, _, err = run_cli(capsys, "dist", "--dist", name)
        assert code == EXIT_USAGE and "maxwell@0.5" in err
    # --x is gone
    code, _, err = run_cli(capsys, "dist", "--dist", "maxwell", "--x", "0.5")
    assert code == EXIT_USAGE and "--x" in err
    code, out, _ = run_cli(capsys, "dist", "--help")
    assert code == EXIT_OK and "--x" not in out and "maxwell@x" in out


def test_compare_features(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n", "5")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if "," in l and not l.startswith("#")]
    assert lines[0] == "feature,status"
    statuses = dict(l.split(",", 1) for l in lines[1:])
    features = list(EQUIDISTRIBUTED_FEATURES) + [f"weak-peak@{i}" for i in range(2, 5)]
    assert statuses == dict.fromkeys(features, "equal")
    assert list(statuses) == features


def test_compare_negative_feature(capsys):
    # a peak's row is labelled with the position it names
    code, out, _ = run_cli(capsys, "compare", "--n", "4", "--feature", "strict-peak@3")
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("strict-peak@3,UNEQUAL at ")
    code, out, _ = run_cli(capsys, "compare", "--n", "4", "--feature", "weak-peak@3")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "weak-peak@3,equal"
    # a chain expression is a feature, and its row keeps the expression
    for feature, status in (("1<3;2>=4", "equal"), ("2>1<3>4", "equal"),
                            ("2>1<3", "UNEQUAL at False")):
        code, out, _ = run_cli(capsys, "compare", "--n", "5", "--feature", feature)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == f"{feature},{status}"
    # a peak without a position in [2, n-1], or a position on another
    # feature, is refused by name
    for feature in ("weak-peak", "weak-peak@x", "weak-peak@1", "species@2", "chain-poset",
                    "1<3,2<4"):
        code, out, err = run_cli(capsys, "compare", "--n", "4", "--feature", feature)
        assert code == EXIT_USAGE and out == "" and repr(feature) in err, feature


def test_compare_names_the_feature_it_refuses(capsys):
    # a name that does not start with a position and a relation symbol is no
    # misspelt chain expression, in compare and in sample alike
    for feature in ("specie", "chain-poset", "inversion", "longest-run>>", "longest-run=>"):
        code, out, err = run_cli(capsys, "compare", "--n", "4", "--feature", feature)
        assert (code, out) == (EXIT_USAGE, ""), feature
        assert err == (f"error: unknown feature {feature!r}: no statistic, pattern, alias "
                       "or chain expression has that name\n")
    code, out, err = run_cli(capsys, "sample", "--n", "4", "--stat", "longest-run>>")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == ("error: unknown feature 'longest-run>>': no statistic, pattern, alias "
                   "or chain expression has that name\n")
    # a peak is checked against n before anything is sampled
    code, out, err = run_cli(capsys, "sample", "--n", "3", "--stat", "weak-peak@3")
    assert (code, out) == (EXIT_USAGE, "") and "'weak-peak@3'" in err
    code, _, err = run_cli(capsys, "compare", "--n", "4", "--feature", "1<3;2")
    assert code == EXIT_USAGE and "is not a chain expression such as" in err
    # a chain position beyond n, in an expression or an alias
    for feature, position in (("1<6", 6), ("2>1<3>4>=5", 5), ("non-disjoint-chain", 5)):
        code, out, err = run_cli(capsys, "compare", "--n", "4", "--feature", feature)
        assert (code, out) == (EXIT_USAGE, ""), feature
        assert err == f"error: feature {feature!r}: chain position {position} is beyond n = 4\n"


def test_metadata_records_what_was_read(capsys):
    def meta(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        return [line for line in out.splitlines() if line.startswith("#")]

    # the statistic once, under one key
    assert meta("sample", "--n", "5", "--count", "3", "--stat", "longest-run>=") == [
        "# count=3", "# ensemble=pf", "# n=5", "# seed=0", "# statistic=longest-run>=",
        f"# tool_version={cli.__version__}"]
    # a chain expression is a statistic of sample too, recorded as given
    assert meta("sample", "--n", "6", "--count", "5", "--stat", "2>1<3>4") == [
        "# count=5", "# ensemble=pf", "# n=6", "# seed=0", "# statistic=2>1<3>4",
        f"# tool_version={cli.__version__}"]
    assert meta("enumerate", "--n", "4", "--stat", "lucky") == [
        "# n=4", "# polynomial=coefficients by power of q", "# statistic=lucky",
        f"# tool_version={cli.__version__}"]
    # the exact comparison draws no sample: no seed, count or ensemble
    exact = ["# n=4", f"# tool_version={cli.__version__}"]
    assert meta("compare", "--n", "4") == exact


def test_exact_compare_refuses_sampling_options(capsys):
    # the exact mode reads no --count, --seed or --ensemble, so each is refused
    for options in (("--count", "7"), ("--seed", "3"), ("--seed", "0"), ("--ensemble", "fn"),
                    ("--count", "7", "--seed", "3", "--ensemble", "fn"),
                    ("--feature", "species", "--count", "20000")):
        code, out, err = run_cli(capsys, "compare", "--n", "4", *options)
        assert code == EXIT_USAGE and out == "", options
        assert all(option in err for option in options[::2] if option != "--feature"), err


def test_compare_refuses_ks_with_tv(capsys):
    # one distance per run, so that no option is ignored; a relation is part
    # of a statistic's name, not an option
    cases = [(("compare", "--n", "5", "--ks", "--tv"), "not allowed"),
             (("compare", "--n", "5", "--ks", "--feature", "species"), "not allowed"),
             (("compare", "--n", "5", "--tv", "--feature", "species"), "not allowed"),
             (("compare", "--n", "5", "--relation", ">"), "unrecognized"),
             (("sample", "--n", "6", "--count", "5", "--stat", "longest-run",
               "--relation", ">"), "unrecognized"),
             (("stats", "--pf", "1,2", "--relation", ">"), "unrecognized")]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and message in err, argv


def test_compare_tv(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--n", "10", "--tv", "--count", "400", "--seed", "5"
    )
    assert code == EXIT_OK
    value = float(out.splitlines()[-1].split(",")[1])
    assert 0 <= value < 0.5


def test_compare_tv_reads_the_ensembles_codomain(capsys):
    # the first value is uniform on [1, n+1] on fn1: against uniform on
    # [1, n] it would read about 1/11 at n = 10; the first value of a
    # parking function is not uniform
    distances = {}
    for ens in ("pf", "fn1"):
        code, out, _ = run_cli(capsys, "compare", "--n", "10", "--tv", "--ensemble", ens)
        assert code == EXIT_OK
        distances[ens] = float(out.splitlines()[-1].split(",")[1])
    assert distances["fn1"] < 0.03 and distances["pf"] > 0.1, distances


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == EXIT_OK
    sizes = range(1, 5)
    names = [f"count_pf({n}) = {count_pf(n)}" for n in sizes]
    names += [f"count_first census n={n}" for n in sizes]
    names += [f"abel identity n={n}" for n in sizes]
    names += [f"exact_mean_first n={n}" for n in sizes]
    names += [f"gf {stat} n={n}" for n in range(2, 5) for stat in ("repeats", "lucky", "ones")]
    names += [f"k_pi_law sums to 1 n={n}" for n in sizes]
    names += [f"sampler shift exactness n={n}" for n in sizes]
    names += [f"equidistribution descent-pattern n={n}" for n in range(2, 5)]
    assert len(names) == 36
    assert out.splitlines() == [f"[ok] {name}" for name in names] + ["all identities verified"]
    # a cap below 1 would check nothing and still report success
    for n_max in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--n-max", n_max)
        assert code == EXIT_USAGE and "verified" not in out and "--n-max" in err


def test_verify_reports_a_failing_identity(capsys, monkeypatch):
    def wrong_at_3_lucky(n, stat):
        return (0,) if (n, stat) == (3, "lucky") else gf_closed_form(n, stat)

    monkeypatch.setattr(enumeration, "gf_closed_form", wrong_at_3_lucky)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == cli.EXIT_VERIFY_FAILED
    lines = out.splitlines()
    assert [l for l in lines if not l.startswith("[ok]")] == [
        "[FAIL] gf lucky n=3 (module=enumerate op=gf_statistic stat=lucky n=3 "
        "expected=(0,) actual=(0, 2, 8, 6))",
        "1 failure(s)",
    ]
    assert lines[-1] == "1 failure(s)"


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "hist.csv"
    code, out, _ = run_cli(
        capsys, "sample", "--n", "4", "--count", "10", "--seed", "0",
        "--stat", "first", "--out", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    content = target.read_text()
    assert "value,count" in content


def test_out_file_closed_when_writing_fails(tmp_path, capsys, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    def failing_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    monkeypatch.setattr(cli.json, "dump", failing_dump)
    code, _, err = run_cli(
        capsys, "sample", "--n", "4", "--count", "10", "--stat", "first",
        "--format", "json", "--out", str(tmp_path / "hist.json"),
    )
    assert code == EXIT_USAGE and "disk full" in err
    assert len(opened) == 1 and opened[0].closed


def test_import_leaves_scipy_and_sympy_out():
    # scipy, sympy and mpmath are test oracles; neither the CLI nor `limits` loads them
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, parkfn, parkfn.cli, parkfn.limits; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy', 'mpmath')))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_limit_laws_run_without_mpmath():
    # with mpmath blocked, `parkfn dist` tabulates every law on its default
    # grid, and the other evaluators that once used mpmath run too
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "\n".join((
        "import sys",
        "sys.modules['mpmath'] = None",
        "from parkfn import limits",
        "from parkfn.cli import main",
        "for name in ('borel', 'maxwell@0.5', 'excursion-max', 'bridge-max', 'airy-area',",
        "             'poisson', 'gaussian'):",
        "    assert main(['dist', '--dist', name]) == 0",
        "print(limits.borel_identity(1.0), limits.xi_moment(1.5), limits.airy_zeros(50)[-1])",
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    identity, moment, zero = map(float, proc.stdout.splitlines()[-1].split())
    assert identity == pytest.approx(1.0, abs=1e-10)
    assert moment == pytest.approx(xi_moment(1.5), rel=1e-15)
    assert zero == pytest.approx(-38.021, abs=1e-3)
    assert proc.stdout.count("argument,value") == 7


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    capsys.readouterr()
