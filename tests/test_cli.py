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
from parkfn import cli, stats
from parkfn.core import dyck_encode, inconvenience, park, queue_profile
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
        assert is_parking_function(values, 6)
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


def _stats_oracle(values, relation):
    """What `stats` prints for a function, from the scalar definitions."""
    n = len(values)
    m = max(n, *values)
    is_pf = is_parking_function(values, n)
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
        "longest-run": oracles.longest_run(values, relation),
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
    # the scalar oracles give them
    for relation in ("<", ">="):
        for n in range(1, 5):
            for values in product(range(1, n + 2), repeat=n):
                text = ",".join(map(str, values))
                code, out, _ = run_cli(capsys, "stats", "--pf", text, "--relation", relation)
                assert code == EXIT_OK
                assert json.loads(out) == _stats_oracle(values, relation), (text, relation)


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


def test_sample_rejects_out_of_range_seed(capsys):
    for seed in ("-1", str(2**64)):
        code, _, err = run_cli(capsys, "sample", "--n", "3", "--stat", "first", "--seed", seed)
        assert code == EXIT_USAGE and "seed" in err


def test_dist_maxwell_requires_x(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--dist", "maxwell", "--x", "0.5", "--max", "1.0"
    )
    assert code == EXIT_OK
    assert "# x=0.5" in out
    code, _, err = run_cli(capsys, "dist", "--dist", "maxwell")
    assert code == EXIT_USAGE and "parameter x" in err


def test_compare_features(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n", "4")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if "," in l and not l.startswith("#")]
    statuses = dict(l.split(",", 1) for l in lines[1:])
    for feature in ("descent-pattern", "species", "inversions"):
        assert statuses[feature] == "equal"
    assert statuses["weak-peak@2"] == "equal"


def test_compare_negative_feature(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n", "4", "--feature", "strict-peak")
    assert code == EXIT_OK
    assert "UNEQUAL" in out


def test_compare_tv(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--n", "10", "--tv", "--count", "400", "--seed", "5"
    )
    assert code == EXIT_OK
    value = float(out.splitlines()[-1].split(",")[1])
    assert 0 <= value < 0.5


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
    assert code == EXIT_OK
    assert "[ok]" in out
    assert "FAIL" not in out
    assert "all identities verified" in out


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, parkfn, parkfn.cli, parkfn.limits; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'sympy')))")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    capsys.readouterr()
