"""Driver behavior: exit codes, formats, determinism, atomic output."""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperlap import (RandomModel, binom, build_aux, complete, load_matrix,
                      normalized_laplacian, read_hypergraph, sample,
                      write_hypergraph)
import hyperlap.cli as cli
import hyperlap.errors as errors
import hyperlap.walks as walks
from hyperlap.cli import ExperimentConfig, main, run, trial_seed


def test_run_spectrum_complete_pinned():
    cfg = ExperimentConfig(
        subcommand="spectrum", n=10, r=4, s=2, use_complete=True, deterministic=True
    )
    rep = run(cfg)
    assert rep.passed
    assert rep.timestamp is None
    got = [(rec["value"], rec["multiplicity"]) for rec in rep.records]
    assert got[0] == (0.0, 1)
    assert got[1][1] == 35
    assert got[2] == (1.25, 9)
    assert got[1][0] == pytest.approx(27 / 28)
    assert rep.summary["max_abs_error"] <= 1e-9


def test_trial_seed_stable():
    assert trial_seed(7, 0) == trial_seed(7, 0)
    assert trial_seed(7, 0) != trial_seed(7, 1)
    assert trial_seed(7, 1) != trial_seed(8, 1)


def test_exit_zero_on_pass(capsys):
    code = main(
        ["walk-count", "--n", "5", "--r", "2", "--s", "1", "--t", "2",
         "--deterministic"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["records"][0]["count"] == 20
    assert "timestamp" not in doc


def test_timestamp_unless_deterministic(capsys):
    main(["ekr", "--n", "8"])
    doc = json.loads(capsys.readouterr().out)
    assert "timestamp" in doc


def test_exit_one_on_tolerance_failure(capsys):
    code = main(
        ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5",
         "--trials", "2", "--slack", "0.0", "--deterministic"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["pass"] is False
    assert doc["summary"]["within"] < 2


def test_exit_one_on_trial_error(capsys):
    # an (almost surely) empty hypergraph leaves no spectrum to report
    code = main(
        ["radius", "--n", "6", "--r", "3", "--s", "1", "--p", "1e-09",
         "--trials", "1", "--deterministic"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["records"][0]["error"] == "Disconnected"
    assert doc["summary"]["errors"] == 1


def test_exit_two_on_usage_error(capsys):
    # no instance source
    code, doc = _run(["spectrum", "--n", "10", "--r", "4", "--s", "2"], capsys)
    assert code == 2
    assert doc["summary"]["error"] == "BadParams"
    assert doc["records"] == [] and doc["pass"] is False


def test_exit_two_on_bad_stop_size(capsys):
    code = main(
        ["spectrum", "--n", "10", "--r", "4", "--s", "3", "--complete",
         "--deterministic"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["summary"]["error"] == "NotLoose"
    assert doc["pass"] is False


def test_byte_identical_reruns(tmp_path):
    args = ["semicircle", "--n", "12", "--r", "3", "--s", "1", "--p", "0.5",
            "--trials", "3", "--seed", "9", "--bins", "10", "--deterministic"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--output", str(out1)]) == main(args + ["--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_parser_reuse_leaks_no_flag(capsys):
    """main builds its parser once per process; a flag given to one call
    does not become a default of the next."""
    base = ["radius", "--n", "12", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "2",
            "--deterministic"]
    docs = []
    for argv in (base + ["--slack", "5"], base, base + ["--slack", "5"]):
        assert main(argv) == 0
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[2]
    assert json.loads(docs[0])["config"]["slack"] == 5.0
    assert json.loads(docs[1])["config"]["slack"] == 3.0
    assert cli._build_parser() is cli._build_parser()


def test_csv_walk_count_row(capsys):
    main(["walk-count", "--n", "5", "--r", "2", "--s", "1", "--t", "2",
          "--format", "csv", "--deterministic"])
    lines = capsys.readouterr().out.splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "n,r,s,t,i,j,count,bound"
    assert "5,2,1,2,1,2,20,25.0" in lines


def test_json_roundtrips(capsys):
    main(["mixing", "--n", "9", "--r", "3", "--s", "1", "--p", "0.6",
          "--trials", "2", "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "records", "summary", "pass"}
    assert len(doc["records"]) == doc["config"]["trials"] == 2
    assert json.loads(json.dumps(doc)) == doc


def test_output_written_even_on_setup_error(tmp_path):
    out = tmp_path / "err.json"
    code = main(
        ["spectrum", "--n", "10", "--r", "4", "--s", "3", "--complete",
         "--deterministic", "--output", str(out)]
    )
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["summary"]["error"] == "NotLoose"


def test_dump_matrix_flag(tmp_path):
    dump = tmp_path / "lap.txt"
    main(["spectrum", "--n", "8", "--r", "4", "--s", "2", "--complete",
          "--deterministic", "--dump-matrix", str(dump),
          "--output", str(tmp_path / "out.json")])
    with open(dump) as fh:
        m = load_matrix(fh)
    assert m.dim == 28
    assert m.entries[0, 0] == 1.0


def test_dump_matrix_sampled_and_input(tmp_path):
    """--p and --input dump the Laplacian of the very instance they report on."""
    path = tmp_path / "h.txt"
    with open(path, "w") as fh:
        write_hypergraph(sample(RandomModel(9, 3, 0.4, 5)), fh)
    with open(path) as fh:
        from_file = read_hypergraph(fh)
    cases = [
        (["--p", "0.4", "--seed", "3"], sample(RandomModel(9, 3, 0.4, trial_seed(3, 0)))),
        (["--input", str(path)], from_file),
    ]
    for source, h in cases:
        dump = tmp_path / "lap.txt"
        code = main(["spectrum", "--n", "9", "--r", "3", "--s", "1", *source,
                     "--deterministic", "--dump-matrix", str(dump),
                     "--output", str(tmp_path / "out.json")])
        assert code == 0
        with open(dump) as fh:
            m = load_matrix(fh)
        want = normalized_laplacian(build_aux(h, 1)).matrix.entries
        assert m.dim > 0
        assert np.array_equal(m.entries, want)


def test_input_fixture(tmp_path, capsys):
    path = tmp_path / "h.txt"
    with open(path, "w") as fh:
        write_hypergraph(complete(7, 3), fh)
    code = main(["spectrum", "--n", "7", "--r", "3", "--s", "1",
                 "--input", str(path), "--deterministic"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["summary"]["dim"] == 7
    assert doc["summary"]["lambda_bar"] == pytest.approx(1 / 6)


def test_trials_rejected_for_complete(capsys):
    code, doc = _run(["mixing", "--n", "8", "--r", "4", "--s", "2", "--complete",
                      "--trials", "3"], capsys)
    assert code == 2
    assert doc["summary"] == {"error": "BadParams",
                              "message": "--trials > 1 needs --p, got 3 with --complete"}
    assert doc["records"] == [] and doc["pass"] is False


def _strict(const):
    raise ValueError(f"{const} is not JSON")


def _run(argv, capsys):
    code = main(argv + ["--deterministic"])
    return code, json.loads(capsys.readouterr().out, parse_constant=_strict)


@pytest.mark.parametrize("argv", [
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "1.5"],
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0"],
    ["semicircle", "--n", "8", "--r", "3", "--s", "1", "--p", "1.5"],
    ["diagnostics", "--n", "8", "--r", "3", "--s", "1", "--p", "-0.5"],
    ["mixing", "--n", "8", "--r", "3", "--s", "1", "--p", "nan"],
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--budget", "-3"],
    ["walk-count", "--n", "5", "--r", "2", "--s", "1", "--t", "2", "--budget", "0"],
    ["radius", "--n", "4", "--r", "8", "--s", "1", "--p", "0.5"],
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--seed", "-1"],
    ["semicircle", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--bins", "0"],
    ["expansion", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5",
     "--family-frac", "2"],
    ["ekr", "--n", "-3"],
    ["walk-count", "--n", "-3", "--r", "2", "--s", "1", "--t", "2"],
    ["mixing", "--n", "8", "--r", "9", "--s", "1", "--complete"],
    ["diameter", "--n", "6", "--r", "0", "--s", "1", "--p", "0.5"],
    ["expansion", "--n", "4", "--r", "5", "--s", "1", "--p", "0.5"],
    ["monotonicity", "--n", "3", "--r", "4", "--complete"],
    ["walk-count", "--n", "3", "--r", "4", "--s", "1", "--t", "2"],
    ["walk-count", "--n", "0", "--r", "2", "--s", "1", "--t", "2"],
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "0"],
    ["mixing", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--steps", "0",
     "--trials", "2"],
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--slack", "nan"],
    ["spectrum", "--n", "8", "--r", "3", "--s", "1", "--complete", "--tol", "nan"],
    ["semicircle", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--ks-tol", "nan"],
    ["mixing", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--tol", "inf"],
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--slack", "-1"],
    ["expansion", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--family-frac",
     "nan"],
])
def test_bad_value_is_a_bad_params_document(argv, capsys):
    code, doc = _run(argv, capsys)
    assert code == 2
    assert doc["summary"]["error"] == "BadParams"
    assert doc["records"] == [] and doc["pass"] is False


@pytest.mark.parametrize("argv", [
    ["radius", "--n", "4", "--r", "4", "--s", "4", "--p", "0.5"],
    ["walk-count", "--n", "4", "--r", "0", "--s", "-1", "--t", "1"],
    ["mixing", "--n", "8", "--r", "3", "--s", "2", "--p", "0.5"],
    ["diameter", "--n", "8", "--r", "4", "--s", "3", "--complete"],
    ["expansion", "--n", "8", "--r", "3", "--s", "0", "--p", "0.5"],
    ["monotonicity", "--n", "8", "--r", "1", "--p", "0.5"],
    ["monotonicity", "--n", "8", "--r", "1", "--complete"],
    ["ekr", "--n", "0", "--s", "0"],
    ["ekr", "--n", "1"],
])
def test_bad_stop_size_is_a_not_loose_document(argv, capsys):
    code, doc = _run(argv, capsys)
    assert code == 2
    # ekr takes no r: its bad stop size is a Kneser graph K(n, s) with n < 2s
    assert doc["summary"]["error"] == ("DegenerateKneser" if argv[0] == "ekr"
                                       else "NotLoose")


@pytest.mark.parametrize("env", ["abc", "0", "1"])
def test_budget_env_is_ignored(env, monkeypatch, capsys):
    """A run depends on its flags only: HYPERLAP_BUDGET, once a second way
    to set the budget, changes no byte and no exit code."""
    runs = [["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5"],
            ["walk-count", "--n", "5", "--r", "2", "--s", "1", "--t", "4"]]
    for argv in runs:
        monkeypatch.delenv("HYPERLAP_BUDGET", raising=False)
        plain = main(argv + ["--deterministic"]), capsys.readouterr().out
        monkeypatch.setenv("HYPERLAP_BUDGET", env)
        assert (main(argv + ["--deterministic"]), capsys.readouterr().out) == plain


@pytest.mark.parametrize("argv, message", [
    (["radius", "--n", "2000", "--r", "1000", "--s", "1", "--p", "0.5"],
     "C(1999, 999) exceeds the float range"),
    (["diagnostics", "--n", "2000", "--r", "1000", "--s", "1", "--p", "0.5"],
     "C(1999, 999) exceeds the float range"),
    (["semicircle", "--n", "2000", "--r", "1000", "--s", "1", "--p", "0.5"],
     "C(999, 1)*C(1999, 999) exceeds the float range"),
    (["diagnostics", "--n", "1500", "--r", "275", "--s", "1", "--p", "0.5"],
     "the degree window or the sum-of-squares reference exceeds the float range"),
    (["diagnostics", "--n", "2000", "--r", "228", "--s", "1", "--p", "0.5"],
     "the degree window or the sum-of-squares reference exceeds the float range"),
    (["walk-count", "--n", "1000", "--r", "30", "--s", "15", "--t", "2"],
     "C(30, 30)*C(30, 15)*C(15, 15) walk-table steps exceed the cap of 2097152"),
    (["walk-count", "--n", str(10**111), "--r", "3", "--s", "1", "--t", "4"],
     "the census bound of cell (1, 3) exceeds the float range"),
])
def test_too_large_setup_is_a_document(argv, message, monkeypatch, capsys):
    """A reference constant that no float can hold, or a walk table too large
    to hold, is an exit-2 TooLarge document, not a traceback."""
    tables = walks._tables

    def capped_tables(n, r, s):
        if binom(n, r) * binom(r, s) * binom(r - s, s) > walks.MAX_TABLE_STEPS:
            raise AssertionError(f"_tables{n, r, s} built past the table cap")
        return tables(n, r, s)

    monkeypatch.setattr(walks, "_tables", capped_tables)
    code, doc = _run(argv, capsys)
    assert code == 2
    assert doc["records"] == []
    assert doc["summary"] == {"error": "TooLarge", "message": message}


def test_semicircle_every_trial_errors(capsys):
    code, doc = _run(["semicircle", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5",
                      "--trials", "2", "--budget", "1"], capsys)
    assert code == 1
    assert doc["pass"] is False
    assert doc["summary"]["errors"] == 2
    assert doc["summary"]["pooled"] == 0
    assert doc["summary"]["ks_distance"] is None
    assert len(doc["records"]) == 40


def test_complete_checks_dense_cap_before_building(monkeypatch, capsys):
    """C(65, 2) = 2080 stops exceed the dense cap, so --complete fails before
    it builds C(65, 4) edges, with the report it gave after building them.
    More C(n, r) edges than the budget fail before building too."""

    def no_complete(n, r):
        raise AssertionError(f"complete({n}, {r}) built past the dense cap")

    monkeypatch.setattr(cli, "complete", no_complete)
    too_large = {"error": "TooLarge",
                 "message": "C(65, 2) s-sets exceed the dense budget of 2048"}
    code, doc = _run(["spectrum", "--complete", "--n", "65", "--r", "4", "--s", "2"],
                     capsys)
    assert code == 2
    assert doc["records"] == [] and doc["summary"] == too_large
    # monotonicity passes s = 1 (65 stops) and fails at s = 2
    code, doc = _run(["monotonicity", "--complete", "--n", "65", "--r", "4"], capsys)
    assert code == 2
    assert doc["records"] == [] and doc["summary"] == too_large
    # the dense cap holds, but C(n, r) edges are past the budget
    for argv, message in [
        (["spectrum", "--complete", "--n", "40", "--r", "20", "--s", "1"],
         "C(40, 20) edges exceed budget 100000000"),
        (["spectrum", "--complete", "--n", "10", "--r", "4", "--s", "2", "--budget", "100"],
         "C(10, 4) edges exceed budget 100"),
    ]:
        code, doc = _run(argv, capsys)
        assert code == 2
        assert doc["records"] == []
        assert doc["summary"] == {"error": "TooLarge", "message": message}
        cfg = ExperimentConfig(**vars(cli._build_parser().parse_args(argv)))
        with pytest.raises(errors.TooLarge) as exc:
            run(cfg)
        assert str(exc.value) == message


@pytest.mark.parametrize("argv, error, message", [
    (["mixing", "--n", "8", "--r", "4", "--s", "2"],
     "BadParams", "mixing needs exactly one of --complete, --input and --p, got none"),
    (["spectrum", "--n", "8", "--r", "4", "--s", "2", "--complete", "--input", "h.txt"],
     "BadParams", "spectrum needs exactly one of --complete, --input and --p, "
     "got --complete, --input"),
    (["mixing", "--n", "8", "--r", "4", "--s", "2", "--complete", "--p", "0.5"],
     "BadParams", "mixing needs exactly one of --complete, --input and --p, "
     "got --complete, --p"),
    (["diameter", "--n", "8", "--r", "4", "--s", "2", "--input", "h.txt", "--p", "0.5"],
     "BadParams", "diameter needs exactly one of --complete, --input and --p, "
     "got --input, --p"),
    (["semicircle", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "1",
      "--bins", "10001"],
     "BadParams", "need 1 <= bins <= 10000, got 10001"),
    (["radius", "--n", "70", "--r", "4", "--s", "2", "--p", "0.5"],
     "TooLarge", "C(70, 2) s-sets exceed the dense budget of 2048"),
    (["diagnostics", "--n", "26", "--r", "25", "--s", "12", "--p", "0.5", "--trials", "1"],
     "TooLarge", "C(26, 12) s-sets exceed the dense budget of 2048"),
    # C(100000, 3000) has about 5,850 digits, too many to write out as a str
    (["radius", "--n", "100000", "--r", "6000", "--s", "3000", "--p", "0.5"],
     "TooLarge", "C(100000, 3000) s-sets exceed the dense budget of 2048"),
])
def test_setup_gate_refuses_before_any_instance(argv, error, message, monkeypatch,
                                                capsys):
    """Every run the flags alone can refuse is an exit-2 document from main
    and the same error from run(), before any instance is sampled (h.txt
    is never opened either)."""

    def no_sample(model, budget):
        raise AssertionError(f"sampled {model} past the setup gate")

    monkeypatch.setattr(cli, "sample", no_sample)
    code, doc = _run(argv, capsys)
    assert code == 2
    assert doc["records"] == [] and doc["pass"] is False
    assert doc["summary"] == {"error": error, "message": message}
    cfg = ExperimentConfig(**vars(cli._build_parser().parse_args(argv)))
    with pytest.raises(getattr(errors, error)) as exc:
        run(cfg)
    assert str(exc.value) == message


@pytest.mark.parametrize("data", [None, b"x 2 1\n0 1\n", b"5 2 1\n0 1.5\n",
                                  b"\xff 2 1\n0 1\n"],
                         ids=["missing", "header-token", "edge-token", "not-utf8"])
@pytest.mark.parametrize("sub", ["spectrum", "mixing"])
def test_bad_input_file_is_reported(sub, data, tmp_path, capsys):
    """An --input that cannot be read, or a non-integer token in it, is a
    BadParams report: the setup document for spectrum, a per-trial record
    for a trial runner."""
    path = tmp_path / "h.txt"
    if data is not None:
        path.write_bytes(data)
    code, doc = _run([sub, "--n", "5", "--r", "2", "--s", "1", "--input", str(path)],
                     capsys)
    if sub == "spectrum":
        assert code == 2
        assert doc["records"] == [] and doc["summary"]["error"] == "BadParams"
    else:
        assert code == 1
        assert [rec["error"] for rec in doc["records"]] == ["BadParams"]
    assert doc["pass"] is False


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("flag, argv", [
    ("--dump-matrix", ["spectrum", "--complete", "--n", "10", "--r", "4", "--s", "2"]),
    ("--output", ["ekr", "--n", "6"]),
], ids=["dump-matrix", "output"])
def test_unwritable_path_is_a_bad_params_document(flag, argv, target, tmp_path, capsys):
    """A path that cannot be written is an exit-2 BadParams document on
    stdout, and no file, partial or temporary, is left behind."""
    path = tmp_path / "missing" / "x.txt"
    if target == "directory":
        path = tmp_path / "dir"
        path.mkdir()
    code, doc = _run(argv + [flag, str(path)], capsys)
    assert code == 2
    assert doc["records"] == [] and doc["pass"] is False
    assert doc["summary"]["error"] == "BadParams"
    # the message names the path asked for, not a random temporary file
    msg = doc["summary"]["message"]
    assert msg.startswith(f"cannot write {flag}: ") and msg.endswith(f": {path}")
    left = sorted(p.name for p in tmp_path.rglob("*"))
    assert left == ([] if target == "missing" else ["dir"])


def test_unwritable_output_keeps_the_setup_error(tmp_path, capsys):
    """A run that already failed at setup still reports that error on
    stdout, with the --output write error added to its message."""
    path = tmp_path / "missing" / "y.json"
    code, doc = _run(["ekr", "--n", "1", "--output", str(path)], capsys)
    assert code == 2
    assert doc["records"] == [] and doc["pass"] is False
    assert doc["summary"]["error"] == "DegenerateKneser"
    setup, write = doc["summary"]["message"].split("; ")
    assert setup == "no stop size s with n >= 2s >= 2, n=1"
    assert write.startswith("cannot write --output: ") and write.endswith(f": {path}")
    assert list(tmp_path.rglob("*")) == []


def test_ekr_past_float_range_is_a_report(capsys):
    code, doc = _run(["ekr", "--n", "2000", "--s", "700"], capsys)
    assert code == 0 and doc["pass"] is True
    assert doc["records"][0]["bound"] == math.comb(1999, 699)


# every subcommand at a small size, plus per-trial error records (diameter
# at p = 0.05 is disconnected) and an exit-2 document (ekr at n = 1)
CONTRACT_ARGV = [
    ["spectrum", "--complete", "--n", "8", "--r", "4", "--s", "2"],
    ["spectrum", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5"],
    ["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "2"],
    ["semicircle", "--n", "10", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "2",
     "--bins", "4"],
    ["walk-count", "--n", "5", "--r", "2", "--s", "1", "--t", "4"],
    ["mixing", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "2"],
    ["diameter", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "2"],
    ["expansion", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "2"],
    ["ekr", "--n", "6"],
    ["monotonicity", "--complete", "--n", "8", "--r", "4"],
    ["diagnostics", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5", "--trials", "2"],
    ["diameter", "--n", "10", "--r", "3", "--s", "1", "--p", "0.05", "--trials", "3"],
    ["ekr", "--n", "1"],
]


def _json_native(x) -> bool:
    """x is built only from dict, list, str, int, finite float, bool and
    None, exactly: no tuple, and no numpy scalar passing as a float subclass."""
    if type(x) is dict:
        return all(type(k) is str and _json_native(v) for k, v in x.items())
    if type(x) is list:
        return all(_json_native(v) for v in x)
    if type(x) is float:
        return math.isfinite(x)
    return type(x) in (str, int, bool, type(None))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reports_hold_only_json_native_values(fmt, monkeypatch, capsys):
    """The output layer writes report values as it gets them, so every
    runner must build its records from Python built-ins."""
    emitted, emit = [], cli.emit

    def spy(rep, cfg):
        emitted.append(rep)
        emit(rep, cfg)

    monkeypatch.setattr(cli, "emit", spy)
    codes = [main(argv + ["--format", fmt, "--deterministic"]) for argv in CONTRACT_ARGV]
    capsys.readouterr()
    assert len(emitted) == len(CONTRACT_ARGV)
    for argv, rep in zip(CONTRACT_ARGV, emitted):
        for part in (rep.config, rep.records, rep.summary):
            assert _json_native(part), (argv, part)
        assert type(rep.passed) is bool
    assert {rec["error"] for rec in emitted[-2].records} == {"Disconnected"}
    assert codes[-1] == 2 and emitted[-1].summary["error"] == "DegenerateKneser"


def test_csv_rows_have_the_header_width(tmp_path, capsys):
    """CSV data rows parse to the header's width, and string cells, such as
    an error message that holds commas, read back as the JSON report has them."""
    path = tmp_path / "k84.txt"
    with open(path, "w") as fh:
        write_hypergraph(complete(8, 4), fh)
    # s = 3 is not loose for r = 4: one per-trial record with commas in its message
    found = ["mixing", "--input", str(path), "--n", "8", "--r", "4", "--s", "3"]
    for argv in CONTRACT_ARGV + [found]:
        main(argv + ["--deterministic"])
        records = json.loads(capsys.readouterr().out)["records"]
        main(argv + ["--format", "csv", "--deterministic"])
        text = capsys.readouterr().out.splitlines(keepends=True)
        table = list(csv.reader(line for line in text if not line.startswith("#")))
        assert len(table) == (len(records) + 1 if records else 0), argv
        for rec, row in zip(records, table[1:]):
            assert len(row) == len(table[0]), (argv, row)
            cells = dict(zip(table[0], row))
            assert all(cells[k] == v for k, v in rec.items() if isinstance(v, str))
    assert cells == {"trial": "0", "error": "NotLoose",
                     "message": "need 1 <= s <= r/2, got s=3, r=4"}


def test_tol_rejected_where_unused():
    with pytest.raises(SystemExit) as exc:
        main(["radius", "--n", "8", "--r", "3", "--s", "1", "--p", "0.5",
              "--tol", "0.1"])
    assert exc.value.code == 2


# the echo's keys and their order are part of the pinned report bytes
CORE = ["subcommand", "n", "r", "s", "p", "t", "seed", "trials", "format", "budget",
        "deterministic"]
ECHO_EXTRA = {
    "spectrum": ["use_complete", "input_path", "dump_path", "tol"],
    "radius": ["slack"],
    "semicircle": ["bins", "ks_tol"],
    "walk-count": [],
    "mixing": ["use_complete", "input_path", "steps", "tol"],
    "diameter": ["use_complete", "input_path", "tol"],
    "expansion": ["use_complete", "input_path", "family_frac", "tol"],
    "ekr": [],
    "monotonicity": ["use_complete", "input_path", "tol"],
    "diagnostics": ["tol"],
}


@pytest.mark.parametrize("sub", sorted(ECHO_EXTRA))
def test_echo_key_order(sub):
    cfg = ExperimentConfig(subcommand=sub, n=6, r=2, s=1, p=0.5, t=2, budget=9,
                           output="out.json", input_path="h.txt", dump_path="m.txt")
    assert list(cfg.echo()) == CORE + ECHO_EXTRA[sub]


# every subcommand's flags, with values around and outside their valid
# ranges at small sizes; a flag a subcommand does not take is a usage error
FUZZ_FLAGS = {
    "spectrum": ["--n", "--r", "--s", "--p", "--complete", "--tol"],
    "radius": ["--n", "--r", "--s", "--p", "--slack"],
    "semicircle": ["--n", "--r", "--s", "--p", "--bins", "--ks-tol"],
    "walk-count": ["--n", "--r", "--s", "--t"],
    "mixing": ["--n", "--r", "--s", "--p", "--complete", "--steps", "--tol"],
    "diameter": ["--n", "--r", "--s", "--p", "--complete", "--tol"],
    "expansion": ["--n", "--r", "--s", "--p", "--complete", "--family-frac", "--tol"],
    "ekr": ["--n", "--s"],
    "monotonicity": ["--n", "--r", "--p", "--complete", "--tol"],
    "diagnostics": ["--n", "--r", "--s", "--p", "--tol"],
}
REALS = st.sampled_from(["0.5", "0.5", "0.9", "0", "1", "1.5", "-0.5", "1e-9", "nan", "inf"])
FUZZ_VALUES = {
    "--n": st.integers(-1, 8),
    "--r": st.integers(-1, 6),
    "--s": st.integers(-1, 3),
    "--t": st.integers(-1, 3),
    "--bins": st.integers(-1, 4),
    "--steps": st.integers(-1, 3),
    "--trials": st.sampled_from([1, 1, 2, 0, -1]),
    "--seed": st.integers(-1, 3),
    "--budget": st.integers(-1, 400),
    "--format": st.sampled_from(["json", "csv"]),
}


@st.composite
def cli_argv(draw):
    sub = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [sub]
    # mostly flags the subcommand takes; now and then one it does not
    flags = FUZZ_FLAGS[sub] + ["--trials", "--seed", "--budget", "--format"]
    if not draw(st.integers(0, 9)):
        flags.append(draw(st.sampled_from(["--t", "--tol", "--complete"])))
    for flag in flags:
        if not draw(st.integers(0, 9 if flag in ("--n", "--r", "--s", "--t") else 2)):
            continue
        argv.append(flag)
        if flag != "--complete":
            argv.append(str(draw(FUZZ_VALUES.get(flag, REALS))))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_fuzz_flags_exit_codes_and_documents(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--deterministic"])
    except SystemExit as exc:
        assert exc.code == 2  # argparse usage error
        return
    assert code in (0, 1, 2)
    text = out.getvalue()
    if text.startswith("# config "):
        json.loads(text.splitlines()[0][len("# config "):], parse_constant=_strict)
        assert text.splitlines()[-1] in ("# pass=true", "# pass=false")
    else:
        doc = json.loads(text, parse_constant=_strict)
        assert doc["pass"] is (code == 0)
