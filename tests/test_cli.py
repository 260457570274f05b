"""The command line at its argument boundary, on non-metric space files and
out-of-range point indices, its exit code per subcommand, and one pinned
build output."""

import argparse
import hashlib
import json

import pytest

from mslab.cli import build_parser, main

APPROX = "APPROX"  # replaced by the path of a round-1 approximant file
SPACE = "SPACE"  # replaced by the path of a non-metric space file
FN = "FN"  # replaced by the path of a Katetov file over that space

# Each row once crashed with a traceback, reported a mathematical verdict or
# a `pass`; an argument outside its range must be a usage error (exit 2).
BOUNDARY = [
    ["urysohn", "check", APPROX, "--k", "1", "--round", "9"],
    ["urysohn", "check", APPROX, "--k", "1", "--round", "-1"],
    ["urysohn", "check", APPROX, "--k", "1", "--denom", "0"],
    ["urysohn", "check", APPROX, "--k", "1", "--denom", "-2"],
    ["urysohn", "check", APPROX, "--k", "0"],
    ["urysohn", "check", APPROX, "--k", "-1"],
    ["urysohn", "build", "--rounds", "1", "--subset-bound", "0"],
    ["urysohn", "build", "--rounds", "1", "--subset-bound", "-1"],
    ["urysohn", "build", "--rounds", "-3"],
    ["hilbert", "--random", "-1"],
    ["rado", "metric", "--scan", "-3"],
    ["lp", "--p", "3", "--pairings", "-1"],
    ["disjoint", "--p", "2", "--trials", "-1"],
    ["disjoint", "--p", "2", "--trials", "1", "--n", "-1"],
    ["katetov", "enumerate", APPROX, "--denom", "2", "--limit", "-1"],
    # the float tolerances are constants, not options; the global `--tol`
    # was silently shadowed by `hilbert --tol`
    ["--tol", "1e-6", "disjoint", "--p", "2", "--trials", "1"],
    ["hilbert", "--tol", "1", "--random", "1"],
]

# sha256 of the stdout of `mslab urysohn build --denom 2 --rounds 2`
BUILD_SHA = "cf03c5dc80dd5057c7ee0ca1410cefc4eb5ea1e08672ba4c41e87c222625f335"


def run(argv) -> int:
    """The exit code of one invocation; argparse usage errors exit 2 through
    SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def approx_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli") / "approx.json")
    assert main(["urysohn", "build", "--denom", "2", "--rounds", "1", "--out", path]) == 0
    return path


@pytest.mark.parametrize("argv", BOUNDARY, ids=" ".join)
def test_out_of_range_argument_exits_2(argv, approx_file, capsys):
    assert run([approx_file if a == APPROX else a for a in argv]) == 2
    assert capsys.readouterr().out == ""


def test_in_range_arguments_still_run(approx_file, capsys):
    assert run(["urysohn", "check", approx_file, "--k", "1", "--round", "0"]) == 0
    assert run(["urysohn", "check", approx_file, "--k", "2", "--round", "1", "--denom", "2"]) == 1
    assert run(["urysohn", "build", "--rounds", "0", "--subset-bound", "1"]) == 0
    assert run(["hilbert", "--random", "1"]) == 0
    assert run(["rado", "metric", "--scan", "0"]) == 0


def test_build_stdout_is_pinned(capsys):
    assert main(["urysohn", "build", "--denom", "2", "--rounds", "2"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BUILD_SHA


# d(b, c) = 0 and d(a, c) = 2 > d(a, b) + d(b, c); the Katetov file's values
# pass the Katetov inequalities over that matrix. Each subcommand below once
# ran on the non-metric and reported a verdict (most of them `pass`).
NON_METRIC = {"points": ["a", "b", "c"], "diam": "2", "d": [["0", "1", "2"], ["1", "0", "0"], ["2", "0", "0"]]}
READS_A_SPACE = [
    ["katetov", "check", FN],
    ["katetov", "extend", FN],
    ["katetov", "enumerate", SPACE, "--denom", "1"],
    ["katetov", "truncate", FN, "--level", "1/2", "--mode", "max"],
    ["urysohn", "build", "--seed-space", SPACE, "--rounds", "0"],
    ["urysohn", "ma", SPACE, "--x", "0", "--y", "2", "--delta", "1"],
    ["urysohn", "uwmt", SPACE, "--x", "0", "--y", "1"],
    ["urysohn", "nonproper", SPACE, "--x", "0", "--level", "1/2"],
    ["weak", "seminorm", SPACE, "--landmarks", "0"],
    ["weak", "proximity", SPACE, "--a", "0", "--b", "1", "--landmarks", "0", "--eps", "1"],
    ["weak", "net", SPACE, "--landmarks", "0", "--eps", "1"],
    ["weak", "restrict", FN, "--subset", "0"],
]


@pytest.fixture(scope="module")
def non_metric_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("non-metric")
    (root / "space.json").write_text(json.dumps(NON_METRIC))
    (root / "fn.json").write_text(json.dumps({"space": "space.json", "values": ["1", "1", "1"]}))
    return {SPACE: str(root / "space.json"), FN: str(root / "fn.json")}


@pytest.mark.parametrize("argv", READS_A_SPACE, ids=" ".join)
def test_non_metric_space_file_exits_2(argv, non_metric_files, capsys):
    assert run([non_metric_files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not hold a metric space: nonpositive-off-diagonal at (1, 2)" in captured.err


def test_validate_reports_a_non_metric_as_a_fail(non_metric_files, capsys):
    assert run(["validate", non_metric_files[SPACE]]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "fail"
    assert report["witness"] == {"reason": "nonpositive-off-diagonal", "at": [1, 2]}


# -- point indices ------------------------------------------------------------------

POINTS = "POINTS"  # replaced by the path of a 3-point metric space file
FN_OK = "FN_OK"  # a Katetov file over it, nowhere zero
FN_BAD = "FN_BAD"  # values (0, 0) over a 2-point space at distance 1/2
BROKEN = "BROKEN"  # a 3-point space file that breaks only the triangle inequality

# Each row once read the point counted from the end (a negative index) and
# passed, or crashed with an IndexError (an index past the last point).
OUT_OF_RANGE_INDEX = [
    ["urysohn", "ma", POINTS, "--x", "-1", "--y", "0", "--f", "", "--delta", "1/2"],
    ["urysohn", "ma", POINTS, "--x", "0", "--y", "1", "--f", "9", "--delta", "1/2"],
    ["urysohn", "uwmt", POINTS, "--x", "-1", "--y", "0"],
    ["urysohn", "uwmt", POINTS, "--x", "0", "--y", "1", "--z", "3"],
    ["urysohn", "nonproper", POINTS, "--x", "-1", "--z", "1", "--level", "1/2"],
    ["urysohn", "nonproper", POINTS, "--x", "0", "--z", "7", "--level", "1/2"],
    ["urysohn", "prop53", APPROX, "--pairs", "0:0", "--eps", "1/2", "--probe", "-1"],
    ["urysohn", "prop53", APPROX, "--pairs", "0:0", "--eps", "1/2", "--probe", "99"],
    ["urysohn", "prop53", APPROX, "--pairs", "0:-1", "--eps", "1/2", "--probe", "1"],
    ["urysohn", "bf", APPROX, "--pairs", "0:0", "--eps", "1/2", "--probe", "-1"],
    ["urysohn", "bf", APPROX, "--pairs", "99:0", "--eps", "1/2", "--probe", "1"],
    ["weak", "proximity", POINTS, "--a", "-1", "--b", "0", "--landmarks", "1", "--eps", "1/4"],
    ["weak", "proximity", POINTS, "--a", "0", "--b", "9", "--landmarks", "1", "--eps", "1/4"],
]


@pytest.fixture(scope="module")
def files(tmp_path_factory, approx_file):
    root = tmp_path_factory.mktemp("table")
    h = "1/2"
    points = {"points": ["a", "b", "c"], "diam": "1", "d": [["0", h, h], [h, "0", h], [h, h, "0"]]}
    broken = {"points": ["a", "b", "c"], "diam": "1", "d": [["0", "1/4", "1"], ["1/4", "0", "1/4"], ["1", "1/4", "0"]]}
    two = {"points": ["a", "b"], "diam": "1", "d": [["0", h], [h, "0"]]}
    (root / "points.json").write_text(json.dumps(points))
    (root / "broken.json").write_text(json.dumps(broken))
    (root / "fn_ok.json").write_text(json.dumps({"space": "points.json", "values": [h, h, "3/4"]}))
    (root / "fn_bad.json").write_text(json.dumps({"space": two, "values": ["0", "0"]}))
    return {APPROX: approx_file, POINTS: str(root / "points.json"), FN_OK: str(root / "fn_ok.json"),
            FN_BAD: str(root / "fn_bad.json"), BROKEN: str(root / "broken.json")}


def run_with(files, argv) -> int:
    return run([files.get(a, a) for a in argv])


@pytest.mark.parametrize("argv", OUT_OF_RANGE_INDEX, ids=" ".join)
def test_out_of_range_point_index_exits_2(argv, files, capsys):
    assert run_with(files, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "index" in captured.err and "out of range" in captured.err


# -- the exit-code table ------------------------------------------------------------

# Every subcommand but `suite` (its batteries run through the library in
# test_suite_smoke.py) with an input it passes (exit 0) and, where it can
# report a fail, one it fails (exit 1). `hilbert`, `disjoint`, `katetov
# enumerate` and the constructions check identities or build objects that
# hold for every valid input, so they have no failing row.
EXIT_CODES = [
    (["validate", POINTS], 0),
    (["validate", BROKEN], 1),
    (["katetov", "check", FN_OK], 0),
    (["katetov", "check", FN_BAD], 1),
    (["katetov", "extend", FN_OK], 0),
    (["katetov", "enumerate", POINTS, "--denom", "2"], 0),
    (["katetov", "truncate", FN_OK, "--level", "1/4", "--mode", "max"], 0),
    (["urysohn", "build", "--denom", "2", "--rounds", "1"], 0),
    (["urysohn", "check", APPROX, "--k", "1", "--round", "0"], 0),
    (["urysohn", "check", APPROX, "--k", "2", "--round", "1", "--denom", "2"], 1),
    (["urysohn", "ma", POINTS, "--x", "0", "--y", "1", "--f", "2", "--delta", "1/2"], 0),
    (["urysohn", "uwmt", POINTS, "--x", "0", "--y", "1", "--z", "2"], 0),
    (["urysohn", "prop53", APPROX, "--pairs", "0:0", "--eps", "1/2", "--probe", "1"], 0),
    (["urysohn", "bf", APPROX, "--pairs", "0:0", "--eps", "1/2", "--probe", "1"], 0),
    (["urysohn", "chain", "--r", "1/3", "--s", "1", "--diam", "1"], 0),
    (["urysohn", "nonproper", POINTS, "--x", "0", "--z", "1,2", "--level", "1/4"], 0),
    (["weak", "seminorm", POINTS, "--landmarks", "0,1"], 0),
    (["weak", "proximity", POINTS, "--a", "1", "--b", "2", "--landmarks", "0", "--eps", "1/4"], 0),
    (["weak", "proximity", POINTS, "--a", "0", "--b", "1", "--landmarks", "0", "--eps", "1/4"], 1),
    (["weak", "net", POINTS, "--landmarks", "0", "--eps", "1/4"], 0),
    (["weak", "restrict", FN_OK, "--subset", "0,2"], 0),
    (["hilbert", "--random", "3"], 0),
    (["lp", "--p", "3", "--pairings", "2"], 0),
    (["lp", "--p", "2", "--pairings", "2"], 1),
    (["disjoint", "--p", "2", "--trials", "2"], 0),
    (["profile", "check", "builtin:vee"], 0),
    (["profile", "agree", "builtin:flat-then-identity", "builtin:vee", "--lo", "1", "--hi", "1"], 0),
    (["profile", "agree", "builtin:flat-then-identity", "builtin:vee", "--lo", "0", "--hi", "1"], 1),
    (["rado", "adj", "0", "1"], 0),
    (["rado", "metric", "2", "5"], 0),
    (["rado", "metric", "--scan", "8"], 0),
    (["rado", "witness", "--u", "1,2", "--v", "3"], 0),
    (["rado", "basis", "--code", "0:1"], 0),
    (["rado", "basis", "--code", "0:1", "--code2", "1:2"], 0),
]


@pytest.mark.parametrize("argv,code", EXIT_CODES, ids=[" ".join(argv) for argv, _ in EXIT_CODES])
def test_exit_code(argv, code, files, capsys):
    assert run_with(files, argv) == code
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == ("pass" if code == 0 else "fail")


def subcommands(parser, prefix=()):
    """The leaf subcommand paths of an argparse parser."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [prefix]
    return [leaf for name, sub in actions[0].choices.items() for leaf in subcommands(sub, prefix + (name,))]


def test_every_subcommand_has_a_row():
    for leaf in subcommands(build_parser()):
        assert leaf == ("suite",) or any(tuple(argv[: len(leaf)]) == leaf for argv, _ in EXIT_CODES), leaf


# -- Katetov files: `check` reports a verdict, the builders refuse -----------------


def test_katetov_check_reports_non_katetov_values_as_a_fail(files, capsys):
    assert run_with(files, ["katetov", "check", FN_BAD]) == 1
    assert json.loads(capsys.readouterr().out)["witness"] == {"reason": "sum", "at": [0, 1]}


@pytest.mark.parametrize("argv", [
    ["katetov", "extend", FN_BAD],
    ["katetov", "truncate", FN_BAD, "--level", "1/4", "--mode", "max"],
    ["weak", "restrict", FN_BAD, "--subset", "0"],
], ids=" ".join)
def test_builders_refuse_non_katetov_values(argv, files, capsys):
    assert run_with(files, argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not Katetov: sum at (0, 1)" in captured.err
