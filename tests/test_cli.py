"""The command line at its argument boundary, on non-metric space files,
and one pinned build output."""

import hashlib
import json

import pytest

from mslab.cli import main

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
