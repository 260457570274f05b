"""The command line at its argument boundary, and one pinned build output."""

import hashlib

import pytest

from mslab.cli import main

APPROX = "APPROX"  # replaced by the path of a round-1 approximant file

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
