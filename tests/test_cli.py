"""The command line at its argument boundary, on non-metric space files and
out-of-range point indices, its exit code per subcommand, and one pinned
build output."""

import argparse
import ast
import hashlib
import json
from pathlib import Path

import pytest

import mslab.cli
from mslab.cli import build_parser, main

APPROX = "APPROX"  # replaced by the path of a round-1 approximant file
SPACE = "SPACE"  # replaced by the path of a non-metric space file
FN = "FN"  # replaced by the path of a Katetov file over that space

# Two modes asked for at once, and the message that names the conflict; each
# once ran one mode with a `pass` and silently dropped the other's input.
CONFLICTS = [
    (["disjoint", "--p", "2", "--part", "/nonexistent.json", "--trials", "3"], "--part needs --x"),
    (["hilbert", "--u", "1,0", "--random", "2"], "conflicts with --u/--v/--z"),
    (["rado", "metric", "3", "5", "--scan", "4"], "conflicts with the vertices i j"),
]

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
    # zero random triples was read as no --random at all, and zero trials
    # passed vacuously with "instances": 0
    ["hilbert", "--random", "0"],
    ["disjoint", "--p", "2", "--trials", "0"],
    ["rado", "metric", "--scan", "-3"],
    # the empty space once passed vacuously, and a missing vertex was read as 0
    ["rado", "metric", "--scan", "0"],
    ["rado", "metric"],
    ["rado", "metric", "5"],
    ["lp", "--p", "3", "--pairings", "-1"],
    ["disjoint", "--p", "2", "--trials", "-1"],
    ["disjoint", "--p", "2", "--trials", "1", "--n", "-1"],
    ["katetov", "enumerate", APPROX, "--denom", "2", "--limit", "-1"],
    # the float tolerances are constants, not options; the global `--tol`
    # was silently shadowed by `hilbert --tol`
    ["--tol", "1e-6", "disjoint", "--p", "2", "--trials", "1"],
    ["hilbert", "--tol", "1", "--random", "1"],
    # each value below is parsed by its argparse type; the handlers once
    # parsed them and a malformed one crashed with a traceback (exit 1)
    ["urysohn", "chain", "--r", "abc", "--s", "1", "--diam", "1"],
    ["urysohn", "ma", APPROX, "--x", "0", "--y", "1", "--delta", "1/0"],
    ["urysohn", "uwmt", APPROX, "--x", "0", "--y", "1", "--z", "1,x"],
    ["weak", "proximity", APPROX, "--a", "0,,1", "--b", "1", "--landmarks", "0", "--eps", "1"],
    ["urysohn", "bf", APPROX, "--pairs", "0", "--eps", "1/2", "--probe", "1"],
    ["rado", "basis", "--code", "0:1", "--scan", "a..b"],
    ["hilbert", "--u", "1,x", "--v", "0,1", "--z", "1,0"],
    ["rado", "witness", "--u", "1,x"],
    ["rado", "basis", "--code", "1:x"],
    # a basis code outside its domain (a value not in {1, 2}, a vertex given twice)
    ["rado", "basis", "--code", "1:3"],
    ["rado", "basis", "--code", "1:1,1:2"],
    ["profile", "check", "builtin:vee", "--horizon", "zz"],
    ["profile", "agree", "builtin:vee", "builtin:vee", "--lo", "q", "--hi", "1"],
    # a span that holds no vertex once gave a vacuous `pass` with no members
    ["rado", "basis", "--code", "0:1", "--scan", "5..2"],
    ["rado", "basis", "--code", "0:1", "--scan", "-3"],
    ["rado", "basis", "--code", "0:1", "--scan", "0"],
    # a budget below one point once ran the whole suite to battery 8's `fail`
    ["--budget", "0", "suite"],
    ["--budget", "-1", "suite"],
    *(argv for argv, _ in CONFLICTS),
]

# A back-and-forth state that `BFState.create` refuses, and its message.
BF_REFUSED = [
    (["--pairs", "0:1", "--eps", "1/4"], "pair 0 is 1/2 apart, above eps 1/4"),
    (["--pairs", "0:0,0:1", "--eps", "1"], "duplicate domain indices in pairs"),
    (["--pairs", "0:0,1:0", "--eps", "1"], "pairs 0 and 1 break the isometry condition"),
    (["--pairs", "0:0", "--eps", "0"], "eps must be positive"),
    (["--pairs", "0:0", "--eps", "-1"], "eps must be positive"),
]

# A malformed value of each argument type, and the form its usage error
# names; the messages once named the private parser ("invalid _indices
# value", "invalid parse_rational value").
USAGE_NAMES = [
    (["rado", "witness", "--u", "1,x"], "invalid index list value: '1,x'"),
    (["urysohn", "bf", APPROX, "--pairs", "0", "--eps", "1/2", "--probe", "1"], "invalid pairs value: '0'"),
    (["rado", "basis", "--code", "0:1", "--scan", "a..b"], "invalid span value: 'a..b'"),
    (["hilbert", "--u", "1,x", "--v", "0,1", "--z", "1,0"], "invalid vector value: '1,x'"),
    (["rado", "basis", "--code", "1:x"], "invalid basis code value: '1:x'"),
    (["lp", "--p", "foo"], "invalid rational value: 'foo'"),
    (["lp", "--p", "3", "--pairings", "x"], "invalid int value: 'x'"),
    # zero was once read as no --random, and refused as a missing mode
    (["hilbert", "--random", "0"], "argument --random: must be >= 1, got 0"),
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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", BOUNDARY, ids=" ".join)
def test_usage_errors_do_not_name_a_private_parser(argv, approx_file, capsys):
    run([approx_file if a == APPROX else a for a in argv])
    err = capsys.readouterr().err
    assert "invalid _" not in err and "parse_rational" not in err


@pytest.mark.parametrize("argv,message", USAGE_NAMES, ids=[" ".join(argv) for argv, _ in USAGE_NAMES])
def test_usage_error_names_the_expected_form(argv, message, approx_file, capsys):
    assert run([approx_file if a == APPROX else a for a in argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", CONFLICTS, ids=[" ".join(argv) for argv, _ in CONFLICTS])
def test_conflicting_modes_name_the_conflict(argv, message, capsys):
    assert run(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bf", "prop53"])
@pytest.mark.parametrize("state,message", BF_REFUSED, ids=[" ".join(state) for state, _ in BF_REFUSED])
def test_refused_back_and_forth_state_exits_2(command, state, message, approx_file, capsys):
    assert run(["urysohn", command, approx_file, *state, "--probe", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_in_range_arguments_still_run(approx_file, capsys):
    assert run(["urysohn", "check", approx_file, "--k", "1", "--round", "0"]) == 0
    assert run(["urysohn", "check", approx_file, "--k", "2", "--round", "1", "--denom", "2"]) == 1
    assert run(["urysohn", "build", "--rounds", "0", "--subset-bound", "1"]) == 0
    assert run(["hilbert", "--random", "1"]) == 0
    assert run(["rado", "metric", "--scan", "1"]) == 0
    capsys.readouterr()
    assert run(["rado", "metric", "0", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == {"distance": 0}


def test_build_stdout_is_pinned(capsys):
    assert main(["urysohn", "build", "--denom", "2", "--rounds", "2"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BUILD_SHA


# `rado witness` stdout and refusals, byte for byte, as before the batch check
RADO_WITNESS_OUT = [
    (["--u", "100,3", "--v", "70"],
     '{"check":"rado-witness","counts":{},"params":{"u":[100,3],"v":[70]},'
     '"result":{"witness":3802951800684688204490109616136},"verdict":"pass","witness":null}\n'),
    (["--u", "1,3", "--v", "0,2"],
     '{"check":"rado-witness","counts":{},"params":{"u":[1,3],"v":[0,2]},'
     '"result":{"witness":26},"verdict":"pass","witness":null}\n'),
]
RADO_WITNESS_REFUSED = [
    (["--u", "1", "--v", "1"], "U and V overlap: [1]"),
    (["--u", "-1", "--v", "2"], "vertices are non-negative integers"),
]


@pytest.mark.parametrize("argv,out", RADO_WITNESS_OUT, ids=[" ".join(argv) for argv, _ in RADO_WITNESS_OUT])
def test_rado_witness_stdout_is_pinned(argv, out, capsys):
    assert main(["rado", "witness", *argv]) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv,message", RADO_WITNESS_REFUSED, ids=[" ".join(argv) for argv, _ in RADO_WITNESS_REFUSED])
def test_rado_witness_refusal_keeps_its_message(argv, message, capsys):
    assert run(["rado", "witness", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"[mslab] error: {message}\n"


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


# A round-1 approximant whose seed points a, b are at distance 0: the file
# is a symmetric matrix with a zero diagonal that no log record reads, so
# only the metric check refuses it. Each row once reported a verdict on it.
READS_AN_APPROXIMANT = [
    ["urysohn", "check", APPROX, "--k", "1"],
    ["urysohn", "prop53", APPROX, "--pairs", "2:2", "--eps", "1", "--probe", "3"],
    ["urysohn", "bf", APPROX, "--pairs", "2:2", "--eps", "1", "--probe", "3"],
]


@pytest.fixture(scope="module")
def non_metric_approx(tmp_path_factory, approx_file):
    data = json.loads(Path(approx_file).read_text())
    data["d"][0][1] = data["d"][1][0] = "0"
    path = tmp_path_factory.mktemp("non-metric-approx") / "approx.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv", READS_AN_APPROXIMANT, ids=" ".join)
def test_non_metric_approximant_file_exits_2(argv, non_metric_approx, capsys):
    assert run([non_metric_approx if a == APPROX else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "does not hold a metric space: nonpositive-off-diagonal at (0, 1)" in captured.err


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


# `weak proximity` stdout of the two rows above, byte for byte, as before
# its pass and fail reports were built as one
PROXIMITY = '{"caveat":"one-sided evidence: a pass at this (F, eps) certifies only non-separation at this \
scale; proximity proper quantifies over all finite landmark sets and all eps > 0","check":"proximity",\
"counts":{"pairs_checked":1},"params":{"eps":"1/4","landmarks":[0]},'
PROXIMITY_OUT = [
    ("1", "2", PROXIMITY + '"verdict":"pass","witness":{"a":1,"b":2}}\n'),
    ("0", "1", PROXIMITY + '"verdict":"fail","witness":{"note":"no pair within eps in all landmark coordinates"}}\n'),
]


@pytest.mark.parametrize("a,b,out", PROXIMITY_OUT, ids=["pass", "fail"])
def test_proximity_stdout_is_pinned(a, b, out, files, capsys):
    run_with(files, ["weak", "proximity", POINTS, "--a", a, "--b", b, "--landmarks", "0", "--eps", "1/4"])
    assert capsys.readouterr().out == out


def subcommands(parser, prefix=()):
    """The leaf subcommand paths of an argparse parser, each with its parser."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [(prefix, parser)]
    return [leaf for name, sub in actions[0].choices.items() for leaf in subcommands(sub, prefix + (name,))]


def test_every_subcommand_has_a_row():
    for leaf, _ in subcommands(build_parser()):
        assert leaf == ("suite",) or any(tuple(argv[: len(leaf)]) == leaf for argv, _ in EXIT_CODES), leaf


def test_every_subcommand_runs_one_handler():
    for leaf, parser in subcommands(build_parser()):
        assert callable(parser.get_default("run")), leaf


# the argparse types; a handler that calls one of them on `args.<name>`
# parses an argument a second time, outside the usage-error boundary
PARSERS = {"parse_rational", "_rational", "_indices", "_pairs", "_span", "_vector", "_code", "BasisCode.parse"}


def test_no_handler_parses_an_argument():
    tree = ast.parse(Path(mslab.cli.__file__).read_text(encoding="utf-8"))
    found = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and any(f".{ast.unparse(node.func)}".endswith(f".{name}") for name in PARSERS)
        and any(
            isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) and arg.value.id == "args"
            for arg in (*node.args, *(kw.value for kw in node.keywords))
        )
    ]
    assert not found, found


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
