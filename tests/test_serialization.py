"""Loading files: the per-payload parse memo, the approximant file checks
and save → load → save round trips."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslab import Approximant, KatetovFn, MetricSpace, fraisse_step
from mslab.cli import main
from mslab.randgen import random_katetov_values, random_metric_space
from mslab.report import WitnessReport
from mslab.serialization import (
    FormatError,
    _dump_json,
    approximant_from_dict,
    approximant_to_dict,
    katetov_to_dict,
    load_approximant,
    load_katetov,
    load_space,
    space_from_dict,
    space_to_dict,
)

F = Fraction


def write(tmp_path, payload, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def three_points():
    h = F(1, 2)
    return MetricSpace(("a", "b", "c"), ((0, h, 1), (h, 0, h), (1, h, 0)), 1)


# -- the parse memo -------------------------------------------------------------


def test_load_space_round_trips_and_shares_values(tmp_path):
    space = three_points()
    loaded = load_space(write(tmp_path, space_to_dict(space)))
    assert loaded == space
    assert loaded.d[0][1] is loaded.d[1][0] is loaded.d[1][2]


@pytest.mark.parametrize("late", [1.0, True, [1], [[1]], None])
def test_non_string_entry_after_equal_string_exits_2(tmp_path, late, capsys):
    # "1" and the int 1 are parsed first; a later 1.0 or true hashes like 1
    # and must still be rejected, and an unhashable entry must not crash
    payload = {"points": ["a", "b"], "diam": "1", "d": [["0", "1"], [1, "0"]]}
    assert main(["validate", write(tmp_path, payload)]) == 0
    payload["d"][1][0] = late
    assert main(["validate", write(tmp_path, payload)]) == 2
    assert "bad metric space payload" in capsys.readouterr().err


def test_json_true_is_not_a_rational(tmp_path):
    payload = {"points": ["a", "b"], "diam": True, "d": [["0", "1"], ["1", "0"]]}
    assert main(["validate", write(tmp_path, payload)]) == 2


# The loaders once passed each label through str(): null, numbers and bools
# loaded as "None", "7" and "True", a string as its characters, and a
# repeated label loaded too, so `validate` passed on such files.
BAD_POINTS = {"null": ["a", None], "number": ["a", 7], "bool": ["a", True], "repeated": ["a", "a"], "string": "ab"}


@pytest.mark.parametrize("points", BAD_POINTS.values(), ids=BAD_POINTS)
def test_space_labels_are_distinct_strings(points, tmp_path, capsys):
    payload = {"points": points, "diam": "1", "d": [["0", "1"], ["1", "0"]]}
    with pytest.raises(FormatError, match="point"):
        space_from_dict(payload)
    assert main(["validate", write(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "point" in captured.err


# One point has no pair for the bound check to catch a negative diam on.
NEGATIVE_DIAM = {"points": ["a"], "diam": "-1", "d": [["0"]]}
NEGATIVE_DIAM_APPROX = {**NEGATIVE_DIAM, "denom": 1, "subset_bound": 1, "rounds": 0, "round_sizes": [1], "log": []}


@pytest.mark.parametrize(
    "load, payload, argv",
    [
        (space_from_dict, NEGATIVE_DIAM, ["validate", "FILE"]),
        (approximant_from_dict, NEGATIVE_DIAM_APPROX, ["urysohn", "check", "FILE", "--k", "1"]),
    ],
    ids=["space", "approximant"],
)
def test_negative_diam_is_a_format_error(load, payload, argv, tmp_path, capsys):
    with pytest.raises(FormatError, match="-1"):
        load(payload)
    path = write(tmp_path, payload)
    assert main([path if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-1" in captured.err


# -- approximant files -------------------------------------------------------


@pytest.fixture
def approx_dict():
    seed = MetricSpace(("a", "b"), ((0, F(1, 2)), (F(1, 2), 0)), 1)
    data = approximant_to_dict(fraisse_step(fraisse_step(Approximant.from_space(seed, 2, 2))))
    assert len(data["log"][-1]["subset"]) == 2  # the log corruptions edit a pair record
    return data


def test_approximant_round_trip(approx_dict):
    a = approximant_from_dict(approx_dict)
    assert a.n_points == 18 and a.round_sizes == [2, 6, 18]
    assert approximant_to_dict(a) == approx_dict
    assert a.matrix.tolist() == [[int(F(v) * 2) for v in row] for row in approx_dict["d"]]


def saved_bytes(payload, path) -> bytes:
    _dump_json(payload, path)
    return path.read_bytes()


@pytest.mark.parametrize("denom, rounds", [(2, 2), (4, 1), (2**66, 0)])
def test_approximant_save_load_save_is_byte_identical(tmp_path, denom, rounds):
    a = Approximant.from_space(three_points(), denom, 2)
    for _ in range(rounds):
        a = fraisse_step(a)
    first = saved_bytes(approximant_to_dict(a), tmp_path / "first.json")
    again = saved_bytes(approximant_to_dict(load_approximant(tmp_path / "first.json")), tmp_path / "again.json")
    assert first == again
    # the grid writer agrees with formatting the exact Fraction view
    assert json.loads(first)["d"] == [[str(v) for v in row] for row in a.as_metric_space().d]


def test_space_save_load_save_is_byte_identical(tmp_path):
    rng = random.Random(3)
    for i in range(20):
        space = random_metric_space(rng, max_points=6, max_denom=24)
        first = saved_bytes(space_to_dict(space), tmp_path / f"first{i}.json")
        again = saved_bytes(space_to_dict(load_space(tmp_path / f"first{i}.json")), tmp_path / f"again{i}.json")
        assert first == again


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), katetov=st.booleans(), data=st.data())
def test_katetov_save_load_save_is_byte_identical(seed, katetov, data, tmp_path_factory):
    # values from the Katetov sampler, or any grid values (which need not be
    # Katetov: the file holds them and `katetov check` judges them)
    rng = random.Random(seed)
    space = random_metric_space(rng, min_points=1, max_points=6, max_denom=24)
    q = space.grid.denom * rng.choice([1, 2, 3])
    if katetov:
        values = random_katetov_values(rng, space, q)
    else:
        grid = st.integers(-q, 3 * q).map(lambda v: F(v, q))
        values = tuple(data.draw(st.lists(grid, min_size=space.n_points, max_size=space.n_points)))
    fn = KatetovFn(space, values)
    tmp = tmp_path_factory.mktemp("katetov")
    first = saved_bytes(katetov_to_dict(fn), tmp / "first.json")
    loaded = load_katetov(tmp / "first.json")
    assert loaded == fn
    assert saved_bytes(katetov_to_dict(loaded), tmp / "again.json") == first


def set_entry(data, i, j, value):
    data["d"][i][j] = data["d"][j][i] = value


def _non_square(data):
    data["d"][3] = data["d"][3][:-1]


def _extra_row(data):
    data["d"].append(list(data["d"][0]))


def _asymmetric(data):
    data["d"][2][5] = "1/2" if data["d"][5][2] != "1/2" else "1"


def _nonzero_diagonal(data):
    data["d"][4][4] = "1/2"


def _off_grid(data):
    set_entry(data, 1, 7, "1/3")


def _above_diam(data):
    set_entry(data, 1, 7, "3/2")


def _negative(data):
    set_entry(data, 1, 7, "-1/2")


def _diam_off_grid(data):
    data["diam"] = "3/4"


def _sizes_decreasing(data):
    data["round_sizes"] = [2, 7, 6, 18]


def _sizes_wrong_end(data):
    data["round_sizes"] = [2, 6, 17]


def _sizes_empty(data):
    data["round_sizes"] = []


def _log_point_out_of_range(data):
    data["log"][-1]["point"] = 18


def _log_point_negative(data):
    data["log"][0]["point"] = -1


def _log_subset_out_of_range(data):
    data["log"][-1]["subset"][-1] = 99


def _log_values_differ(data):
    rec = data["log"][-1]
    rec["values"][0] = "0" if rec["values"][0] != "0" else "1"


def _log_values_too_short(data):
    data["log"][-1]["values"] = data["log"][-1]["values"][:-1]


def _log_value_off_grid(data):
    data["log"][0]["values"][0] = "1/3"


def _denominator_zero(data):
    data["denom"] = 0


def _rounds_disagree_with_sizes(data):
    data["rounds"] = 5


def _log_round_out_of_range(data):
    data["log"][-1]["round"] = 3


def _entry_zero_denominator(data):
    set_entry(data, 1, 7, "1/0")


def _diam_zero_denominator(data):
    data["diam"] = "1/0"


# Each integer field below once went through int(), so the file loaded with
# the value rounded or reinterpreted and `urysohn check` passed on it.


def _denominator_string(data):
    data["denom"] = "2"


def _subset_bound_float(data):
    data["subset_bound"] = 2.9


def _rounds_true(data):
    # a valid round-1 file but for `rounds`, which reads as 1 through int()
    n = data["round_sizes"][1]
    data["points"] = data["points"][:n]
    data["d"] = [row[:n] for row in data["d"][:n]]
    data["round_sizes"] = data["round_sizes"][:2]
    data["log"] = [rec for rec in data["log"] if rec["round"] == 1]
    data["rounds"] = True


def _round_size_float(data):
    data["round_sizes"][-1] = float(data["round_sizes"][-1])


def _log_round_float(data):
    data["log"][-1]["round"] = float(data["log"][-1]["round"])


def _log_point_float(data):
    data["log"][-1]["point"] = float(data["log"][-1]["point"])


def _log_subset_true(data):
    rec = next(rec for rec in data["log"] if 1 in rec["subset"])
    rec["subset"][rec["subset"].index(1)] = True


def _label_null(data):
    data["points"][3] = None


def _label_number(data):
    data["points"][3] = 7


def _label_bool(data):
    data["points"][3] = True


def _label_repeated(data):
    data["points"][5] = data["points"][2]


CORRUPTIONS = [
    _non_square, _extra_row, _asymmetric, _nonzero_diagonal, _off_grid, _above_diam, _negative,
    _diam_off_grid, _sizes_decreasing, _sizes_wrong_end, _sizes_empty, _log_point_out_of_range,
    _log_point_negative, _log_subset_out_of_range, _log_values_differ, _log_values_too_short,
    _log_value_off_grid, _denominator_zero, _rounds_disagree_with_sizes, _log_round_out_of_range,
    _entry_zero_denominator, _diam_zero_denominator, _denominator_string, _subset_bound_float,
    _rounds_true, _round_size_float, _log_round_float, _log_point_float, _log_subset_true,
    _label_null, _label_number, _label_bool, _label_repeated,
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_corrupted_approximant_is_a_format_error(approx_dict, corrupt, tmp_path):
    assert main(["urysohn", "check", write(tmp_path, approx_dict), "--k", "1", "--round", "1"]) == 0
    corrupt(approx_dict)
    with pytest.raises(FormatError):
        approximant_from_dict(approx_dict)
    assert main(["urysohn", "check", write(tmp_path, approx_dict), "--k", "1", "--round", "1"]) == 2


def test_log_must_agree_at_every_subset_point(approx_dict):
    # the values are checked against the matrix at (subset[i], point) for
    # every i, not just the first subset point
    rec = approx_dict["log"][-1]
    rec["values"][1] = "0" if rec["values"][1] != "0" else "1"
    with pytest.raises(FormatError, match="differ"):
        approximant_from_dict(approx_dict)


def test_metric_faults_are_not_format_faults(tmp_path):
    # well formed, but d(a, c) = 3/2 > d(a, b) + d(b, c): the file loads and
    # validation reports the triangle, a mathematical fail (exit 1)
    h = F(1, 2)
    broken = MetricSpace(("a", "b", "c"), ((0, h, 3 * h), (h, 0, h), (3 * h, h, 0)), 2)
    path = write(tmp_path, approximant_to_dict(Approximant.from_space(broken, 2, 1)))
    assert main(["validate", path]) == 1
    a = approximant_from_dict(json.loads(open(path).read()))
    assert a.dist(0, 2) == 3 * h


# A "1/0" in any file is malformed input (exit 2); each loader once let the
# ZeroDivisionError escape as a traceback (exit 1, the code of a fail).
PATH = "PATH"  # replaced by the path of the file below
ZERO_DENOMINATOR = {
    "space": (["validate", PATH], {"points": ["a", "b"], "diam": "1", "d": [["0", "1/0"], ["1/0", "0"]]}),
    "katetov": (
        ["katetov", "check", PATH],
        {"space": {"points": ["a"], "diam": "1", "d": [["0"]]}, "values": ["1/0"]},
    ),
    "profile": (["profile", "check", PATH], {"breakpoints": ["0"], "values": ["1"], "tail_slope": "1/0"}),
    "stepfn": (
        ["disjoint", "--p", "2", "--x", PATH, "--part", PATH],
        {"x_breaks": ["0", "2"], "y_breaks": ["0", "1"], "values": [["1/0"]]},
    ),
}


@pytest.mark.parametrize("kind", ZERO_DENOMINATOR)
def test_zero_denominator_in_a_file_exits_2(kind, tmp_path, capsys):
    argv, payload = ZERO_DENOMINATOR[kind]
    path = write(tmp_path, payload)
    assert main([path if a == PATH else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero denominator in '1/0'" in captured.err


def test_katetov_extend_out_writes_the_space_it_reports(tmp_path, capsys):
    space = write(tmp_path, space_to_dict(three_points()), "space.json")
    fn = write(tmp_path, {"space": space, "values": ["1/2", "1/2", "3/4"]}, "fn.json")
    out = tmp_path / "extended.json"
    assert main(["katetov", "extend", fn, "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert space_to_dict(load_space(out)) == report["result"]["space"]


# A value with no JSON form is refused; it was once written as its str(),
# so a numpy scalar read "1" and a range "range(0, 3)".
@pytest.mark.parametrize("value", [np.int64(1), range(3), object()], ids=["int64", "range", "object"])
def test_report_refuses_a_value_with_no_json_form(value):
    with pytest.raises(TypeError, match="no JSON form"):
        WitnessReport(check="c", counts={"n": value}).to_dict()
