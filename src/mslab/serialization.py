"""JSON file formats for the core objects.

Rationals travel as lowest-terms strings ("3/4", "2", "0"); parsing the
serialized form reproduces the object exactly, so round-trips are the
identity on canonical files.

MetricSpace:   {"points": [...], "diam": "p/q", "d": [["p/q", ...], ...]}
KatetovFn:     {"space": <inline object or file path>, "values": [...]}
Approximant:   MetricSpace keys plus {"denom", "subset_bound", "rounds",
                "round_sizes", "log"}
StepFn2D:      {"x_breaks": [...], "y_breaks": [...], "values": [[...]]}
RadialProfile: {"breakpoints": [...], "values": [...], "tail_slope": "p/q"}

Point labels are distinct JSON strings and "diam" is at least 0; a file
that breaks either is refused with FormatError, as is any other malformed
payload.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Any

import numpy as np

from .banach import RadialProfile, StepFn2D
from .errors import MslabError, NonSquareError, PreconditionError
from .metric import KatetovFn, MetricSpace, read_rows
from .rationals import ParseMemo, format_rational, parse_rational
from .urysohn import Approximant, RealizationRecord


class FormatError(MslabError):
    pass


def _grid_text(values, denom: int):
    """text(v): the lowest-terms string of v/denom, formatted once per
    distinct scaled value in `values`."""
    return {v: format_rational(Fraction(v, denom)) for v in values}.__getitem__


def space_to_dict(space: MetricSpace) -> dict:
    """The space formatted straight from its grid."""
    denom, rows, _ = space.grid
    text = _grid_text(set().union(*rows), denom)
    return {
        "points": list(space.labels),
        "diam": format_rational(space.diam_bound),
        "d": [list(map(text, row)) for row in rows],
    }


def _grid_parser(denom: int) -> ParseMemo:
    """memo[text]: the rational `text` scaled to the 1/denom grid, which
    must hold it."""

    def on_grid(q: Fraction) -> int:
        if denom % q.denominator:
            raise FormatError(f"{q} is off the 1/{denom} grid")
        return q.numerator * (denom // q.denominator)

    return ParseMemo(on_grid)


def space_from_dict(data: dict) -> MetricSpace:
    """Parse a space straight onto its least grid: each distinct value
    (`set().union`, one C-level pass) is parsed for the common denominator,
    then each row is read by one lookup call (`read_rows`)."""
    try:
        rows = data["d"]
        denom = lcm(*(parse_rational(v).denominator for v in set().union([data["diam"]], *rows)))
        grid = _grid_parser(denom)
        if (bound := grid[data["diam"]]) < 0:
            raise FormatError(f"diam must be >= 0, got {data['diam']!r}")
        return MetricSpace.from_grid(_json_labels(data["points"]), read_rows(rows, grid), denom, bound)
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad metric space payload: {exc}") from exc


def katetov_to_dict(fn: KatetovFn) -> dict:
    return {"space": space_to_dict(fn.space), "values": list(map(format_rational, fn.values))}


def katetov_from_dict(data: dict, base_dir: Path | None = None) -> KatetovFn:
    try:
        spec = data["space"]
        if isinstance(spec, str):
            path = Path(spec)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            space = load_space(path)
        else:
            space = space_from_dict(spec)
        return KatetovFn(space, tuple(map(parse_rational, data["values"])))
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad katetov payload: {exc}") from exc


def approximant_to_dict(a: Approximant) -> dict:
    """The MetricSpace keys plus the approximant's own, formatted straight
    from the scaled matrix, read once, with one string per distinct grid
    value."""
    m = a.matrix
    text = _grid_text(set(np.unique(m).tolist()).union(*(rec.values for rec in a.log)), a.denom)
    return {
        "points": list(a.labels),
        "diam": format_rational(a.diam_bound),
        "d": [list(map(text, row)) for row in m.tolist()],
        "denom": a.denom,
        "subset_bound": a.subset_bound,
        "rounds": a.rounds,
        "round_sizes": list(a.round_sizes),
        "log": [
            {
                "round": rec.round,
                "subset": list(rec.subset),
                "values": list(map(text, rec.values)),
                "point": rec.point,
            }
            for rec in a.log
        ],
    }


def _json_int(value: Any, what: str) -> int:
    """value if it is a JSON integer; a float, string or bool is refused,
    never rounded or read as a number."""
    if type(value) is not int:
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _json_labels(value: Any) -> list[str]:
    """value if it is a list of distinct JSON strings; anything else is
    refused, never turned into labels by str()."""
    if type(value) is not list:
        raise FormatError(f"points must be a list of strings, got {type(value).__name__}")
    seen = set()
    for label in value:
        if type(label) is not str:
            raise FormatError(f"a point label must be a string, got {label!r}")
        if label in seen:
            raise FormatError(f"point label {label!r} appears more than once")
        seen.add(label)
    return value


def approximant_from_dict(data: dict) -> Approximant:
    """Parse an approximant straight onto its 1/denom grid and check that
    the file is one: distinct string labels, a square symmetric matrix
    with zero diagonal and entries on the grid in [0, diam], non-decreasing
    `round_sizes` ending at the point count, one more entry in
    `round_sizes` than `rounds`, and log records of rounds 1..`rounds`
    that index existing points and agree with the matrix."""
    try:
        denom = _json_int(data["denom"], "denom")
        if denom < 1:
            raise FormatError(f"approximant denominator must be >= 1, got {denom}")
        grid = _grid_parser(denom)
        labels = _json_labels(data["points"])
        rows = read_rows(data["d"], grid)
        subset_bound = _json_int(data["subset_bound"], "subset_bound")
        a = Approximant.from_grid(labels, rows, denom, grid[data["diam"]], subset_bound)
        rounds = _json_int(data.get("rounds", 0), "rounds")
        a.round_sizes = [_json_int(v, "a round size") for v in data.get("round_sizes", [len(labels)])]
        a.log = [
            RealizationRecord(
                round=_json_int(rec["round"], "a log record's round"),
                subset=tuple(_json_int(i, "a log record's subset index") for i in rec["subset"]),
                values=tuple(map(grid.__getitem__, rec["values"])),
                point=_json_int(rec["point"], "a log record's point"),
            )
            for rec in data.get("log", [])
        ]
    except (KeyError, ValueError, TypeError, PreconditionError, NonSquareError) as exc:
        raise FormatError(f"bad approximant payload: {exc}") from exc
    _check_approximant(a, rounds)
    return a


def _check_approximant(a: Approximant, rounds: int):
    m = a.matrix
    n = a.n_points
    if (asym := np.argwhere(m != m.T)).size:
        raise FormatError(f"approximant matrix is not symmetric at {tuple(asym[0].tolist())}")
    if (diag := np.flatnonzero(m.diagonal())).size:
        raise FormatError(f"approximant matrix has a nonzero diagonal entry at {diag[0]}")
    sizes = a.round_sizes
    if not sizes or sizes[-1] != n or any(x > y for x, y in zip(sizes, sizes[1:])):
        raise FormatError(f"round_sizes {sizes} must be non-decreasing and end at {n}")
    if rounds != a.rounds:
        raise FormatError(f"rounds is {rounds}, but round_sizes {sizes} records {a.rounds}")
    if not a.log:
        return
    if not all(1 <= rec.round <= a.rounds for rec in a.log):
        raise FormatError(f"a log record's round is outside 1..{a.rounds}")
    lengths = [len(rec.subset) for rec in a.log]
    if lengths != [len(rec.values) for rec in a.log]:
        raise FormatError("a log record has a different number of values than subset points")
    points = [rec.point for rec in a.log]
    subsets = [s for rec in a.log for s in rec.subset]
    for name, idx in (("point", points), ("subset", subsets)):
        if idx and not (0 <= min(idx) and max(idx) < n):
            raise FormatError(f"a log record has a {name} index outside 0..{n - 1}")
    found = m[subsets, np.repeat(points, lengths)].tolist()
    if found != [v for rec in a.log for v in rec.values]:
        raise FormatError("a log record's values differ from the matrix at (subset, point)")


def stepfn2d_from_dict(data: dict) -> StepFn2D:
    try:
        return StepFn2D(
            tuple(parse_rational(v) for v in data["x_breaks"]),
            tuple(parse_rational(v) for v in data["y_breaks"]),
            tuple(tuple(parse_rational(v) for v in row) for row in data["values"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad 2d step function payload: {exc}") from exc


def profile_from_dict(data: dict) -> RadialProfile:
    try:
        return RadialProfile(
            tuple(parse_rational(v) for v in data["breakpoints"]),
            tuple(parse_rational(v) for v in data["values"]),
            parse_rational(data["tail_slope"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad radial profile payload: {exc}") from exc


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _dump_json(payload: Any, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_space(path: str | Path) -> MetricSpace:
    return space_from_dict(_load_json(path))


def load_katetov(path: str | Path) -> KatetovFn:
    return katetov_from_dict(_load_json(path), base_dir=Path(path).parent)


def load_approximant(path: str | Path) -> Approximant:
    return approximant_from_dict(_load_json(path))


def load_stepfn2d(path: str | Path) -> StepFn2D:
    return stepfn2d_from_dict(_load_json(path))


def load_profile(path: str | Path) -> RadialProfile:
    return profile_from_dict(_load_json(path))
