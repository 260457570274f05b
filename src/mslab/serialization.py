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
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from math import lcm
from pathlib import Path
from typing import Any

import numpy as np

from .banach import RadialProfile, StepFn2D
from .errors import MslabError, PreconditionError
from .metric import KatetovFn, MetricSpace
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
    text = _grid_text(set(chain.from_iterable(rows)), denom)
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
    """Parse a space straight onto its least grid: each distinct value is
    parsed for the common denominator, then each entry is one lookup."""
    try:
        rows = data["d"]
        denom = lcm(*(parse_rational(v).denominator for v in {data["diam"], *chain.from_iterable(rows)}))
        grid = _grid_parser(denom)
        return MetricSpace.from_grid(
            data["points"], [list(map(grid.__getitem__, row)) for row in rows], denom, grid[data["diam"]]
        )
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
    from the scaled matrix with one string per distinct grid value."""
    text = _grid_text(set(np.unique(a.matrix).tolist()).union(*(rec.values for rec in a.log)), a.denom)
    return {
        "points": list(a.labels),
        "diam": format_rational(a.diam_bound),
        "d": [list(map(text, row)) for row in a.matrix.tolist()],
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


def approximant_from_dict(data: dict) -> Approximant:
    """Parse an approximant straight onto its 1/denom grid and check that
    the file is one: a square symmetric matrix with zero diagonal and
    entries on the grid in [0, diam], non-decreasing `round_sizes` ending
    at the point count, one more entry in `round_sizes` than `rounds`, and
    log records of rounds 1..`rounds` that index existing points and agree
    with the matrix."""
    try:
        denom = int(data["denom"])
        if denom < 1:
            raise FormatError(f"approximant denominator must be >= 1, got {denom}")
        grid = _grid_parser(denom)
        labels = [str(s) for s in data["points"]]
        rows = [list(map(grid.__getitem__, row)) for row in data["d"]]
        n = len(labels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise FormatError(f"approximant matrix is not {n} x {n}")
        a = Approximant.from_grid(labels, rows, denom, grid[data["diam"]], int(data["subset_bound"]))
        a.rounds = int(data.get("rounds", 0))
        a.round_sizes = [int(v) for v in data.get("round_sizes", [n])]
        a.log = [
            RealizationRecord(
                round=int(rec["round"]),
                subset=tuple(int(i) for i in rec["subset"]),
                values=tuple(map(grid.__getitem__, rec["values"])),
                point=int(rec["point"]),
            )
            for rec in data.get("log", [])
        ]
    except (KeyError, ValueError, TypeError, PreconditionError) as exc:
        raise FormatError(f"bad approximant payload: {exc}") from exc
    _check_approximant(a)
    return a


def _check_approximant(a: Approximant):
    m = a.matrix
    n = a.n_points
    if (asym := np.argwhere(m != m.T)).size:
        raise FormatError(f"approximant matrix is not symmetric at {tuple(asym[0].tolist())}")
    if (diag := np.flatnonzero(m.diagonal())).size:
        raise FormatError(f"approximant matrix has a nonzero diagonal entry at {diag[0]}")
    sizes = a.round_sizes
    if not sizes or sizes[-1] != n or any(x > y for x, y in zip(sizes, sizes[1:])):
        raise FormatError(f"round_sizes {sizes} must be non-decreasing and end at {n}")
    if a.rounds != len(sizes) - 1:
        raise FormatError(f"rounds is {a.rounds}, but round_sizes {sizes} records {len(sizes) - 1}")
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
