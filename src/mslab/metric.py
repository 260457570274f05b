"""Exact-rational finite metric spaces and the Katetov function calculus.

A finite metric space is a tuple of labels, a square matrix of exact
rational distances and a declared diameter bound (the bound travels with
the data; it is not recomputed). A Katetov function over a space X is a
vector xi with

    |xi(x) - xi(y)| <= d(x,y) <= xi(x) + xi(y)    for all x, y,

bounded by the diameter bound: exactly the distance profiles of one-point
metric extensions of X.

A `MetricSpace` stores its labels and its least integer grid
(`MetricSpace.grid`) and nothing else: the least common denominator of
its distances and bound, the distances scaled by it as int rows, and the
scaled bound. Equality and hashing compare these fields. Builders that
hold ints hand them over (`MetricSpace.from_grid`, which reduces them to
the least grid); the Fraction constructor `MetricSpace(labels, d,
diam_bound)` converts once, at that edge. The exact `.d` matrix and
`diam_bound` are read-only views made on first read, with one Fraction per
distinct value. The `.d` view is a `FractionMatrix`: a tuple of Fraction
rows that keeps the grid it was made from, so a view handed back to the
constructor or to `validate_metric` is read as that grid, with only the
bound lifted onto it, and no Fraction of it is read. The metric and Katetov
calculus reads the grid. `lift(grid, values)` is the one refinement of a
grid: the grid refined just enough to hold the rational values, and the
values scaled onto it. `scale_space`, the view branch of `_fraction_grid`
and every construction whose prescribed value (a profile value, delta,
lambda, eps or a cap) may fall off its grid call it.

Every explicit extension (`with_point` and the recipes in `urysohn`) is
built by two grid helpers. `katetov_completion` is Katetov's
one-point extension of a partial profile xi over anchors S,
g(w) = min(bound, min over s in S of xi(s) + d(s, w)); `append_points`
appends new points, given their profiles and their distances among
themselves, to a restriction of a scaled matrix.

`validate_metric` is the package's universal safety net: a brute-force
O(n^3) scan over ordered triples. The scan is the contract; everything
below implements that same scan on integers, cross-checked in the test
suite against the naive Fraction loop. One conversion, `_fraction_grid`,
puts a matrix and a bound on a grid, for `validate_metric` and the
constructor alike: a space's view is on its space's grid already, with only
the bound lifted onto it (`lift`); int rows with an int bound are on the
grid 1/1 as they are; any other rational matrix is rescaled to the grid
1/q, with q the lcm of its distinct denominators and the bound's, as
numerator * (q // denominator): exact, and free of Fraction arithmetic.
Scaling by a positive factor keeps every verdict and witness, so a space's
grid is scanned as it is, and so is an integer ndarray with an int bound,
such as an approximant's matrix: that is the one shortcut of
`validate_metric`. The scan itself, `_scan`, forks on size only: below `_NUMPY_MIN_POINTS` points
it loops over Python ints (`tolist` first), which never overflow; from
there on it runs numpy on `int_matrix`, the one exact conversion to numpy,
one C-level pass over the entries (uint8 through one byte buffer when every
entry lies in 0..255, else int64 when every entry fits, else `object`
Python ints; an integer ndarray as it is; a non-integer entry is refused,
never truncated). The symmetry, diagonal, sign and bound
checks run first, so the triangle check sees entries in 0..bound, sums of
two at most 2 * bound, and casts to the narrowest dtype that holds 2 * bound
(uint8 while 2 * bound < 256, as for the default approximants and the Rado
space; `object` from 2**64 on), where no sum can overflow. A pair (i, j)
breaks the triangle inequality exactly when d(i,j) exceeds min over k of
d(i,k) + d(k,j), the (i, j) entry of the min-plus square of d (Floyd 1962,
"Algorithm 97: Shortest path"); the square takes one vector step per k,
and only the first row with a break is scanned for its witness.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add, index, itemgetter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DenominatorMismatchError,
    DuplicatePointError,
    IndexClashError,
    KatetovViolationError,
    LambdaOutOfRangeError,
    LengthMismatchError,
    MetricFailureError,
    NonSquareError,
    PreconditionError,
    SpaceMismatchError,
)
from .rationals import RationalLike, as_fraction

# Matrices at least this large take the vectorized integer path.
_NUMPY_MIN_POINTS = 48


@dataclass(frozen=True)
class MetricVerdict:
    """Outcome of a metric validation scan.

    `reason` is one of: not-square, not-symmetric, nonzero-diagonal,
    nonpositive-off-diagonal, exceeds-diameter, triangle; `witness` holds
    the first violating index pair/triple in lexicographic order. A
    triangle witness (i, j, k) means d(i,j) > d(i,k) + d(k,j). `is_katetov`
    gives the reasons range (witness (i,): a value outside 0..diam_bound),
    lipschitz (|xi(i) - xi(j)| > d(i,j)) and sum (xi(i) + xi(j) < d(i,j)).
    """

    ok: bool
    reason: str | None = None
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _square(d: Sequence[Sequence] | np.ndarray) -> tuple[tuple, ...]:
    # an ndarray is read through tolist(), so its entries are Python scalars
    rows = tuple(map(tuple, d.tolist() if isinstance(d, np.ndarray) else d))
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NonSquareError(f"matrix is not square: {len(rows)} rows, row lengths {[len(r) for r in rows]}")
    return rows


def _fraction_grid(d: Sequence[Sequence[RationalLike]] | np.ndarray, diam_bound: RationalLike) -> Grid:
    """The one conversion of a matrix and a bound onto a grid: integers on
    their least common grid 1/q.

    A space's view holds that space's grid already: only the bound is lifted
    onto it (`lift`), and the result is reduced to its least grid when it
    differs; no Fraction is read. Int rows with an int bound are the grid
    1/1 as they are. Any other matrix is rescaled entry by entry, as
    numerator * (q // denominator) with q the lcm of every denominator:
    exact. An integer ndarray is read as Python ints (`_square`); a float
    one is refused like any float."""
    if isinstance(d, FractionMatrix):
        (q, rows, _), (bound,) = lift(d.grid, [diam_bound])
        if (q, bound) == (d.grid.denom, d.grid.bound):
            return d.grid
        return _least_grid(q, rows, bound)
    rows = _square(d)
    kinds = set(map(type, chain.from_iterable(rows)))
    if type(diam_bound) is int and kinds <= {int}:
        return Grid(1, rows, diam_bound)
    if kinds - {Fraction}:
        rows = tuple(tuple(map(as_fraction, row)) for row in rows)
    bound = as_fraction(diam_bound)
    q = lcm(bound.denominator, *{v.denominator for row in rows for v in row})
    scaled = tuple(tuple(v.numerator * (q // v.denominator) for v in row) for row in rows)
    return Grid(q, scaled, bound.numerator * (q // bound.denominator))


def int_matrix(rows: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """An integer matrix as numpy, exactly, in one C-level pass over its
    entries: uint8 through one writable byte buffer when every entry lies in
    0..255, else int64 when every entry fits, else `object` dtype holding
    Python ints. An integer ndarray (an approximant's matrix) comes back as
    it is. A non-integer entry or dtype (a float, a Fraction) raises
    TypeError; it is never truncated. Empty or ragged rows go to numpy as
    they are, which raises for ragged ones."""
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind not in "biu" and not (
            rows.dtype == object and all(issubclass(kind, (int, np.integer)) for kind in set(map(type, rows.flat)))
        ):
            raise TypeError(f"an integer matrix cannot have dtype {rows.dtype}")
        return rows
    widths = set(map(len, rows))
    if len(widths) != 1:
        return np.array(rows, dtype=np.int64)
    shape = (len(rows), widths.pop())
    try:
        return np.frombuffer(bytearray(chain.from_iterable(rows)), np.uint8).reshape(shape)
    except ValueError:  # an entry outside 0..255
        pass
    try:
        return np.frombuffer(array("q", chain.from_iterable(rows)), np.int64).reshape(shape)
    except OverflowError:
        return np.array(list(map(index, chain.from_iterable(rows))), dtype=object).reshape(shape)


def _precondition_scan_int(e: Sequence[Sequence[int]], bound: int) -> MetricVerdict | None:
    n = len(e)
    for i in range(n):
        for j in range(i + 1, n):
            if e[i][j] != e[j][i]:
                return MetricVerdict(False, "not-symmetric", (i, j))
    for i in range(n):
        if e[i][i] != 0:
            return MetricVerdict(False, "nonzero-diagonal", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if e[i][j] <= 0:
                return MetricVerdict(False, "nonpositive-off-diagonal", (i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if e[i][j] > bound:
                return MetricVerdict(False, "exceeds-diameter", (i, j))
    return None


def _first_pair(reason: str, bad: np.ndarray) -> MetricVerdict:
    # bad is masked to the strict upper triangle, where its first True in
    # row-major order (np.argmax) is the first pair (i, j) in lex order
    i, j = np.unravel_index(np.argmax(bad), bad.shape)
    return MetricVerdict(False, reason, (int(i), int(j)))


def _precondition_scan_numpy(d: np.ndarray, bound: int) -> MetricVerdict | None:
    upper = np.triu(np.ones(d.shape, dtype=bool), 1)
    if (bad := (d != d.T) & upper).any():
        return _first_pair("not-symmetric", bad)
    if (diag := np.flatnonzero(np.diagonal(d))).size:
        return MetricVerdict(False, "nonzero-diagonal", (int(diag[0]),))
    if (bad := (d <= 0) & upper).any():
        return _first_pair("nonpositive-off-diagonal", bad)
    if (bad := (d > bound) & upper).any():
        return _first_pair("exceeds-diameter", bad)
    return None


def _triangle_scan_int(e: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    # Runs after the symmetry, diagonal and sign checks. Then k = i and
    # k = j never violate, and (i, j, k) violates iff (j, i, k) does, so the
    # first violating triple has i < j, and (i, j) violates iff d[i,j]
    # exceeds the least d[i,k] + d[j,k]; only then is its first k sought.
    n = len(e)
    for i in range(n):
        ei = e[i]
        for j in range(i + 1, n):
            ej = e[j]
            dij = ei[j]
            if dij > min(map(add, ei, ej)):
                return (i, j, next(k for k in range(n) if dij > ei[k] + ej[k]))
    return None


def _triangle_scan_numpy(d: np.ndarray, bound: int) -> tuple[int, int, int] | None:
    # The preconditions hold, so entries lie in 0..bound and a sum of two fits
    # the dtype holding 2 * bound; least is the min-plus square (module notes).
    d = d.astype(np.min_scalar_type(2 * bound))
    least, sums = d.copy(), np.empty_like(d)
    for row in d:
        np.minimum(least, np.add(row[:, None], row, out=sums), out=least)
    if (bad := (d > least).any(axis=1)).any():
        i = int(np.argmax(bad))  # viol[j, k] = d[i,j] > d[i,k] + d[k,j]
        j, k = np.unravel_index(np.argmax(d[i][:, None] > d[i] + d), d.shape)
        return (i, int(j), int(k))
    return None


def validate_metric(
    d: Sequence[Sequence[RationalLike]] | np.ndarray, diam_bound: RationalLike
) -> MetricVerdict:
    """Brute-force check of all MetricSpace invariants.

    Checks, in order: symmetry, zero diagonal, strictly positive
    off-diagonal, entries <= diam_bound, triangle inequality over all
    ordered triples. The first violation in lexicographic index order is
    returned as the witness. An integer ndarray (or an `object` one of
    Python ints, such as an approximant's matrix) with an int bound is
    scanned as it is; any other matrix is scanned on the grid that
    `_fraction_grid` puts it on, a space's view `space.d` on the grid it
    was made from.
    """
    if type(diam_bound) is int and isinstance(d, np.ndarray) and (
        d.dtype.kind in "iu" or (d.dtype == object and set(map(type, d.flat)) <= {int})
    ):
        if d.shape != (len(d),) * 2:
            raise NonSquareError(f"matrix is not square: shape {d.shape}")
        return _scan(d, diam_bound)  # already on the grid 1/1
    _, rows, bound = _fraction_grid(d, diam_bound)
    return _scan(rows, bound)


def _scan(e: Sequence[Sequence[int]] | np.ndarray, bound: int) -> MetricVerdict:
    """The checks of `validate_metric` on a square matrix and a bound that
    are already integers on one grid: int rows or an approximant's numpy
    matrix, forked on size only (module notes)."""
    if len(e) < _NUMPY_MIN_POINTS:
        rows = e.tolist() if isinstance(e, np.ndarray) else e
        verdict = _precondition_scan_int(rows, bound)
        hit = _triangle_scan_int(rows) if verdict is None else None
    else:
        arr = int_matrix(e)
        verdict = _precondition_scan_numpy(arr, bound)
        hit = _triangle_scan_numpy(arr, bound) if verdict is None else None
    if verdict is not None:
        return verdict
    if hit is not None:
        return MetricVerdict(False, "triangle", hit)
    return MetricVerdict(True)


class Grid(NamedTuple):
    """A space's distances and bound as integers on the 1/denom grid:
    d[i][j] = rows[i][j] / denom and diam_bound = bound / denom."""

    denom: int
    rows: tuple[tuple[int, ...], ...]
    bound: int


def _least_grid(denom: int, rows: tuple[tuple[int, ...], ...], bound: int) -> Grid:
    """The grid reduced by the gcd of its denominator and every scaled value,
    taken over the distinct values (`set().union`, one C-level pass)."""
    common = gcd(denom, bound)
    if common > 1:
        common = gcd(common, *set().union(*rows))
    if common > 1:
        rows = tuple(tuple(v // common for v in row) for row in rows)
    return Grid(denom // common, rows, bound // common)


def read_rows(rows: Sequence[Sequence], table) -> tuple[tuple, ...]:
    """Each row with every entry looked up in `table`, as a tuple: one
    `itemgetter` call per row. A row shorter than 2 is read by `map`, since
    itemgetter returns a bare value for one key and refuses zero keys."""
    return tuple(itemgetter(*row)(table) if len(row) > 1 else tuple(map(table.__getitem__, row)) for row in rows)


def grid_fractions(rows: Sequence[Sequence[int]], denom: int) -> tuple[tuple[Fraction, ...], ...]:
    """The scaled rows as exact Fractions, one made per distinct value
    (`set().union`), read row by row (`read_rows`)."""
    return read_rows(rows, {v: Fraction(v, denom) for v in set().union(*rows)})


class FractionMatrix(tuple):
    """A space's exact distances, `MetricSpace.d`: a tuple of Fraction rows
    made from the space's grid (one Fraction per distinct value), which it
    keeps as `grid`, so that a check of the view runs on that grid."""

    grid: Grid

    def __new__(cls, grid: Grid) -> "FractionMatrix":
        view = super().__new__(cls, grid_fractions(grid.rows, grid.denom))
        view.grid = grid
        return view

    def __getnewargs__(self) -> tuple[Grid]:
        # what copy and pickle pass back to __new__
        return (self.grid,)


@dataclass(frozen=True, init=False)
class MetricSpace:
    """Finite point set with an exact symmetric distance matrix and a
    declared diameter bound, held on its least grid (see the module notes).
    The constructor reads any rational matrix, and reads a space's `.d`
    view as the grid it keeps."""

    labels: tuple[str, ...]
    grid: Grid

    def __init__(self, labels: Sequence[str], d: Sequence[Sequence[RationalLike]], diam_bound: RationalLike):
        """The space with the given distances and bound (no validation here)."""
        self._hold(labels, _fraction_grid(d, diam_bound))

    def _hold(self, labels: Sequence[str], grid: Grid):
        object.__setattr__(self, "labels", tuple(map(str, labels)))
        object.__setattr__(self, "grid", grid)
        if len(self.labels) != len(grid.rows):
            raise NonSquareError(f"{len(self.labels)} labels for a {len(grid.rows)}-point matrix")

    @classmethod
    def from_grid(
        cls, labels: Sequence[str], rows: Sequence[Sequence[int]], denom: int, bound: int
    ) -> "MetricSpace":
        """The space with distances rows[i][j] / denom and diameter bound
        bound / denom, held on its least grid (no validation here)."""
        space = cls.__new__(cls)
        space._hold(labels, _least_grid(denom, _square(rows), bound))
        return space

    @cached_property
    def d(self) -> FractionMatrix:
        """The exact distances, made on first read: Fraction rows that keep
        the space's grid, so `validate_metric(space.d, b)` and
        `MetricSpace(labels, space.d, b)` read no Fraction back."""
        return FractionMatrix(self.grid)

    @cached_property
    def diam_bound(self) -> Fraction:
        return Fraction(self.grid.bound, self.grid.denom)

    @property
    def n_points(self) -> int:
        return len(self.labels)

    def dist(self, i: int, j: int) -> Fraction:
        check_points(self.n_points, (i, j))
        return Fraction(self.grid.rows[i][j], self.grid.denom)

    def restrict(self, indices: Sequence[int]) -> "MetricSpace":
        """Subspace on the given distinct indices, in the given order."""
        idx = check_points(self.n_points, indices)
        if len(set(idx)) != len(idx):
            raise IndexClashError("duplicate indices in the restriction")
        denom, rows, bound = self.grid
        return MetricSpace.from_grid(
            [self.labels[i] for i in idx], [[rows[i][j] for j in idx] for i in idx], denom, bound
        )

    def with_point(self, label: str, profile: Sequence[RationalLike]) -> "MetricSpace":
        """Append one point at the given distances (no validation here)."""
        (denom, rows, bound), prof = lift(self.grid, profile)
        if len(prof) != self.n_points:
            raise LengthMismatchError(f"profile has {len(prof)} entries for {self.n_points} points")
        return append_points(self.labels, rows, range(self.n_points), [prof], [[0]], [label], denom, bound)


def check_points(n: int, indices: Sequence[int], what: str = "point") -> list[int]:
    """The indices as a list; PreconditionError unless each lies in 0..n-1."""
    idx = list(indices)
    for i in idx:
        if not 0 <= i < n:
            raise PreconditionError(f"{what} index {i} out of range")
    return idx


def lift(grid: Grid, values: Sequence[RationalLike]) -> tuple[Grid, list[int]]:
    """The grid refined just enough to hold `values` as well, and the values
    scaled onto it: the one refinement of an existing grid. The grid comes
    back as it is when it holds the values already; a refined grid keeps
    its rows as tuples, so that it can be stored, hashed and compared."""
    vals = [as_fraction(v) for v in values]
    denom, rows, bound = grid
    q = lcm(denom, *(v.denominator for v in vals))
    if q != denom:
        f = q // denom
        grid = Grid(q, tuple(tuple(v * f for v in row) for row in rows), bound * f)
    return grid, [v.numerator * (q // v.denominator) for v in vals]


def append_points(
    labels: Sequence[str], rows: Sequence[Sequence[int]], keep: Sequence[int], profiles: Sequence[Sequence[int]],
    among: Sequence[Sequence[int]], names: Sequence[str], denom: int, bound: int,
) -> MetricSpace:
    """The restriction of the scaled `rows` to `keep`, plus k new points on
    the same 1/denom grid: profiles[a] holds new point a's distances to the
    kept points (in `keep` order), among[a] its distances to the new points,
    and names[a] the label made fresh for it. No validation here."""
    out = [[rows[i][j] for j in keep] + [p[r] for p in profiles] for r, i in enumerate(keep)]
    out += [[*p, *a] for p, a in zip(profiles, among)]
    kept = [labels[i] for i in keep]
    used = set(kept)
    return MetricSpace.from_grid(kept + [fresh_label(name, used) for name in names], out, denom, bound)


def katetov_completion(
    rows: Sequence[Sequence[int]], anchors: Sequence[int], values: Sequence[int], bound: int, targets: Sequence[int]
) -> list[int]:
    """Katetov's one-point extension of a partial profile, on the grid of
    the scaled `rows`: for each w in `targets`,

        g(w) = min(bound, min over s in anchors of values[s] + rows[s][w]).

    Over a metric with every value at most the bound, g is Katetov whenever
    the partial profile is Katetov over the anchors; it then agrees with
    the values on the anchors and is the largest Katetov function that does
    (Katetov 1988, "On universal metric spaces")."""
    out = [bound] * len(targets)
    for s, v in zip(anchors, values):
        row = rows[s]
        for t, w in enumerate(targets):
            leg = v + row[w]
            if leg < out[t]:
                out[t] = leg
    return out


def require_metric(space: MetricSpace, what: str) -> MetricSpace:
    """The space itself, checked by `_scan` on its own grid; raises
    MetricFailureError("<what>: <reason> at <witness>") otherwise."""
    _, rows, bound = space.grid
    verdict = _scan(rows, bound)
    if not verdict:
        raise MetricFailureError(f"{what}: {verdict.reason} at {verdict.witness}", verdict)
    return space


def fresh_label(base: str, used: set[str]) -> str:
    """`base`, primed until it is not in `used`; the result joins `used`."""
    while base in used:
        base += "'"
    used.add(base)
    return base


def scale_space(space: MetricSpace, denom: int) -> Grid:
    """The space's grid lifted onto the 1/denom grid, which must contain the
    space's own least grid."""
    if denom < 1:
        raise PreconditionError(f"grid denominator must be >= 1, got {denom}")
    grid, _ = lift(space.grid, [Fraction(1, denom)])
    if grid.denom != denom:
        raise DenominatorMismatchError(
            f"grid denominator {denom} not divisible by the space's denominator {space.grid.denom}"
        )
    return grid


def cap_metric(space: MetricSpace, c: RationalLike) -> MetricSpace:
    """Truncate all distances at c; the result is again a metric with
    diameter bound c."""
    cap = as_fraction(c)
    if cap <= 0:
        raise PreconditionError(f"cap must be positive, got {cap}")
    (denom, rows, _), (top,) = lift(space.grid, [cap])
    capped = [[min(v, top) for v in row] for row in rows]
    return require_metric(MetricSpace.from_grid(space.labels, capped, denom, top), "capped matrix invalid")


@dataclass(frozen=True)
class KatetovFn:
    """Exact-rational vector over a MetricSpace satisfying the two-sided
    Katetov inequalities (a one-point extension profile). Construction
    checks one value per point; `over` also checks the inequalities."""

    space: MetricSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        if len(self.values) != self.space.n_points:
            raise LengthMismatchError(f"{len(self.values)} values over a {self.space.n_points}-point space")

    @classmethod
    def over(cls, space: MetricSpace, values: Sequence[RationalLike]) -> "KatetovFn":
        """Build and validate; raises KatetovViolationError on failure."""
        fn = cls(space, tuple(as_fraction(v) for v in values))
        verdict = is_katetov(fn.values, space)
        if not verdict:
            raise KatetovViolationError(f"not Katetov: {verdict.reason} at {verdict.witness}")
        return fn


def is_katetov(values: Sequence[RationalLike], space: MetricSpace) -> MetricVerdict:
    """Check the two-sided inequalities and the 0..diam_bound range, on the
    space's grid lifted to hold the values.

    The witness is the first violating index (range) or pair (both sides),
    in lexicographic order.
    """
    (_, d, bound), vals = lift(space.grid, values)
    n = space.n_points
    if len(vals) != n:
        raise LengthMismatchError(f"{len(vals)} values over a {n}-point space")
    for i, v in enumerate(vals):
        if v < 0 or v > bound:
            return MetricVerdict(False, "range", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            dij = d[i][j]
            if abs(vals[i] - vals[j]) > dij:
                return MetricVerdict(False, "lipschitz", (i, j))
            if vals[i] + vals[j] < dij:
                return MetricVerdict(False, "sum", (i, j))
    return MetricVerdict(True)


def elementary_katetov(space: MetricSpace, z: int) -> KatetovFn:
    """The distance profile of an existing point: f_z(x) = d(x, z)."""
    check_points(space.n_points, [z])
    return KatetovFn(space, grid_fractions([space.grid.rows[z]], space.grid.denom)[0])


def extend_by_katetov(fn: KatetovFn) -> tuple[MetricSpace, int]:
    """Realize a Katetov function as a genuinely new point of its space.

    Rejects values that break the Katetov inequalities (`KatetovFn.over`)
    and profiles that vanish somewhere (the new point would duplicate an
    existing one, breaking strict positivity).
    """
    space = fn.space
    KatetovFn.over(space, fn.values)
    for i, v in enumerate(fn.values):
        if v == 0:
            raise DuplicatePointError(f"profile vanishes at point {i}; realization would duplicate it")
    out = require_metric(space.with_point(f"x{space.n_points}", fn.values), "extension invalid")
    return out, out.n_points - 1


def sup_distance(f: KatetovFn, g: KatetovFn) -> Fraction:
    """Sup metric on K(X): max over points of |f - g| (0 over no points)."""
    if f.space != g.space:
        raise SpaceMismatchError("sup_distance needs both functions over one space")
    n = f.space.n_points
    (denom, _, _), vals = lift(Grid(1, (), 0), f.values + g.values)
    return Fraction(max((abs(a - b) for a, b in zip(vals[:n], vals[n:])), default=0), denom)


def kuratowski_embed(space: MetricSpace) -> list[KatetovFn]:
    """All elementary functions; an exact isometric copy of the space
    inside (K(X), sup)."""
    return [elementary_katetov(space, z) for z in range(space.n_points)]


def truncate_katetov(fn: KatetovFn, lam: RationalLike, mode: str) -> tuple[Fraction, ...]:
    """Pointwise max (resp. min) with a level 0 < lam < diam_bound.

    The max image is always Katetov again; the min image is returned as a
    bare vector since it generally leaves K(X).
    """
    level = as_fraction(lam)
    if not 0 < level < fn.space.diam_bound:
        raise LambdaOutOfRangeError(f"lambda {level} outside (0, {fn.space.diam_bound})")
    if mode == "max":
        return tuple(max(level, v) for v in fn.values)
    if mode == "min":
        return tuple(min(level, v) for v in fn.values)
    raise PreconditionError(f"mode must be 'max' or 'min', got {mode!r}")


def katetov_interval(
    d: Sequence[Sequence[int]], values: Sequence[int], bound: int, lo: int = 0
) -> tuple[int, int]:
    """The feasible interval [lo, hi] of coordinate k = len(values) of a grid
    Katetov vector over the integer matrix d, given its values at points
    0..k-1: Katetov's one-point extension rule

        max(lo, max_i |v_i - d_ik|) <= v_k <= min(bound, min_i (v_i + d_ik)).

    With lo = 0 it is never empty over a valid partial assignment on a
    metric, so a coordinate-by-coordinate walk never backtracks.
    """
    k = len(values)
    hi = bound
    for i, v in enumerate(values):
        dik = d[i][k]
        gap = abs(v - dik)
        if gap > lo:
            lo = gap
        top = v + dik
        if top < hi:
            hi = top
    return lo, hi


def _grid_profiles(d_scaled: Sequence[Sequence[int]], bound_scaled: int) -> Iterator[tuple[int, ...]]:
    """DFS over grid vectors satisfying the Katetov constraints, in
    lexicographic order; all values are integers on the common grid."""
    n = len(d_scaled)
    values: list[int] = []

    def rec(k: int) -> Iterator[tuple[int, ...]]:
        lo, hi = katetov_interval(d_scaled, values, bound_scaled)
        if k == n - 1:  # the last coordinate completes a profile per value
            prefix = tuple(values)
            for v in range(lo, hi + 1):
                yield prefix + (v,)
            return
        for v in range(lo, hi + 1):
            values.append(v)
            yield from rec(k + 1)
            values.pop()

    return rec(0) if n else iter([()])


def enumerate_katetov(space: MetricSpace, denom: int) -> Iterator[KatetovFn]:
    """All Katetov functions with values on the 1/denom grid, in
    lexicographic order, exhaustively and without duplicates.

    Requires every matrix entry and the diameter bound to live on that
    grid already.
    """
    _, d_scaled, bound_scaled = scale_space(space, denom)
    for profile in _grid_profiles(d_scaled, bound_scaled):
        yield KatetovFn(space, tuple(Fraction(v, denom) for v in profile))
