"""Exact-rational finite metric spaces and the Katetov function calculus.

A finite metric space is a tuple of labels, a square matrix of exact
rational distances and a declared diameter bound (the bound travels with
the data; it is not recomputed). A Katetov function over a space X is a
vector xi with

    |xi(x) - xi(y)| <= d(x,y) <= xi(x) + xi(y)    for all x, y,

bounded by the diameter bound: exactly the distance profiles of one-point
metric extensions of X.

Every space also carries its integer grid (`MetricSpace.grid`): a
denominator, the distances scaled by it as int rows, and the scaled bound.
A builder that already holds ints (`MetricSpace.from_grid`) hands its grid
over as it is, with one Fraction made per distinct grid value, so the
exact `.d` view costs no Fraction arithmetic. A space built from Fractions
(files, hand-written matrices) computes its grid on first use, once: the
least common denominator of its entries and bound. A handed-over grid
need not be the least one; `space_grid` reduces it by the gcd of its
entries when asked, and only then. The grid is not a dataclass field, so
equality, hashing and JSON see the Fractions alone.

`validate_metric` is the package's universal safety net: a brute-force
O(n^3) scan over ordered triples. The scan is the contract; everything
below implements that same scan on integers, cross-checked in the test
suite against the naive Fraction loop. `validate_metric` rescales the
matrix and the bound to the grid 1/q, with q the lcm of their distinct
denominators, as numerator * (q // denominator): exact, and free of
Fraction arithmetic. `validate_scaled` is the scan itself; a space's own
grid goes to it directly (`require_metric`), since scaling by a positive
factor keeps every comparison, hence every verdict and witness. Matrices of
at least `_NUMPY_MIN_POINTS` points run every check as int64 numpy passes,
unless the scaled bound reaches `_INT64_SAFE` (a sum of two entries could
then overflow) or an entry does not fit in int64. Small matrices and that
exact fallback run the same checks as loops over Python ints, which never
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DenominatorMismatchError,
    DuplicatePointError,
    EmptyGlueError,
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
# The scaled bound must stay comfortably inside int64 under one addition.
_INT64_SAFE = 2**61


@dataclass(frozen=True)
class MetricVerdict:
    """Outcome of a metric validation scan.

    `reason` is one of: not-square, not-symmetric, nonzero-diagonal,
    nonpositive-off-diagonal, exceeds-diameter, triangle; `witness` holds
    the first violating index pair/triple in lexicographic order. A
    triangle witness (i, j, k) means d(i,j) > d(i,k) + d(k,j).
    """

    ok: bool
    reason: str | None = None
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class KatetovVerdict:
    ok: bool
    reason: str | None = None  # range | lipschitz | sum
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _coerce_matrix(d: Sequence[Sequence[RationalLike]]) -> tuple[tuple[Fraction, ...], ...]:
    rows = tuple(map(tuple, d))
    if set(map(type, chain.from_iterable(rows))) - {Fraction}:
        rows = tuple(tuple(map(as_fraction, row)) for row in rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NonSquareError(f"matrix is not square: {len(rows)} rows, row lengths {[len(r) for r in rows]}")
    return rows


def _common_grid(rows: Sequence[Sequence[Fraction]], bound: Fraction) -> int:
    """The least common denominator of the entries and the bound."""
    return lcm(bound.denominator, *{v.denominator for row in rows for v in row})


def _on_grid(rows: Sequence[Sequence[Fraction]], bound: Fraction, q: int) -> tuple[list[list[int]], int]:
    """The matrix and the bound as integers on the grid 1/q, which must be a
    multiple of every denominator: numerator * (q // denominator), exact."""
    return (
        [[v.numerator * (q // v.denominator) for v in row] for row in rows],
        bound.numerator * (q // bound.denominator),
    )


def _int64_matrix(e: Sequence[Sequence[int]], bound: int) -> np.ndarray | None:
    """The scaled matrix as int64, or None when an entry does not fit or the
    bound reaches _INT64_SAFE. The triangle scan adds two entries only after
    every entry has been checked against the bound, so it cannot overflow."""
    if abs(bound) >= _INT64_SAFE:
        return None
    try:
        return np.array(e, dtype=np.int64).reshape(len(e), len(e))
    except OverflowError:
        return None


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


def _triangle_scan_numpy(d: np.ndarray) -> tuple[int, int, int] | None:
    # Runs after the precondition checks: with a zero diagonal and positive
    # entries elsewhere, k = i, k = j and j = i can never violate, so row i
    # violates iff d[i,j] > min over k of d[i,k] + d[k,j] for some j.
    for i in range(d.shape[0]):
        sums = d[i][:, None] + d  # sums[k, j] = d[i,k] + d[k,j]
        if (d[i] > sums.min(axis=0)).any():
            # viol[j, k]; its first True in row-major order is the first (j, k)
            viol = d[i][:, None] > sums.T
            j, k = np.unravel_index(np.argmax(viol), viol.shape)
            return (i, int(j), int(k))
    return None


def validate_metric(d: Sequence[Sequence[RationalLike]], diam_bound: RationalLike) -> MetricVerdict:
    """Brute-force check of all MetricSpace invariants.

    Checks, in order: symmetry, zero diagonal, strictly positive
    off-diagonal, entries <= diam_bound, triangle inequality over all
    ordered triples. The first violation in lexicographic index order is
    returned as the witness.
    """
    rows = _coerce_matrix(d)
    diam = as_fraction(diam_bound)
    return validate_scaled(*_on_grid(rows, diam, _common_grid(rows, diam)))


def validate_scaled(e: Sequence[Sequence[int]], bound: int) -> MetricVerdict:
    """The checks of `validate_metric` on a square matrix and a bound that
    are already integers on one grid."""
    arr = _int64_matrix(e, bound) if len(e) >= _NUMPY_MIN_POINTS else None
    if arr is None:
        verdict = _precondition_scan_int(e, bound)
        hit = _triangle_scan_int(e) if verdict is None else None
    else:
        verdict = _precondition_scan_numpy(arr, bound)
        hit = _triangle_scan_numpy(arr) if verdict is None else None
    if verdict is not None:
        return verdict
    if hit is not None:
        return MetricVerdict(False, "triangle", hit)
    return MetricVerdict(True)


def validate_pseudometric(d: Sequence[Sequence[RationalLike]]) -> MetricVerdict:
    """Like validate_metric but zero off-diagonal entries are allowed
    and there is no diameter bound."""
    rows = _coerce_matrix(d)
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return MetricVerdict(False, "not-symmetric", (i, j))
    for i in range(n):
        if rows[i][i] != 0:
            return MetricVerdict(False, "nonzero-diagonal", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] < 0:
                return MetricVerdict(False, "nonpositive-off-diagonal", (i, j))
    hit = _triangle_scan_int(rows)
    if hit is not None:
        return MetricVerdict(False, "triangle", hit)
    return MetricVerdict(True)


class Grid(NamedTuple):
    """A space's distances and bound as integers on the 1/denom grid:
    d[i][j] = rows[i][j] / denom and diam_bound = bound / denom. The rows
    are shared with whoever built them; never mutate them."""

    denom: int
    rows: Sequence[Sequence[int]]
    bound: int


class _GridFractions(dict):
    """Scaled grid value -> its Fraction on the 1/denom grid, made once."""

    def __init__(self, denom: int):
        super().__init__()
        self.denom = denom

    def __missing__(self, v: int) -> Fraction:
        q = self[v] = Fraction(v, self.denom)
        return q


@dataclass(frozen=True)
class MetricSpace:
    """Finite point set with an exact symmetric distance matrix and a
    declared diameter bound, plus its integer grid (see the module notes)."""

    labels: tuple[str, ...]
    d: tuple[tuple[Fraction, ...], ...]
    diam_bound: Fraction

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        object.__setattr__(self, "d", _coerce_matrix(self.d))
        object.__setattr__(self, "diam_bound", as_fraction(self.diam_bound))
        if len(self.labels) != len(self.d):
            raise NonSquareError(f"{len(self.labels)} labels for a {len(self.d)}-point matrix")

    @classmethod
    def from_matrix(
        cls,
        labels: Sequence[str],
        d: Sequence[Sequence[RationalLike]],
        diam_bound: RationalLike,
    ) -> "MetricSpace":
        """Build and validate; raises MetricFailureError on any violation."""
        return require_metric(cls(tuple(labels), d, diam_bound), "invalid metric")  # type: ignore[arg-type]

    @classmethod
    def from_grid(
        cls, labels: Sequence[str], rows: Sequence[Sequence[int]], denom: int, bound: int
    ) -> "MetricSpace":
        """The space with distances rows[i][j] / denom and diameter bound
        bound / denom (no validation here). It keeps `Grid(denom, rows,
        bound)` as its grid, and makes one Fraction per distinct value."""
        fractions = _GridFractions(denom)
        space = cls(tuple(labels), tuple(tuple(map(fractions.__getitem__, row)) for row in rows), fractions[bound])
        space.__dict__["grid"] = Grid(denom, rows, bound)
        return space

    @cached_property
    def grid(self) -> Grid:
        """The integer grid: handed over by `from_grid`, or else the least
        common grid of the Fractions, computed on first use."""
        denom = _common_grid(self.d, self.diam_bound)
        return Grid(denom, *_on_grid(self.d, self.diam_bound, denom))

    @property
    def n_points(self) -> int:
        return len(self.labels)

    def dist(self, i: int, j: int) -> Fraction:
        return self.d[i][j]

    def restrict(self, indices: Sequence[int]) -> "MetricSpace":
        """Subspace on the given indices, in the given order."""
        idx = list(indices)
        denom, rows, bound = self.grid
        return MetricSpace.from_grid(
            [self.labels[i] for i in idx], [[rows[i][j] for j in idx] for i in idx], denom, bound
        )

    def with_point(self, label: str, profile: Sequence[RationalLike]) -> "MetricSpace":
        """Append one point at the given distances (no validation here)."""
        prof = tuple(as_fraction(v) for v in profile)
        if len(prof) != self.n_points:
            raise LengthMismatchError(f"profile has {len(prof)} entries for {self.n_points} points")
        rows = [row + (prof[i],) for i, row in enumerate(self.d)]
        rows.append(prof + (Fraction(0),))
        return MetricSpace(self.labels + (fresh_label(label, set(self.labels)),), tuple(rows), self.diam_bound)


def require_metric(space: MetricSpace, what: str) -> MetricSpace:
    """The space itself, checked by `validate_scaled` on its own grid;
    raises MetricFailureError("<what>: <reason> at <witness>") otherwise."""
    _, rows, bound = space.grid
    verdict = validate_scaled(rows, bound)
    if not verdict:
        raise MetricFailureError(f"{what}: {verdict.reason} at {verdict.witness}", verdict)
    return space


def fresh_label(base: str, used: set[str]) -> str:
    """`base`, primed until it is not in `used`; the result joins `used`."""
    while base in used:
        base += "'"
    used.add(base)
    return base


def space_grid(space: MetricSpace) -> int:
    """The least common denominator of a space's distances and bound: its
    grid denominator reduced by the gcd of every scaled value."""
    denom, rows, bound = space.grid
    common = gcd(denom, bound)
    if common > 1:
        common = gcd(common, *chain.from_iterable(rows))
    return denom // common


def scale_space(space: MetricSpace, denom: int) -> tuple[list[list[int]], int]:
    """The distances and the bound of a space as integers on the 1/denom
    grid, which must contain the space's own least grid."""
    if denom < 1:
        raise PreconditionError(f"grid denominator must be >= 1, got {denom}")
    held, rows, bound = space.grid
    least = held if denom % held == 0 else space_grid(space)
    if denom % least != 0:
        raise DenominatorMismatchError(
            f"grid denominator {denom} not divisible by the space's denominator {least}"
        )
    # exact: denom * v is a multiple of `held` whenever 1/denom holds v / held
    return [[v * denom // held for v in row] for row in rows], bound * denom // held


def cap_metric(space: MetricSpace, c: RationalLike) -> MetricSpace:
    """Truncate all distances at c; the result is again a metric with
    diameter bound c."""
    cap = as_fraction(c)
    if cap <= 0:
        raise PreconditionError(f"cap must be positive, got {cap}")
    rows = tuple(tuple(min(v, cap) for v in row) for row in space.d)
    return require_metric(MetricSpace(space.labels, rows, cap), "capped matrix invalid")


@dataclass(frozen=True)
class PartialIsometry:
    """A distance-preserving map between index sets of two spaces."""

    domain: tuple[int, ...]
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(int(i) for i in self.domain))
        object.__setattr__(self, "image", tuple(int(i) for i in self.image))
        if len(self.domain) != len(self.image):
            raise LengthMismatchError("domain and image have different lengths")
        if len(set(self.domain)) != len(self.domain):
            raise PreconditionError("duplicate indices in domain")
        if len(set(self.image)) != len(self.image):
            raise PreconditionError("duplicate indices in image")

    def check(self, source: MetricSpace, target: MetricSpace) -> MetricVerdict:
        """Exact distance match on all pairs; witness is the offending pair
        of positions."""
        for a in range(len(self.domain)):
            for b in range(a + 1, len(self.domain)):
                if source.d[self.domain[a]][self.domain[b]] != target.d[self.image[a]][self.image[b]]:
                    return MetricVerdict(False, "not-isometric", (a, b))
        return MetricVerdict(True)


def amalgamate(
    x_space: MetricSpace,
    y_space: MetricSpace,
    glue: PartialIsometry,
    diam_bound: RationalLike | None = None,
) -> MetricSpace:
    """Free amalgam of two spaces over a glued common part.

    The result contains X at its original indices and the non-glued points
    of Y appended in Y order. Cross distances are the shortest two-leg sums
    through the glued set, capped at the bound. With an empty glue the
    bound itself is the cross distance, so it must be given explicitly.
    """
    if diam_bound is None:
        if not glue.domain:
            raise EmptyGlueError("empty glue needs an explicit diam_bound")
        bound = max(x_space.diam_bound, y_space.diam_bound)
    else:
        bound = as_fraction(diam_bound)
    if x_space.diam_bound > bound or y_space.diam_bound > bound:
        raise PreconditionError("both factors must have diameter bound <= the amalgam bound")
    ok = glue.check(x_space, y_space)
    if not ok:
        raise PreconditionError(f"glue is not a partial isometry: positions {ok.witness}")

    glued_in_y = dict(zip(glue.image, glue.domain))  # y index -> x index
    new_y = [j for j in range(y_space.n_points) if j not in glued_in_y]

    labels = list(x_space.labels)
    used = set(labels)
    labels += [fresh_label(y_space.labels[j], used) for j in new_y]

    n_x = x_space.n_points
    n = n_x + len(new_y)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n_x):
        for j in range(n_x):
            rows[i][j] = x_space.d[i][j]
    for a, ja in enumerate(new_y):
        for b, jb in enumerate(new_y):
            rows[n_x + a][n_x + b] = y_space.d[ja][jb]
    for i in range(n_x):
        for a, ja in enumerate(new_y):
            cross = bound
            for dom, img in zip(glue.domain, glue.image):
                leg = x_space.d[i][dom] + y_space.d[img][ja]
                if leg < cross:
                    cross = leg
            rows[i][n_x + a] = cross
            rows[n_x + a][i] = cross

    return require_metric(MetricSpace(tuple(labels), tuple(tuple(r) for r in rows), bound), "amalgam invalid")


@dataclass(frozen=True)
class KatetovFn:
    """Exact-rational vector over a MetricSpace satisfying the two-sided
    Katetov inequalities (a one-point extension profile)."""

    space: MetricSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))

    @classmethod
    def over(cls, space: MetricSpace, values: Sequence[RationalLike]) -> "KatetovFn":
        """Build and validate; raises KatetovViolationError on failure."""
        fn = cls(space, tuple(as_fraction(v) for v in values))
        verdict = is_katetov(fn.values, space)
        if not verdict:
            raise KatetovViolationError(f"not Katetov: {verdict.reason} at {verdict.witness}")
        return fn

    def __call__(self, i: int) -> Fraction:
        return self.values[i]


def is_katetov(values: Sequence[RationalLike], space: MetricSpace) -> KatetovVerdict:
    """Check the two-sided inequalities and the 0..diam_bound range.

    The witness is the first violating index (range) or pair (both sides),
    in lexicographic order.
    """
    vals = [as_fraction(v) for v in values]
    n = space.n_points
    if len(vals) != n:
        raise LengthMismatchError(f"{len(vals)} values over a {n}-point space")
    for i in range(n):
        if vals[i] < 0 or vals[i] > space.diam_bound:
            return KatetovVerdict(False, "range", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            dij = space.d[i][j]
            if abs(vals[i] - vals[j]) > dij:
                return KatetovVerdict(False, "lipschitz", (i, j))
            if vals[i] + vals[j] < dij:
                return KatetovVerdict(False, "sum", (i, j))
    return KatetovVerdict(True)


def elementary_katetov(space: MetricSpace, z: int) -> KatetovFn:
    """The distance profile of an existing point: f_z(x) = d(x, z)."""
    if not 0 <= z < space.n_points:
        raise PreconditionError(f"point index {z} out of range")
    return KatetovFn(space, space.d[z])


def extend_by_katetov(space: MetricSpace, fn: KatetovFn) -> tuple[MetricSpace, int]:
    """Realize a Katetov function as a genuinely new point.

    Rejects profiles that vanish somewhere (the new point would duplicate
    an existing one, breaking strict positivity).
    """
    if fn.space != space:
        raise SpaceMismatchError("function lives over a different space")
    verdict = is_katetov(fn.values, space)
    if not verdict:
        raise KatetovViolationError(f"not Katetov: {verdict.reason} at {verdict.witness}")
    for i, v in enumerate(fn.values):
        if v == 0:
            raise DuplicatePointError(f"profile vanishes at point {i}; realization would duplicate it")
    out = require_metric(space.with_point(f"x{space.n_points}", fn.values), "extension invalid")
    return out, out.n_points - 1


def sup_distance(f: KatetovFn, g: KatetovFn) -> Fraction:
    """Sup metric on K(X): max over points of |f - g|."""
    if f.space != g.space:
        raise SpaceMismatchError("sup_distance needs both functions over one space")
    return max(abs(a - b) for a, b in zip(f.values, g.values))


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


def _grid_profiles(d_scaled: list[list[int]], bound_scaled: int) -> Iterator[tuple[int, ...]]:
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
    d_scaled, bound_scaled = scale_space(space, denom)
    for profile in _grid_profiles(d_scaled, bound_scaled):
        yield KatetovFn(space, tuple(Fraction(v, denom) for v in profile))
