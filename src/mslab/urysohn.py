"""Finite Urysohn-sphere approximants and explicit one-point extensions.

The Approximant grows a finite rational metric space until every grid
Katetov function over every small subset of the previous generation is
realized by an actual point (the finite-scale one-point extension
property). Distances are kept internally as integers on a common 1/denom
grid, in numpy arrays whose dtype is the smallest that holds the scaled
diameter bound (uint8 for the default grids, `object` holding Python ints
past uint64, so huge denominators stay exact). The seed rows enter numpy
through `metric.int_matrix`, in one C-level pass (a byte buffer when every
entry lies in 0..255, as on the default grids) that refuses a non-integer
entry, and a matrix is validated as it is, never through a MetricSpace.

An approximant holds its last saturation round as two pieces, never as one
square: the full rows of the round's step-start points (106 x 4274 for the
denom-2 round 4) and the log, whose last records are the new points'. Each
new point realizes a Katetov function over a subset of the step-start
points, and its distance to every other point is the free amalgam of that
function (Katetov 1988), so the rows of the new points are derived from
their records and the step-start rows when read, not stored. One reader,
`Approximant._distances(rows, cols)`, serves every read (`dist` with a
step-start end reads its one entry of the step-start rows); a caller
reads only the rows and columns it needs (the injectivity check
its snapshot's rows, a probe its kept points' rows, a restriction its
sub-matrix), and `Approximant.matrix` builds the whole n x n array, a
block of rows at a time, only when a caller asks for it (serialization,
`as_metric_space`, the next round's step-start matrix). Readers take
values out as Python ints, one `tolist` or `.item()` per call; a
MetricSpace view is made on demand from those ints (`from_grid`). Rows are
read by indexing, never by `ndarray.take`, which copies its whole input
into one contiguous array when that input is a strided view. Fancy
indexing wraps negative indices, so every index goes through
`check_points` first.

A saturation round and the injectivity check are one walk (`_Walk`) over
anchor rows on the approximant's own 1/denom grid, which yields each grid
Katetov profile that no point realizes: a round adds a point at each, and
the check is a round's walk over the snapshot, stopped at its first
unrealized profile. The check reads a finer denominator on that grid too
(`finite_injectivity_check` proves the reading).

The explicit extension operations (ma_extension, uwmt_extension,
prop53_extension, nonproper_witness, injectivity_chain) each build a small
one- or k-point metric extension from a prescribed distance recipe and
re-validate the result; they certify recipes, they never repair them. Each
takes plain arguments, the space (or a `BFState`), point indices and the
prescribed rational, as in `ma_extension(space, F, x, y, delta)`, and
returns the extension with the index or indices of its new points. The
MA, UWMT, Prop 5.3 and level-companion recipes run on the integer grid of
their input space: they read its scaled rows, refine the grid only when a
prescribed value (delta, lambda, or the eps of Prop 5.3) falls off it
(`metric.lift`; Prop 5.3 lifts the approximant's grid of its kept points),
append their points with `metric.append_points`, and check the result on
its grid with `metric.require_metric`.

The UWMT and Prop 5.3 recipes complete their prescribed distances with
Katetov's one-point extension `metric.katetov_completion`: each new
point's distance to w is the shortest path to it through the anchors
whose distances are prescribed, capped at the bound. The naive single-leg
cross formula d(z_i, z'_j) = min(d(z_i, z_j) + d(x, y), bound) admits
triangle violations on valid inputs (see the regression tests for a
concrete 4-point instance); the completion agrees with the naive value
whenever that value is consistent, preserves the copied distances
exactly, and keeps the displacement d(z_i, z'_i) = d(x, y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DenominatorMismatchError,
    DiameterExceededError,
    EmptyStateError,
    IndexClashError,
    LambdaOutOfRangeError,
    MetricFailureError,
    NonSquareError,
    PreconditionAError,
    PreconditionBError,
    PreconditionError,
    UnsaturatedError,
)
from .metric import (
    Grid, MetricSpace, _grid_profiles, append_points, cap_metric, check_points, fresh_label, int_matrix,
    katetov_completion, lift, require_metric, scale_space,
)
from .rationals import RationalLike, as_fraction
from .report import WitnessReport

DEFAULT_BUDGET = 5000
_READ_ROWS = 256  # rows per read when `Approximant.matrix` is built


@dataclass(frozen=True)
class RealizationRecord:
    """One realized (subset, profile) pair: the point `point` was added in
    round `round` to realize the scaled values over `subset`."""

    round: int
    subset: tuple[int, ...]
    values: tuple[int, ...]  # scaled by denom
    point: int


@dataclass(eq=False)
class Approximant:
    """A growing finite metric space on the 1/denom grid, held as the
    step-start rows of its last saturation round and its log.

    Distances are scaled by `denom` and held in a numpy array of dtype
    `np.min_scalar_type(bound_scaled)`: every entry lies in
    [0, bound_scaled], so the dtype holds it, and it is `object` (Python
    ints) once the bound passes uint64; `validate_metric` scans a matrix as
    it is, since an int64 cast would wrap a uint64 entry past 2**63.

    - `start` holds the full rows of the last round's step-start points,
      the first n0 = len(start) points: n0 x n, with no spare capacity. For
      a round-0 or loaded approximant it is the whole matrix.
    - The last n - n0 records of `log` are the new points', in point order.
      A new point p realizes the Katetov function xi_p over the subset S_p
      of its record, so its row is the free amalgam (Katetov 1988, "On
      universal metric spaces")
          d(p, w) = min(bound, min over s in S_p of xi_p(s) + d(s, w))
      for every w, a step-start point or a new one, and 0 at w = p.

    The rows of new points are never stored: the reader `_distances`
    derives them by that formula. `matrix` builds the whole n x n array
    through the reader when a caller asks for it; a caller that needs a few
    rows or a sub-matrix reads only those. `round_sizes` records the point
    count after each completed saturation round (entry 0 is the seed size),
    so older generations are index prefixes. Equality is identity: compare
    `matrix.tolist()` for values.
    """

    labels: list[str]
    start: np.ndarray
    denom: int
    bound_scaled: int
    subset_bound: int
    round_sizes: list[int] = field(default_factory=list)
    log: list[RealizationRecord] = field(default_factory=list)

    @classmethod
    def from_space(cls, space: MetricSpace, denom: int, subset_bound: int) -> "Approximant":
        _, rows, bound_scaled = scale_space(space, denom)
        return cls.from_grid(space.labels, rows, denom, bound_scaled, subset_bound)

    @classmethod
    def from_grid(
        cls, labels: Sequence[str], rows: Sequence[Sequence[int]], denom: int, bound_scaled: int, subset_bound: int
    ) -> "Approximant":
        """A round-0 approximant from an n x n matrix of distances already
        scaled by `denom`, one row per label; each must be an integer in
        [0, bound_scaled] (`int_matrix` raises TypeError on any other
        entry). The exact `int_matrix` is range-checked, then narrowed to
        the bound's dtype."""
        if subset_bound < 1:
            raise PreconditionError(f"subset bound must be >= 1, got {subset_bound}")
        n = len(labels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise NonSquareError(f"the matrix for {n} labels is not {n} x {n}")
        m = int_matrix(rows).reshape(n, n)
        if n and not (m.min() >= 0 and m.max() <= bound_scaled):
            raise PreconditionError(f"seed distances must lie in [0, {Fraction(bound_scaled, denom)}]")
        return cls(
            labels=list(labels),
            start=m.astype(np.min_scalar_type(bound_scaled)),
            denom=denom,
            bound_scaled=bound_scaled,
            subset_bound=subset_bound,
            round_sizes=[n],
        )

    @property
    def n_points(self) -> int:
        return len(self.labels)

    @property
    def rounds(self) -> int:
        """The number of completed saturation rounds."""
        return len(self.round_sizes) - 1

    @property
    def diam_bound(self) -> Fraction:
        return Fraction(self.bound_scaled, self.denom)

    @property
    def matrix(self) -> np.ndarray:
        """The symmetric n x n distance matrix, built on each read from
        `_distances`, `_READ_ROWS` rows at a time, and read-only."""
        n = self.n_points
        out = np.empty((n, n), dtype=self.start.dtype)
        points = np.arange(n)
        for c in range(0, n, _READ_ROWS):
            out[c : c + _READ_ROWS] = self._distances(points[c : c + _READ_ROWS], points)
        out.flags.writeable = False
        return out

    def _distances(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """The scaled distances from each point of `rows` to each point of
        `cols`, as a len(rows) x len(cols) array; every index must already
        be checked (`check_points`).

        A step-start row is read from `start`. The row of a new point p is
        the free amalgam of its record (Katetov 1988, "On universal metric
        spaces"), for step-start and new columns alike:
            d(p, w) = min over (s, v) in p's record of (min(start[s, w], bound - v) + v),
        and 0 at w = p. The sum never passes bound, so it cannot wrap in a
        narrow dtype, and the min is min(bound, min of v + d(s, w)). For w a
        new point q it equals min(bound, min over s in S_p, t in S_q of
        xi_p(s) + d(s, t) + xi_q(t)), which is symmetric in p and q: the row
        point's record gives the value that q's record gives. Each record is
        padded to `subset_bound` anchors by repeating its first anchor and
        value, which leaves the min unchanged."""
        start = self.start
        n0, n = start.shape
        r, c = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        if n0 == n:  # every point is a step-start point
            return start[r][:, c]
        at_c = start[:, c]  # step-start point x column
        new = r >= n0
        out = np.empty((len(r), len(c)), dtype=start.dtype)
        out[~new] = at_c[r[~new]]
        if new.any():
            p = r[new]
            k, bound, log = self.subset_bound, self.bound_scaled, self.log
            picked = [log[i] for i in (p + (len(log) - n)).tolist()]  # point p's record
            anchors = np.array([rec.subset + rec.subset[:1] * (k - len(rec.subset)) for rec in picked], dtype=np.intp)
            values = np.array([rec.values + rec.values[:1] * (k - len(rec.values)) for rec in picked], dtype=start.dtype)
            derived = np.full((len(p), len(c)), bound, dtype=start.dtype)
            for s, v in zip(anchors.T, values.T):
                v = v[:, None]
                term = np.minimum(at_c[s], bound - v)
                term += v
                np.minimum(derived, term, out=derived)
            derived[p[:, None] == c] = 0
            out[new] = derived
        return out

    def dist(self, i: int, j: int) -> Fraction:
        check_points(self.n_points, (i, j))
        lo, hi = (i, j) if i < j else (j, i)  # start holds the row of a step-start lo
        scaled = self.start.item(lo, hi) if lo < len(self.start) else self._distances([lo], [hi]).item()
        return Fraction(scaled, self.denom)

    def snapshot(self, round_index: int) -> range:
        """Point indices present after the given completed round."""
        if not 0 <= round_index < len(self.round_sizes):
            raise PreconditionError(f"round {round_index} outside 0..{len(self.round_sizes) - 1}")
        return range(self.round_sizes[round_index])

    def as_metric_space(self) -> MetricSpace:
        return MetricSpace.from_grid(self.labels, self.matrix.tolist(), self.denom, self.bound_scaled)

    def restrict_space(self, indices: Sequence[int]) -> MetricSpace:
        """Subspace on the given distinct indices, in the given order."""
        idx = check_points(self.n_points, indices)
        if len(set(idx)) != len(idx):
            raise IndexClashError("duplicate indices in the restriction")
        sub = self._distances(idx, idx).tolist()
        return MetricSpace.from_grid([self.labels[i] for i in idx], sub, self.denom, self.bound_scaled)


def _subsets_lex(points: Sequence[int], max_size: int):
    """All non-empty subsets of the given points up to max_size, as sorted
    tuples in plain lexicographic order, generated one at a time: each
    subset is followed by its extensions by larger points, depth first."""
    pts = sorted(points)

    def grow(prefix: tuple[int, ...], start: int):
        if len(prefix) < max_size:
            for i in range(start, len(pts)):
                subset = (*prefix, pts[i])
                yield subset
                yield from grow(subset, i + 1)

    return grow((), 0)


class _Walk:
    """A saturation walk and its realization lookup over the anchor points.

    Iterating yields every (subset, values) pair that no point realizes, in
    lexicographic order: a non-empty subset of at most max_size of the
    anchors, then a grid Katetov profile over it. The walk counts the
    `subsets` and `functions` (profiles) it reads, the yielded ones
    included. The anchors are in increasing order, rows[i] holds the scaled
    distances from anchors[i] to every point, and d(s, t) is read as the
    Python int rows.item(i, t): a numpy uint8 scalar would wrap in
    `katetov_interval`'s arithmetic.

    The lookup holds, per anchor, scaled value -> the set of points at that
    distance from it, as a Python-int bitmask (bit p is point p); a profile
    is realized by the points in every mask of its values. `add` indexes a
    point added at a yield, so the walk's later profiles see it. No anchor
    below the first point of the current subset is read again, so `add`
    indexes the point only from that anchor on: the masks of the retired
    anchors go stale, and nothing reads them.

    The profiles of a subset depend only on its sub-matrix and the bound,
    and subsets of two points have at most bound + 1 sub-matrices, so the
    walk enumerates each distinct sub-matrix once. It keeps a sub-matrix's
    profiles only once all of them are read: a caller that stops early (a
    check at its witness, a round at its budget) may face far more profiles
    than it reads, 2**66 + 1 over one point past uint64."""

    def __init__(self, rows: np.ndarray, anchors: Sequence[int], max_size: int, bound: int):
        self._rows, self._anchors, self._max_size, self._bound = rows, anchors, max_size, bound
        self._masks = [
            {
                v: int.from_bytes(np.packbits(row == v, bitorder="little").tobytes(), "little")
                for v in np.unique(row).tolist()
            }
            for row in rows
        ]
        self._first = 0  # the position of the current subset's first anchor
        self.subsets = self.functions = 0

    def __iter__(self):
        rows, bound = self._rows, self._bound
        pos = {s: i for i, s in enumerate(self._anchors)}
        kept: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] = {}

        def keep_when_read(sub):
            read = []
            for values in _grid_profiles(sub, bound):
                read.append(values)
                yield values
            kept[sub] = tuple(read)

        for subset in _subsets_lex(self._anchors, self._max_size):
            self.subsets += 1
            at = [pos[s] for s in subset]
            self._first = at[0]
            masks = [self._masks[i] for i in at]
            sub = tuple([tuple([rows.item(i, t) for t in subset]) for i in at])
            profiles = kept.get(sub)
            for values in keep_when_read(sub) if profiles is None else profiles:
                self.functions += 1
                mask = -1
                for per, v in zip(masks, values):
                    mask &= per.get(v, 0)
                    if not mask:
                        yield subset, values
                        break

    def add(self, point: int, row: np.ndarray):
        """Index a new point by its distances to the anchors, in anchor
        order, from the current subset's first anchor on."""
        bit = 1 << point
        first = self._first
        for per, v in zip(self._masks[first:], row[first:].tolist()):
            per[v] = per.get(v, 0) | bit


def fraisse_step(a: Approximant, budget: int = DEFAULT_BUDGET) -> Approximant:
    """One saturation round.

    Every grid Katetov function over every subset (size <= subset_bound)
    of the step-start point set that is not yet realized exactly gets a
    realizing point, integrated by the one-point free-amalgam formula
    g(w) = min(bound, min over s in S of xi(s) + d(s, w)). Records are
    processed in lexicographic (subset, profile) order, so the output is
    reproducible bit for bit for one fixed order of the seed points. Round
    sizes depend on that order: a point added early can realize a later
    profile, so relabelling the seed can change how many points a round
    adds (from 36 to 42 points in round 1 for one small seed at denom 2).

    The round is the walk (`_Walk`) over the step-start points, adding a
    point at each profile it yields; the injectivity check over those
    points is that walk, stopped at its first unrealized profile. The
    round reads only the step-start rows: the completion reads the
    subset's rows, and the walk's lookup reads the new point's distances
    to the step-start points. So the round collects only those distances,
    stacked once after the walk into a new x step-start block, and keeps
    the step-start points' full rows, the step-start matrix beside the
    transposed block, as `start`. A new point's row is the free amalgam of
    its record (Katetov 1988) over those rows, for step-start and new
    points alike, and is derived when read (`Approximant._distances`). No
    array of the round has n x n entries.
    """
    base = a.matrix  # read only: distances among step-start points never change
    n0 = n = a.n_points
    bound = a.bound_scaled
    labels, log = list(a.labels), list(a.log)
    label_set = set(labels)
    walk = _Walk(base, range(n0), a.subset_bound, bound)
    new_rows = []  # each new point's distances to the step-start points
    # (s, v) -> the row min(bound, v + d(s, w)) over the step-start points
    # w; at most subset_bound rows per new point, so at most subset_bound
    # times the block
    shifted: dict[tuple[int, int], np.ndarray] = {}

    round_no = a.rounds + 1
    for subset, values in walk:
        if n + 1 > budget:
            raise BudgetExceededError(
                f"saturation would exceed the {budget}-point budget at round {round_no}"
            )
        # metric.katetov_completion over the step-start points, one row
        # per anchor; v + min(d, bound - v) is never above bound, so the
        # sum cannot wrap in a narrow dtype
        for s, v in zip(subset, values):
            if (s, v) not in shifted:
                shifted[s, v] = np.minimum(base[s], bound - v) + v
        profile = functools.reduce(np.minimum, [shifted[s, v] for s, v in zip(subset, values)])
        new_rows.append(profile)
        labels.append(fresh_label(f"x{n}", label_set))
        walk.add(n, profile)
        log.append(RealizationRecord(round_no, subset, tuple(values), n))
        n += 1

    block = np.array(new_rows, dtype=base.dtype).reshape(n - n0, n0)  # new point x step-start point
    start = np.hstack([base, block.T])
    return replace(a, labels=labels, start=start, round_sizes=[*a.round_sizes, n], log=log)


def finite_injectivity_check(
    a: Approximant, over: Sequence[int], k: int, denom: int
) -> WitnessReport:
    """Is every 1/denom-grid Katetov function over every <=k subset of the
    snapshot realized, up to one step of the approximant's grid, by some
    current point? `denom` must be a multiple of `a.denom`.

    A function xi over S passes when some point x has max over s in S of
    |d(x, s) - xi(s)| < 1/a.denom. This is the finite-scale form of the
    theorem that the maximal equivariant compactification of the Urysohn
    sphere, its space of 1-types S_1, is its Gromov compactification, every
    type a limit of distance profiles d(x, .) ("Maximal equivariant
    compactification of the Urysohn spaces and other metric structures"). At
    denom = a.denom it is exact realization, and at any multiple the
    verdict is that one, subset by subset. So the check is a round's walk
    (`_Walk`) over the snapshot on the approximant's own grid, stopped at
    its first unrealized profile: the verdict, the counts and the witness
    come from that walk, and `params` echoes `denom`. Work in units of
    1/a.denom, in which d and the bound are integers:
    - An own-grid pass gives a fine pass. The coordinatewise ceiling of a
      fine Katetov function xi is again Katetov (Katetov 1988, "On
      universal metric spaces"): |ceil a - ceil b| <= d(s, t) when
      |a - b| <= d(s, t), since d(s, t) is an integer; ceil a + ceil b >=
      a + b >= d(s, t); and ceil a <= bound. A point realizing ceil(xi)
      exactly lies within ceil(xi(s)) - xi(s) < 1 of xi at every s.
    - An own-grid fail gives a fine fail. The unrealized own-grid profile
      eta is itself a fine Katetov function, and the only own-grid vector
      strictly within one step of eta at every s is eta, which no point
      realizes.

    The fail witness is the first unrealized (subset, profile) pair on the
    own grid, in lexicographic order, its values Fraction(v, a.denom).
    """
    if k < 0 or denom < 1:
        raise PreconditionError(f"need k >= 0 and denom >= 1, got k={k}, denom={denom}")
    if denom % a.denom != 0:
        raise DenominatorMismatchError(
            f"check denominator {denom} not divisible by the approximant's {a.denom}"
        )
    over = check_points(a.n_points, sorted(set(over)), "snapshot")
    walk = _Walk(a._distances(over, np.arange(a.n_points)), over, k, a.bound_scaled)
    hit = next(iter(walk), None)
    witness = None if hit is None else {"subset": list(hit[0]), "values": [Fraction(v, a.denom) for v in hit[1]]}
    return WitnessReport(
        check="finite-injectivity",
        params={"k": k, "denom": denom, "snapshot_size": len(over)},
        verdict="pass" if witness is None else "fail",
        witness=witness,
        counts={"subsets": walk.subsets, "functions": walk.functions, "points": a.n_points},
    )


# -- explicit one-point extensions ------------------------------------------


def ma_extension(
    space: MetricSpace, F: Sequence[int], x: int, y: int, delta: RationalLike
) -> tuple[MetricSpace, int]:
    """Almost matching: move y to a new point y' with d(y', x) = delta and
    d(y', z) = d(y, z) for z in the finite set F, over the restriction to
    F and x.

    Preconditions (checked, with the violating landmark carried):
      (a)  |d(x,z) - d(y,z)| < delta  for all z in F
      (b)  delta <= d(x,z) + d(y,z)   for all z in F
    plus 0 < delta < diam_bound.
    """
    delta = as_fraction(delta)
    F = check_points(space.n_points, [x, y, *F])[2:]
    if x in F or y in F:
        raise IndexClashError("x and y must not belong to F")
    if len(set(F)) != len(F):
        raise IndexClashError("duplicate indices in F")
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    if delta >= space.diam_bound:
        raise DiameterExceededError(f"delta {delta} not below the diameter bound {space.diam_bound}")
    (denom, e, bound), (step,) = lift(space.grid, [delta])
    for z in F:
        if abs(e[x][z] - e[y][z]) >= step:
            raise PreconditionAError(f"|d(x,z)-d(y,z)| >= delta at z={z}", z=z)
    for z in F:
        if step > e[x][z] + e[y][z]:
            raise PreconditionBError(f"delta > d(x,z)+d(y,z) at z={z}", z=z)

    keep = sorted(set(F) | {x})
    profile = [step if w == x else e[y][w] for w in keep]
    out = append_points(space.labels, e, keep, [profile], [[0]], [space.labels[y] + "'"], denom, bound)
    return require_metric(out, "ma extension invalid"), len(keep)


def uwmt_extension(
    space: MetricSpace, x: int, y: int, Z: Sequence[int]
) -> tuple[MetricSpace, list[int]]:
    """Mirror the finite set {x} u Z across the displacement from x to y.

    Writing z_0 = x and z'_0 = y, the new points z'_1..z'_k satisfy
    d(z'_i, z'_j) = d(z_i, z_j) exactly (so the map z_i -> z'_i is a
    partial isometry) and d(z_i, z'_i) = d(x, y). Cross distances are the
    shortest-path completion of the one-leg recipe
    d(z_i, z_j) + d(x, y), capped at the diameter bound. The output is the
    restriction to {x, y} u Z plus the k new points, re-validated.
    """
    members = check_points(space.n_points, [x, y, *Z])
    Z = members[2:]
    if len(set(members)) != len(members):
        raise IndexClashError("x, y and Z must be pairwise distinct indices")
    keep = sorted(members)
    zs = [x, *Z]  # z_0 = x
    denom, d, bound = space.grid
    e = d[x][y]
    at_y = keep.index(y)
    profiles = []
    for zb in Z:
        # d(w, z'_b) through y itself and through the matched legs z_l -> z'_l
        prof = katetov_completion(d, [y, *zs], [d[x][zb], *(e + d[zl][zb] for zl in zs)], bound, keep)
        prof[at_y] = d[x][zb]
        profiles.append(prof)
    among = [[d[za][zb] for zb in Z] for za in Z]
    names = [space.labels[zb] + "'" for zb in Z]
    out = append_points(space.labels, d, keep, profiles, among, names, denom, bound)
    m = len(keep)
    return require_metric(out, "uwmt extension invalid"), list(range(m, m + len(Z)))


@dataclass(frozen=True)
class BFState:
    """A partial isometry presented as matched pairs inside an approximant,
    with every pair at distance <= eps. The constructor checks all of it:
    eps > 0, each index in range, distinct domain points, each pair within
    eps and the isometry condition. No pairs is a valid state; the
    extensions refuse it."""

    space: Approximant
    pairs: tuple[tuple[int, int], ...]
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))
        object.__setattr__(self, "eps", as_fraction(self.eps))
        space, pairs, eps = self.space, self.pairs, self.eps
        if eps <= 0:
            raise PreconditionError(f"eps must be positive, got {eps}")
        dom = [p for p, _ in pairs]
        if len(set(dom)) != len(dom):
            raise IndexClashError("duplicate domain indices in pairs")
        ends = check_points(space.n_points, [p for pair in pairs for p in pair])
        d = space._distances(ends, ends).tolist()  # pair i's ends at 2i and 2i + 1
        num, den = eps.numerator, eps.denominator
        for i in range(len(pairs)):
            gap = d[2 * i][2 * i + 1]
            if gap * den > num * space.denom:
                raise PreconditionError(f"pair {i} is {Fraction(gap, space.denom)} apart, above eps {eps}")
            for j in range(i + 1, len(pairs)):
                if d[2 * i][2 * j] != d[2 * i + 1][2 * j + 1]:
                    raise PreconditionError(f"pairs {i} and {j} break the isometry condition")

    @classmethod
    def create(
        cls, space: Approximant, pairs: Sequence[tuple[int, int]], eps: RationalLike
    ) -> "BFState":
        """The same checked state as `BFState(space, tuple(pairs), eps)`."""
        return cls(space, tuple(pairs), eps)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.pairs)


def _prop53_profile(st: BFState, z: int) -> tuple[list[int], Grid, list[int], int]:
    """Prescribed distances for the transported point z'.

    Returns (kept original indices, their grid, the profile of z' over them,
    t0 = d(z', z)), all integers on one grid: the approximant's grid of the
    kept points, lifted (`metric.lift`) just enough to hold eps. The
    profile is the Katetov completion (`katetov_completion`) of the
    recipe: exact a_i = d(z, x_i) at the images y_i,
    c_i = min(bound, a_i + d(x_i, y_i)) at the x_i, and
    t0 = min(eps, bound, min_i(a_i + d(y_i, z))) at z itself, so the result
    is always a one-point metric extension.
    """
    check_points(st.space.n_points, [z], "probe")
    if not st.pairs:
        raise EmptyStateError("back-and-forth state has no pairs")
    if z in st.domain:
        raise IndexClashError(f"probe point {z} already in the domain")
    ap = st.space
    keep = sorted(set(st.domain) | set(st.image) | {z})
    pos = {w: i for i, w in enumerate(keep)}
    # lifted as Python ints: a numpy product could overflow int64
    sub = tuple(map(tuple, ap._distances(keep, keep).tolist()))
    grid, (eps,) = lift(Grid(ap.denom, sub, ap.bound_scaled), [st.eps])
    _, d, bound = grid
    zp = pos[z]
    xs = [pos[xi] for xi in st.domain]
    ys = [pos[yi] for yi in st.image]
    a = [d[zp][xp] for xp in xs]
    # the completion of the a_i over the y_i at z itself, capped at eps
    t0 = min(eps, katetov_completion(d, ys, a, bound, [zp])[0])
    c = [min(bound, ai + d[xp][yp]) for ai, xp, yp in zip(a, xs, ys)]
    profile = katetov_completion(d, [*ys, *xs, zp], [*a, *c, t0], bound, range(len(keep)))
    return keep, grid, profile, t0


def prop53_extension(st: BFState, z: int) -> tuple[MetricSpace, int]:
    """Add the transported point z' with d(z', y_i) = d(z, x_i) exactly and
    d(z', z) <= eps, over the restriction to the pairs and z."""
    keep, (q, d, bound), profile, t0 = _prop53_profile(st, z)
    ap = st.space
    m = len(keep)
    out = append_points([ap.labels[w] for w in keep], d, range(m), [profile], [[0]], [ap.labels[z] + "'"], q, bound)
    require_metric(out, "transport extension invalid")
    moved = profile[keep.index(z)]
    if moved != t0 or t0 * st.eps.denominator > st.eps.numerator * q:
        raise MetricFailureError(
            f"transport extension breaks its contract: d(z', z) = {Fraction(moved, q)}, "
            f"t0 = {Fraction(t0, q)}, eps = {st.eps}"
        )
    return out, m


def back_and_forth_extend(st: BFState, z: int) -> BFState:
    """Extend the partial isometry through z by searching the approximant
    for a point realizing the transported profile exactly.

    Raises Unsaturated when no point matches; the caller should run
    fraisse_step and retry.
    """
    keep, grid, profile, _ = _prop53_profile(st, z)
    ap = st.space
    f = grid.denom // ap.denom
    for w, v in zip(keep, profile):
        if v % f:
            raise UnsaturatedError(
                f"profile value {Fraction(v, grid.denom)} at point {w} is off the 1/{ap.denom} grid"
            )
    want = np.array([v // f for v in profile], dtype=ap.start.dtype)
    hits = np.flatnonzero((ap._distances(keep, np.arange(ap.n_points)) == want[:, None]).all(axis=0))
    if not hits.size:
        raise UnsaturatedError("no existing point realizes the transported profile")
    return BFState.create(ap, st.pairs + ((z, int(hits[0])),), st.eps)


def injectivity_chain(
    r: RationalLike, s: RationalLike, diam_bound: RationalLike
) -> MetricSpace:
    """A cycle x_0..x_n with n consecutive steps of length exactly r and a
    closing distance of exactly s, capped at the diameter bound.

    The matrix is the shortest-path metric of the (n+1)-cycle with n edges
    of length r and one closing edge of length s. For s >= r the step
    count is ceil(s/r); for s < r two steps are needed, since a single
    edge cannot carry both exact lengths.
    """
    r, s, bound = as_fraction(r), as_fraction(s), as_fraction(diam_bound)
    if not 0 < r <= bound:
        raise PreconditionError(f"need 0 < r <= diam_bound, got r={r}")
    if not 0 < s <= bound:
        raise PreconditionError(f"need 0 < s <= diam_bound, got s={s}")
    (q, _, _), (r, s) = lift(Grid(1, (), 0), [r, s])
    n = 1 if s == r else max(2, -(-s // r))
    rows = [[min(r * abs(i - j), (n - abs(i - j)) * r + s) for j in range(n + 1)] for i in range(n + 1)]
    chain = MetricSpace.from_grid([f"x{i}" for i in range(n + 1)], rows, q, r * n + s)
    return cap_metric(chain, bound)


def nonproper_witness(
    space: MetricSpace, x: int, Z: Sequence[int], lam: RationalLike
) -> tuple[MetricSpace, int]:
    """Add a level-lambda companion of x: d(y, x) = lambda and
    d(y, z_i) = max(lambda, d(x, z_i)), over the restriction to x and Z."""
    level = as_fraction(lam)
    Z = check_points(space.n_points, [x, *Z])[1:]
    if x in Z:
        raise IndexClashError("Z must not contain x")
    if len(set(Z)) != len(Z):
        raise IndexClashError("duplicate indices in Z")
    if not 0 < level < space.diam_bound:
        raise LambdaOutOfRangeError(f"lambda {level} outside (0, {space.diam_bound})")
    (denom, e, bound), (step,) = lift(space.grid, [level])
    keep = sorted({x, *Z})
    profile = [step if w == x else max(step, e[x][w]) for w in keep]
    out = append_points(space.labels, e, keep, [profile], [[0]], ["y"], denom, bound)
    return require_metric(out, "level companion invalid"), len(keep)
