"""Finite Urysohn-sphere approximants and explicit one-point extensions.

The Approximant grows a finite rational metric space until every grid
Katetov function over every small subset of the previous generation is
realized by an actual point (the finite-scale one-point extension
property). Distances are kept internally as integers on a common 1/denom
grid, in one square numpy matrix whose dtype is the smallest that holds the
scaled diameter bound (uint8 for the default grids, `object` holding Python
ints past uint64, so huge denominators stay exact). A saturation round
writes each new point's row and column in place into spare capacity that
doubles when full and never exceeds the round's point budget. Readers take
values out as Python ints, one `tolist` or fancy index per call; a
MetricSpace view is made on demand from those ints (`from_grid`).

The explicit extension operations (ma_extension, uwmt_extension,
prop53_extension, nonproper_witness, injectivity_chain) each build a small
one- or k-point metric extension from a prescribed distance recipe and
re-validate the result; they certify recipes, they never repair them. The
MA, UWMT, Prop 5.3 and level-companion recipes run on the integer grid of
their input space: they read its scaled rows, refine the grid only when a
prescribed value (delta, lambda, or the eps of Prop 5.3) falls off it
(`metric.lift`, or q = lcm(denom, eps denominator) for Prop 5.3), append
their points with `metric.append_points`, and check the result with the
integer scan `validate_scaled`.

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

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
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
    PreconditionAError,
    PreconditionBError,
    PreconditionError,
    UnsaturatedError,
)
from .metric import (
    Grid, MetricSpace, _grid_profiles, append_points, cap_metric, check_points, fresh_label, katetov_completion, lift,
    require_metric, scale_space,
)
from .rationals import RationalLike, as_fraction
from .report import WitnessReport

DEFAULT_BUDGET = 5000


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
    """A growing finite metric space on the 1/denom grid.

    `matrix` is the symmetric n x n distance matrix scaled by `denom`, a
    numpy array of dtype `np.min_scalar_type(bound_scaled)`: every entry
    lies in [0, bound_scaled], so the dtype holds it, and it is `object`
    (Python ints) once the bound passes uint64. After a saturation round it
    is a view into a buffer of at most the round's `budget` points.
    `round_sizes` records the point count after each completed saturation
    round (entry 0 is the seed size), so older generations are index
    prefixes. Equality is identity: compare `matrix.tolist()` for values.
    """

    labels: list[str]
    matrix: np.ndarray
    denom: int
    bound_scaled: int
    subset_bound: int
    rounds: int = 0
    round_sizes: list[int] = field(default_factory=list)
    log: list[RealizationRecord] = field(default_factory=list)

    @classmethod
    def from_space(cls, space: MetricSpace, denom: int, subset_bound: int) -> "Approximant":
        rows, bound_scaled = scale_space(space, denom)
        return cls.from_grid(space.labels, rows, denom, bound_scaled, subset_bound)

    @classmethod
    def from_grid(
        cls,
        labels: Sequence[str],
        rows: Sequence[Sequence[int]],
        denom: int,
        bound_scaled: int,
        subset_bound: int,
    ) -> "Approximant":
        """A round-0 approximant from a square matrix of distances already
        scaled by `denom`; each must lie in [0, bound_scaled]."""
        if subset_bound < 1:
            raise PreconditionError(f"subset bound must be >= 1, got {subset_bound}")
        n = len(labels)
        # int64 holds every in-range value below 2**63; past that, Python ints
        try:
            m = np.array(rows, dtype=np.int64 if bound_scaled < 2**63 else object).reshape(n, n)
        except OverflowError:
            m = None
        if m is None or (n and not (m.min() >= 0 and m.max() <= bound_scaled)):
            raise PreconditionError(f"seed distances must lie in [0, {Fraction(bound_scaled, denom)}]")
        return cls(
            labels=list(labels),
            matrix=m.astype(np.min_scalar_type(bound_scaled)),
            denom=denom,
            bound_scaled=bound_scaled,
            subset_bound=subset_bound,
            round_sizes=[n],
        )

    @property
    def n_points(self) -> int:
        return self.matrix.shape[0]

    @property
    def diam_bound(self) -> Fraction:
        return Fraction(self.bound_scaled, self.denom)

    def dist(self, i: int, j: int) -> Fraction:
        check_points(self.n_points, (i, j))
        return Fraction(self.matrix.item(i, j), self.denom)

    def snapshot(self, round_index: int) -> range:
        """Point indices present after the given completed round."""
        if not 0 <= round_index < len(self.round_sizes):
            raise PreconditionError(f"round {round_index} outside 0..{len(self.round_sizes) - 1}")
        return range(self.round_sizes[round_index])

    def as_metric_space(self) -> MetricSpace:
        return MetricSpace.from_grid(self.labels, self.matrix.tolist(), self.denom, self.bound_scaled)

    def restrict_space(self, indices: Sequence[int]) -> MetricSpace:
        idx = check_points(self.n_points, indices)
        sub = self.matrix.take(idx, 0).take(idx, 1).tolist()
        return MetricSpace.from_grid([self.labels[i] for i in idx], sub, self.denom, self.bound_scaled)

    def copy(self) -> "Approximant":
        return replace(
            self,
            labels=list(self.labels),
            matrix=self.matrix.copy(),
            round_sizes=list(self.round_sizes),
            log=list(self.log),
        )


def _subsets_lex(points: Sequence[int], max_size: int):
    """All non-empty subsets of the given points up to max_size, as sorted
    tuples in plain lexicographic order."""
    pts = sorted(points)
    subs: list[tuple[int, ...]] = []
    for size in range(1, max_size + 1):
        subs.extend(itertools.combinations(pts, size))
    subs.sort()
    return subs


class _Realizations:
    """The realization lookup: per anchor point, scaled value -> the set of
    points at that distance from it, as a Python-int bitmask (bit p is
    point p). A profile over a subset of the anchors is realized by the
    points in every mask of its values."""

    def __init__(self, anchors: Sequence[int], rows: np.ndarray, factor: int = 1):
        # rows[i] holds the distances from anchors[i] to every point, on a
        # grid `factor` times coarser than the values looked up
        self._by_anchor: dict[int, dict[int, int]] = {}
        for s, row in zip(anchors, rows):
            self._by_anchor[s] = {
                v * factor: int.from_bytes(np.packbits(row == v, bitorder="little").tobytes(), "little")
                for v in np.unique(row).tolist()
            }

    def add(self, point: int, values: Sequence[int]):
        """Index a new point by its distances to the anchors, in anchor order."""
        bit = 1 << point
        for per, v in zip(self._by_anchor.values(), values):
            per[v] = per.get(v, 0) | bit

    def realized(self, subset: Sequence[int], values: Sequence[int]) -> int | None:
        """The least point at the given distances from the subset, or None."""
        mask = -1
        for s, v in zip(subset, values):
            mask &= self._by_anchor[s].get(v, 0)
            if not mask:
                return None
        return (mask & -mask).bit_length() - 1


def _profile_walk(among: Sequence[Sequence[int]], points: Sequence[int], max_size: int, bound: int):
    """(subset, its grid Katetov profiles) for every non-empty subset of at
    most max_size of the sorted points, in lexicographic order; among[i][j]
    is the scaled distance between points[i] and points[j]."""
    pos = {s: i for i, s in enumerate(points)}
    for subset in _subsets_lex(points, max_size):
        rows = [among[pos[i]] for i in subset]
        yield subset, _grid_profiles([[row[pos[j]] for j in subset] for row in rows], bound)


def fraisse_step(a: Approximant, budget: int = DEFAULT_BUDGET) -> Approximant:
    """One saturation round.

    Every grid Katetov function over every subset (size <= subset_bound)
    of the step-start point set that is not yet realized exactly gets a
    realizing point, integrated by the one-point free-amalgam formula
    g(w) = min(bound, min over s in S of xi(s) + d(s, w)). Records are
    processed in lexicographic (subset, profile) order, so the output is
    reproducible bit for bit.
    """
    out = a.copy()
    n0 = n = out.n_points
    buf = out.matrix
    bound = out.bound_scaled
    label_set = set(out.labels)
    lookup = _Realizations(range(n0), buf)

    round_no = out.rounds + 1
    # distances among step-start points never change
    for subset, profiles in _profile_walk(buf.tolist(), range(n0), out.subset_bound, bound):
        for values in profiles:
            if lookup.realized(subset, values) is not None:
                continue
            if n + 1 > budget:
                raise BudgetExceededError(
                    f"saturation would exceed the {budget}-point budget at round {round_no}"
                )
            if n == buf.shape[0]:
                cap = min(2 * n, budget)
                grown = np.zeros((cap, cap), dtype=buf.dtype)
                grown[:n, :n] = buf
                buf = grown
            # the vectorized form of metric.katetov_completion over every
            # point; min(bound, v + d) as v + min(d, bound - v) is never
            # above bound, so the sum cannot wrap in a narrow dtype
            v = np.array(values, dtype=buf.dtype)[:, None]
            profile = (np.minimum(buf[list(subset), :n], bound - v) + v).min(axis=0)
            buf[n, :n] = profile
            buf[:n, n] = profile
            out.labels.append(fresh_label(f"x{n}", label_set))
            lookup.add(n, profile[:n0].tolist())
            out.log.append(RealizationRecord(round_no, subset, tuple(values), n))
            n += 1

    out.matrix = buf[:n, :n]
    out.rounds = round_no
    out.round_sizes.append(n)
    return out


def finite_injectivity_check(
    a: Approximant, over: Sequence[int], k: int, denom: int
) -> WitnessReport:
    """Is every 1/denom-grid Katetov function over every <=k subset of the
    snapshot realized exactly by some current point?

    The fail witness is the first unrealized (subset, profile) pair in
    lexicographic order.
    """
    if k < 0 or denom < 1:
        raise PreconditionError(f"need k >= 0 and denom >= 1, got k={k}, denom={denom}")
    if denom % a.denom != 0:
        raise DenominatorMismatchError(
            f"check denominator {denom} not divisible by the approximant's {a.denom}"
        )
    factor = denom // a.denom
    over = check_points(a.n_points, sorted(set(over)), "snapshot")
    rows = a.matrix.take(over, 0)
    lookup = _Realizations(over, rows, factor)
    among = [[v * factor for v in row] for row in rows.take(over, 1).tolist()]

    n_subsets = n_functions = 0
    witness = None
    for subset, profiles in _profile_walk(among, over, k, a.bound_scaled * factor):
        n_subsets += 1
        for values in profiles:
            n_functions += 1
            if lookup.realized(subset, values) is None:
                witness = {"subset": list(subset), "values": [Fraction(v, denom) for v in values]}
                break
        if witness is not None:
            break
    return WitnessReport(
        check="finite-injectivity",
        params={"k": k, "denom": denom, "snapshot_size": len(over)},
        verdict="pass" if witness is None else "fail",
        witness=witness,
        counts={"subsets": n_subsets, "functions": n_functions, "points": a.n_points},
    )


# -- explicit one-point extensions ------------------------------------------


@dataclass(frozen=True)
class MARequest:
    """Inputs for the almost-matching one-point extension: move y to a new
    point y' at prescribed distance delta from x while keeping its
    distances to the finite set F."""

    space: MetricSpace
    F: tuple[int, ...]
    x: int
    y: int
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(int(i) for i in self.F))
        object.__setattr__(self, "delta", as_fraction(self.delta))


def ma_extension(req: MARequest) -> tuple[MetricSpace, int]:
    """Realize the prescribed point y': d(y', x) = delta and
    d(y', z) = d(y, z) for z in F, over the restriction to F and x.

    Preconditions (checked, with the violating landmark carried):
      (a)  |d(x,z) - d(y,z)| < delta  for all z in F
      (b)  delta <= d(x,z) + d(y,z)   for all z in F
    plus 0 < delta < diam_bound.
    """
    space, F, x, y, delta = req.space, req.F, req.x, req.y, req.delta
    check_points(space.n_points, [x, y, *F])
    if x in F or y in F:
        raise IndexClashError("x and y must not belong to F")
    if len(set(F)) != len(F):
        raise IndexClashError("duplicate indices in F")
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    if delta >= space.diam_bound:
        raise DiameterExceededError(f"delta {delta} not below the diameter bound {space.diam_bound}")
    denom, e, bound, (step,) = lift(space, [delta])
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
    with every pair at distance <= eps."""

    space: Approximant
    pairs: tuple[tuple[int, int], ...]
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))
        object.__setattr__(self, "eps", as_fraction(self.eps))

    @classmethod
    def create(
        cls, space: Approximant, pairs: Sequence[tuple[int, int]], eps: RationalLike
    ) -> "BFState":
        st = cls(space, tuple(pairs), eps)
        if st.eps <= 0:
            raise PreconditionError(f"eps must be positive, got {st.eps}")
        dom = [p for p, _ in st.pairs]
        if len(set(dom)) != len(dom):
            raise IndexClashError("duplicate domain indices in pairs")
        ends = check_points(space.n_points, [p for pair in st.pairs for p in pair])
        rows = space.matrix.take(ends, 0).tolist()
        dom_rows, img_rows = rows[::2], rows[1::2]
        num, den = st.eps.numerator, st.eps.denominator
        for i, (a, b) in enumerate(st.pairs):
            if dom_rows[i][b] * den > num * space.denom:
                raise PreconditionError(f"pair {i} is {space.dist(a, b)} apart, above eps {st.eps}")
            for j in range(i + 1, len(st.pairs)):
                c, d2 = st.pairs[j]
                if dom_rows[i][c] != img_rows[i][d2]:
                    raise PreconditionError(f"pairs {i} and {j} break the isometry condition")
        return st

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.pairs)

    @property
    def image(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.pairs)


def _prop53_profile(st: BFState, z: int) -> tuple[list[int], Grid, list[int], int]:
    """Prescribed distances for the transported point z'.

    Returns (kept original indices, their grid, the profile of z' over them,
    t0 = d(z', z)), all integers on the 1/q grid with q the lcm of the
    approximant's denom and eps's denominator: its grid, refined just enough
    to hold eps. The profile is the Katetov completion (`katetov_completion`)
    of the recipe: exact a_i = d(z, x_i) at the images y_i,
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
    q = lcm(ap.denom, st.eps.denominator)
    f = q // ap.denom
    bound = ap.bound_scaled * f
    keep = sorted(set(st.domain) | set(st.image) | {z})
    pos = {w: i for i, w in enumerate(keep)}
    d = ap.matrix.take(keep, 0).take(keep, 1).tolist()
    if f > 1:  # Python ints: a numpy product could overflow int64
        d = [[v * f for v in row] for row in d]
    zp = pos[z]
    xs = [pos[xi] for xi in st.domain]
    ys = [pos[yi] for yi in st.image]
    a = [d[zp][xp] for xp in xs]
    # the completion of the a_i over the y_i at z itself, capped at eps
    t0 = min(st.eps.numerator * (q // st.eps.denominator), katetov_completion(d, ys, a, bound, [zp])[0])
    c = [min(bound, ai + d[xp][yp]) for ai, xp, yp in zip(a, xs, ys)]
    profile = katetov_completion(d, [*ys, *xs, zp], [*a, *c, t0], bound, range(len(keep)))
    return keep, Grid(q, d, bound), profile, t0


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
    hit = _Realizations(keep, ap.matrix.take(keep, 0)).realized(keep, [v // f for v in profile])
    if hit is None:
        raise UnsaturatedError("no existing point realizes the transported profile")
    return BFState.create(ap, st.pairs + ((z, hit),), st.eps)


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
    q = lcm(r.denominator, s.denominator)
    r, s = r.numerator * (q // r.denominator), s.numerator * (q // s.denominator)
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
    denom, e, bound, (step,) = lift(space, [level])
    keep = sorted({x, *Z})
    profile = [step if w == x else max(step, e[x][w]) for w in keep]
    out = append_points(space.labels, e, keep, [profile], [[0]], ["y"], denom, bound)
    return require_metric(out, "level companion invalid"), len(keep)
