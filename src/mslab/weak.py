"""Landmark seminorms: finite approximants of the distance-weak uniformity.

A finite landmark set F induces the pseudometric
rho_F(x, y) = max over z in F of |d(x,z) - d(y,z)|, the finite-scale
stand-in for the uniformity generated by all distance functions to
points. Proximity tests and greedy landmark nets below are one-sided
evidence only: a pass at one (F, eps) scale never certifies proximity in
the full uniformity, which quantifies over all finite landmark sets and
all positive eps.

Every operation takes the landmark set, which carries its space, and
returns plain values: `weak_seminorm` the rho_F matrix itself (exact
Fractions, symmetric, zero on the diagonal, triangle-valid and dominated
by d entrywise) and `gromov_net_indices` a list of point indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import EmptySubsetError, IndexClashError, PreconditionError
from .metric import KatetovFn, MetricSpace, check_points, grid_fractions, lift
from .rationals import RationalLike, as_fraction
from .report import WitnessReport

PROXIMITY_CAVEAT = (
    "one-sided evidence: a pass at this (F, eps) certifies only non-separation "
    "at this scale; proximity proper quantifies over all finite landmark sets "
    "and all eps > 0"
)


@dataclass(frozen=True)
class LandmarkSet:
    space: MetricSpace
    F: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "F", tuple(int(i) for i in self.F))
        if not self.F:
            raise EmptySubsetError("landmark set must be non-empty")
        if len(set(self.F)) != len(self.F):
            raise IndexClashError("duplicate landmark indices")
        check_points(self.space.n_points, self.F, "landmark")


def _gap(rows, a: int, b: int, F: Sequence[int]) -> int:
    """The landmark gap of points a and b on a grid with these scaled rows."""
    return max(abs(rows[a][z] - rows[b][z]) for z in F)


def weak_seminorm(landmarks: LandmarkSet) -> tuple[tuple[Fraction, ...], ...]:
    """The landmark pseudometric matrix rho_F over the landmarks' space."""
    denom, rows, _ = landmarks.space.grid
    n = len(rows)
    gaps = [[0 if i == j else _gap(rows, i, j, landmarks.F) for j in range(n)] for i in range(n)]
    return grid_fractions(gaps, denom)


def proximity_test(
    A: Sequence[int], B: Sequence[int], landmarks: LandmarkSet, eps: RationalLike
) -> WitnessReport:
    """Do the index sets come eps-close in every landmark coordinate?

    Passes iff some pair (a, b) has |d(a,z) - d(b,z)| < eps for every
    landmark z (strict, matching the quantifier it approximates); the
    witness pair is reported on a pass, first in lexicographic order.
    """
    eps = as_fraction(eps)
    if not A or not B:
        raise EmptySubsetError("A and B must be non-empty")
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    space = landmarks.space
    A = check_points(space.n_points, sorted(set(A)))
    B = check_points(space.n_points, sorted(set(B)))
    (_, rows, _), (e,) = lift(space.grid, [eps])
    close = None
    for checked, (a, b) in enumerate(product(A, B), 1):
        if _gap(rows, a, b, landmarks.F) < e:
            close = {"a": a, "b": b}
            break
    return WitnessReport(
        check="proximity",
        params={"eps": eps, "landmarks": list(landmarks.F)},
        verdict="fail" if close is None else "pass",
        witness=close or {"note": "no pair within eps in all landmark coordinates"},
        counts={"pairs_checked": checked},
        caveat=PROXIMITY_CAVEAT,
    )


def gromov_net_indices(landmarks: LandmarkSet, eps: RationalLike) -> list[int]:
    """Greedy (index-ordered) maximal eps-separated set of the landmarks'
    space under the landmark seminorm; every point lies within eps of some
    representative."""
    space = landmarks.space
    eps = as_fraction(eps)
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    (_, rows, _), (e,) = lift(space.grid, [eps])
    reps: list[int] = []
    for z in range(space.n_points):
        if all(_gap(rows, z, r, landmarks.F) >= e for r in reps):
            reps.append(z)
    return reps


def restrict_katetov(fn: KatetovFn, subset: Sequence[int]) -> KatetovFn:
    """Restriction to a subspace; Katetov-ness is inherited and the sup
    distance between any two functions can only shrink."""
    idx = sorted(set(int(i) for i in subset))
    if not idx:
        raise EmptySubsetError("cannot restrict to the empty subset")
    sub = fn.space.restrict(check_points(fn.space.n_points, idx, "subset"))
    return KatetovFn(sub, tuple(fn.values[i] for i in idx))
