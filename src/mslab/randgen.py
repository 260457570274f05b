"""Seeded random instances for the property batteries.

Everything here is a pure function of the supplied random.Random, so a
fixed seed reproduces every battery bit for bit.

Random metric spaces and random Katetov vectors are grown coordinate by
coordinate, each value drawn uniformly from the feasible interval of
`metric.katetov_interval` (the one the exhaustive enumeration walks), so
the growth never backtracks and every denominator divides the chosen grid.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .metric import MetricSpace, katetov_interval, scale_space
from .urysohn import MARequest

Rng = random.Random


def _grow_scaled_matrix(rng: Rng, n: int, bound_scaled: int) -> list[list[int]]:
    rows: list[list[int]] = [[0]]
    for _ in range(1, n):
        profile = _feasible_profile(rng, rows, bound_scaled, positive=True)
        for i, v in enumerate(profile):
            rows[i].append(v)
        rows.append(profile + [0])
    return rows


def _feasible_profile(
    rng: Rng, rows: Sequence[Sequence[int]], bound_scaled: int, positive: bool
) -> list[int]:
    """A random grid Katetov vector over the matrix `rows` (the distances
    of one new point), drawn with one rng.randint per coordinate over its
    feasible interval; `positive` keeps every value at least 1."""
    floor = 1 if positive else 0
    profile: list[int] = []
    for _ in range(len(rows)):
        lo, hi = katetov_interval(rows, profile, bound_scaled, floor)
        profile.append(rng.randint(lo, hi))
    return profile


def random_metric_space(
    rng: Rng,
    min_points: int = 2,
    max_points: int = 8,
    max_denom: int = 24,
    min_diam_steps: int = 2,
) -> MetricSpace:
    """A random valid space: grid denominator <= max_denom, diameter bound
    between min_diam_steps grid steps and 2."""
    q = rng.randint(1, max_denom)
    bound_scaled = rng.randint(max(min_diam_steps, 2), 2 * q)
    n = rng.randint(min_points, max_points)
    rows = _grow_scaled_matrix(rng, n, bound_scaled)
    return MetricSpace.from_grid([f"p{i}" for i in range(n)], rows, q, bound_scaled)


def random_katetov_values(
    rng: Rng, space: MetricSpace, denom: int, allow_zero: bool = True
) -> tuple[Fraction, ...]:
    """A random Katetov vector over the space on the 1/denom grid, nowhere
    zero unless allow_zero."""
    d_scaled, bound_scaled = scale_space(space, denom)
    return tuple(Fraction(v, denom) for v in _feasible_profile(rng, d_scaled, bound_scaled, not allow_zero))


def random_ma_request(rng: Rng, max_points: int = 8, max_denom: int = 24) -> MARequest:
    """A random precondition-satisfying almost-matching request.

    delta is drawn from the grid points strictly above the largest
    landmark gap (condition a), at most the smallest two-leg sum
    (condition b) and strictly below the diameter bound; the space is
    resampled until that window is non-empty.
    """
    while True:
        space = random_metric_space(rng, min_points=2, max_points=max_points, max_denom=max_denom)
        n = space.n_points
        q, d, bound = space.grid
        x = rng.randrange(n)
        y = rng.randrange(n)
        others = [i for i in range(n) if i not in (x, y)]
        rng.shuffle(others)
        F = tuple(sorted(others[: rng.randint(0, len(others))]))
        # the points of the space's grid 1/q in that window
        lo = max((abs(d[x][z] - d[y][z]) for z in F), default=0) + 1
        hi = min([d[x][z] + d[y][z] for z in F] + [bound - 1])
        if lo <= hi:
            return MARequest(space, F, x, y, Fraction(rng.randint(lo, hi), q))


def random_sphere_point(rng: Rng, dim: int) -> tuple[Fraction, ...]:
    """Exact rational unit vector via stereographic projection of a random
    rational parameter vector."""
    from .banach import stereographic_point

    while True:
        t = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim - 1)
        )
        if any(t):
            return stereographic_point(t)


def random_disjoint_parts(rng: Rng, n_parts: int, denom_bound: int = 8):
    """n_parts step functions on [0,2]x[0,1] with pairwise disjoint
    supports, plus one unconstrained step function, on one random grid."""
    from .banach import StepFn2D

    q = rng.randint(1, denom_bound)
    xs = sorted(rng.sample(range(1, 8), k=rng.randint(1, 3)))
    ys = sorted(rng.sample(range(1, 8), k=rng.randint(1, 3)))
    x_breaks = [Fraction(0)] + [Fraction(c, 4) for c in xs] + [Fraction(2)]
    y_breaks = [Fraction(0)] + [Fraction(c, 8) for c in ys] + [Fraction(1)]
    n_x, n_y = len(x_breaks) - 1, len(y_breaks) - 1
    cells = [(i, j) for i in range(n_x) for j in range(n_y)]
    owner = {cell: rng.randrange(n_parts + 1) for cell in cells}  # n_parts = unassigned

    def build(which: int | None) -> StepFn2D:
        vals = []
        for i in range(n_x):
            row = []
            for j in range(n_y):
                if which is not None and owner[(i, j)] != which:
                    row.append(Fraction(0))
                else:
                    row.append(Fraction(rng.randint(-2 * q, 2 * q), q))
            vals.append(tuple(row))
        return StepFn2D(tuple(x_breaks), tuple(y_breaks), tuple(vals))

    x_fn = build(None)
    parts = [build(k) for k in range(n_parts)]
    return x_fn, parts
