"""Exact computations behind the Banach-space counterexamples.

Four independent pieces share this module:

* rational points on the unit sphere and the exact pairing identity that
  makes the sphere's weak and distance-weak uniformities equivalent;
* rational step functions on the strip [0,2]x[0,1], one type (a function
  z(t1) on [0,1] is a StepFn2D with y-breaks (0, 1) and the value 0 on
  [1,2]). Every operation on several of them goes through one alignment,
  `aligned`, which computes the common grid once and reads each
  function's values on its cells in row-major order; every p-th power
  integral is one helper over those cells, exact for integer p and the
  module's one float path otherwise. p-norms are exact base^exponent
  values in one canonical form, whose base is no perfect power (found by
  integer roots, not factoring), so the decisive comparison 2^((p-1)/p)
  vs 2^(1/p) is exact exponent arithmetic; a norm with no such form is
  refused, never approximated;
* the disjoint-support identity for p-th power integrals, on one
  alignment of x and its parts;
* piecewise-linear radial profiles, the machinery behind the
  sphere/ball landmark-collision examples. `radial_profile_check` reports
  exact slope-based flags (1-Lipschitz, nondecreasing, convex, h(0),
  dominates the identity, Katetov-radial) in its `counts` and a
  convexity witness in its `result`; `profiles_agree_on` passes or fails
  with the leftmost knot where two profiles differ as its witness.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Sequence

from .errors import (
    LengthMismatchError,
    NotOnSphereError,
    OverlappingSupportsError,
    PreconditionError,
)
from .rationals import RationalLike, as_fraction
from .report import WitnessReport

RationalVector = tuple[Fraction, ...]

FIRST_POWER_CAVEAT = (
    "verified as an identity of p-th power integrals: "
    "sum|x-v|^p = sum_i sum|x-v_i|^p - (n-1) sum|x|^p; substituting the plain "
    "norm (n-1)*||x|| for the p-th power term does not balance in general"
)

# The two comparisons still made in floats, each echoed as "tol" in its
# report: the square-root sides of the Hilbert pairing gap, and the
# non-integer-p power sums of the disjoint-support identity.
HILBERT_TOL = 1e-9
DISJOINT_TOL = 1e-12

# random_step_1d: at most this many pieces, values in (1/q)Z for q <= the bound
STEP_MAX_PIECES = 4
STEP_DENOM_BOUND = 12


def as_vector(values: Sequence[RationalLike]) -> RationalVector:
    vec = tuple(as_fraction(v) for v in values)
    if not vec:
        raise PreconditionError("vectors must be non-empty")
    return vec


def dot(u: RationalVector, v: RationalVector) -> Fraction:
    if len(u) != len(v):
        raise LengthMismatchError(f"dimensions differ: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def norm_sq(u: RationalVector) -> Fraction:
    return dot(u, u)


def stereographic_point(t: Sequence[RationalLike]) -> RationalVector:
    """Rational unit vector from a rational parameter vector: the inverse
    stereographic image ((s-1)/(s+1), 2t/(s+1)) with s = |t|^2."""
    tv = as_vector(t)
    s = norm_sq(tv)
    return (Fraction(s - 1, s + 1),) + tuple(2 * c / (s + 1) for c in tv)


def hilbert_check(
    u: Sequence[RationalLike],
    v: Sequence[RationalLike],
    z: Sequence[RationalLike],
) -> WitnessReport:
    """Exact pairing-gap identity on the rational unit sphere.

    For unit vectors,  |<u,z> - <v,z>|  equals  |  |u-z|^2 - |v-z|^2 | / 2
    exactly (verified in rationals). The two-sided comparison with the
    distance gap d_z = | |u-z| - |v-z| | involves square roots, so
    rho_z <= 2 d_z and d_z^2 <= 2 rho_z are checked in floats with slack
    HILBERT_TOL.
    """
    uu, vv, zz = as_vector(u), as_vector(v), as_vector(z)
    if not len(uu) == len(vv) == len(zz):
        raise LengthMismatchError("u, v, z must share one dimension")
    for name, w in (("u", uu), ("v", vv), ("z", zz)):
        sq = norm_sq(w)
        if sq != 1:
            raise NotOnSphereError(f"{name} has squared norm {sq}, not 1", squared_norm=sq)

    rho = abs(dot(uu, zz) - dot(vv, zz))
    uz_sq = norm_sq(tuple(a - b for a, b in zip(uu, zz)))
    vz_sq = norm_sq(tuple(a - b for a, b in zip(vv, zz)))
    half_gap = abs(uz_sq - vz_sq) / 2
    identity_exact = rho == half_gap

    d_z = abs(math.sqrt(uz_sq) - math.sqrt(vz_sq))
    upper_ok = float(rho) <= 2 * d_z + HILBERT_TOL
    lower_ok = d_z * d_z <= float(2 * rho) + HILBERT_TOL

    ok = identity_exact and upper_ok and lower_ok
    return WitnessReport(
        check="hilbert-pairing-gap",
        params={"dim": len(uu), "tol": HILBERT_TOL},
        verdict="pass" if ok else "fail",
        witness=None
        if ok
        else {
            "identity_exact": identity_exact,
            "rho": rho,
            "half_squared_gap": half_gap,
            "d_z_float": d_z,
        },
        counts={"rho": rho, "half_squared_gap": half_gap},
    )


# -- exact p-norm values ------------------------------------------------------


def _iroot(a: int, k: int) -> int:
    """floor(a ** (1/k)) for a >= 0, by Newton's method on integers."""
    if a < 2:
        return a
    x = 1 << -(-a.bit_length() // k)  # above the root
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _largest_exponent(a: int) -> int:
    """The largest k with a positive integer a a perfect k-th power; 0 for
    a = 1, which is a k-th power for every k.

    With a = b**k and b not itself a perfect power, a is a p-th power for a
    prime p exactly when p divides k. So only primes p < bit length are
    tried, smallest first, and each exact root found replaces a, with p
    multiplied into k, before the same p is tried again."""
    if a == 1:
        return 0
    k, p = 1, 2
    while p < a.bit_length():
        root = _iroot(a, p)
        if root**p == a:
            a, k = root, k * p
        else:
            p = next(q for q in count(p + 1) if all(q % f for f in range(2, math.isqrt(q) + 1)))
    return k


def _primitive_power(q: Fraction) -> tuple[Fraction, int]:
    """Write q > 0 as base**k with base not itself a perfect power.

    In lowest terms a/b is a k-th power exactly when a and b both are, so
    k is the gcd of their largest exponents and base the quotient of the
    integer k-th roots; nothing is factored."""
    a, b = q.numerator, q.denominator
    k = math.gcd(_largest_exponent(a), _largest_exponent(b)) or 1
    return Fraction(_iroot(a, k), _iroot(b, k)), k


@dataclass(frozen=True)
class PNormValue:
    """A norm value, exactly base**exponent.

    Values are canonical: rationals are (q, 1); irrational powers have a
    primitive base > 1 and a non-integral exponent, so structural equality
    is value equality.
    """

    base: Fraction
    exponent: Fraction

    @classmethod
    def from_rational(cls, q: RationalLike) -> "PNormValue":
        q = as_fraction(q)
        if q < 0:
            raise PreconditionError("norm values are non-negative")
        return cls(q, Fraction(1))

    @classmethod
    def exact(cls, base: RationalLike, exponent: RationalLike) -> "PNormValue":
        base, exponent = as_fraction(base), as_fraction(exponent)
        if base < 0:
            raise PreconditionError("exact power values need a non-negative base")
        if base == 0:
            if exponent <= 0:
                raise PreconditionError("0**e needs e > 0")
            return cls.from_rational(0)
        if base == 1 or exponent == 0:
            return cls.from_rational(1)
        if base < 1:
            base, exponent = 1 / base, -exponent
        prim, k = _primitive_power(base)
        exponent = exponent * k
        if exponent.denominator == 1:
            return cls.from_rational(prim ** int(exponent))
        return cls(prim, exponent)

    def describe(self) -> str:
        if self.exponent == 1:
            return str(self.base)
        return f"{self.base}^({self.exponent})"


# -- rational step functions --------------------------------------------------


def _check_breaks(breaks: tuple[Fraction, ...], lo: Fraction, hi: Fraction, what: str):
    if len(breaks) < 2 or breaks[0] != lo or breaks[-1] != hi:
        raise PreconditionError(f"{what} must run from {lo} to {hi}")
    if any(a >= b for a, b in zip(breaks, breaks[1:])):
        raise PreconditionError(f"{what} must be strictly increasing")


@dataclass(frozen=True)
class StepFn2D:
    """Rational step function on [0,2]x[0,1]: values[i][j] on the cell
    [x_breaks[i], x_breaks[i+1]) x [y_breaks[j], y_breaks[j+1])."""

    x_breaks: tuple[Fraction, ...]
    y_breaks: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "x_breaks", tuple(as_fraction(b) for b in self.x_breaks))
        object.__setattr__(self, "y_breaks", tuple(as_fraction(b) for b in self.y_breaks))
        object.__setattr__(
            self, "values", tuple(tuple(as_fraction(v) for v in row) for row in self.values)
        )
        _check_breaks(self.x_breaks, Fraction(0), Fraction(2), "x breaks")
        _check_breaks(self.y_breaks, Fraction(0), Fraction(1), "y breaks")
        if len(self.values) != len(self.x_breaks) - 1 or any(
            len(row) != len(self.y_breaks) - 1 for row in self.values
        ):
            raise LengthMismatchError("value grid does not match the break lists")


def aligned(fns: Sequence[StepFn2D]):
    """The common grid of fns, computed once: (x breaks, y breaks, cell
    areas, values), the areas in row-major order (x outer, y inner) and
    values[k] the k-th function's value on each of those cells."""
    xs = tuple(sorted(set().union(*(f.x_breaks for f in fns))))
    ys = tuple(sorted(set().union(*(f.y_breaks for f in fns))))
    dys = [b - a for a, b in zip(ys, ys[1:])]
    areas = [(b - a) * dy for a, b in zip(xs, xs[1:]) for dy in dys]
    values = []
    for f in fns:
        cols = [bisect_right(f.y_breaks, y) - 1 for y in ys[:-1]]
        rows = [f.values[bisect_right(f.x_breaks, x) - 1] for x in xs[:-1]]
        values.append([row[j] for row in rows for j in cols])
    return xs, ys, areas, values


def combine2d(f: StepFn2D, g: StepFn2D, op: Callable[[Fraction, Fraction], Fraction]) -> StepFn2D:
    xs, ys, _, (fv, gv) = aligned([f, g])
    vals = [op(a, b) for a, b in zip(fv, gv)]
    ny = len(ys) - 1
    return StepFn2D(xs, ys, tuple(tuple(vals[k : k + ny]) for k in range(0, len(vals), ny)))


def sub2d(f: StepFn2D, g: StepFn2D) -> StepFn2D:
    return combine2d(f, g, lambda a, b: a - b)


def _power_integral(areas: Sequence[Fraction], values: Sequence[Fraction], p: Fraction):
    """The integral of |f|^p over aligned cells, summed in their order: an
    exact Fraction for integer p, otherwise a float (the module's one float
    integral, compared under DISJOINT_TOL)."""
    if p.denominator == 1:
        e = int(p)
        return sum((a * abs(v) ** e for a, v in zip(areas, values)), Fraction(0))
    pf = float(p)
    return sum(float(a) * abs(float(v)) ** pf for a, v in zip(areas, values))


def lp_norm(f: StepFn2D, p: RationalLike) -> PNormValue:
    """The exact p-norm of a step function on the strip, as base^exponent.

    If every nonzero cell shares one absolute value c (c = 0 for the zero
    function), the norm is c * mu^(1/p) with mu the covered area, which for
    p = m/n in lowest terms is the one rational power (c^m * mu^n)^(1/m).
    Otherwise, for integer p, the power sum S is exact and the norm is
    S^(1/p). Any other norm is refused with PreconditionError.
    """
    p = as_fraction(p)
    if p < 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    _, _, areas, (vals,) = aligned([f])
    cells = [(area, abs(v)) for area, v in zip(areas, vals) if v != 0]
    distinct = {v for _, v in cells}
    if len(distinct) <= 1:
        c = max(distinct, default=0)
        mu = sum((area for area, _ in cells), Fraction(0))
        return PNormValue.exact(c**p.numerator * mu**p.denominator, Fraction(1, p.numerator))
    if p.denominator == 1:
        return PNormValue.exact(_power_integral(areas, vals, p), 1 / p)
    raise PreconditionError(f"the {p}-norm of this function is not a single rational power")


def lp_pairing(x: StepFn2D, z: StepFn2D) -> Fraction:
    """Exact integral of x * z over the strip. For a first-coordinate
    function z (zero on the right half, as random_step_1d draws) this is
    the integral of x(t1,t2) * z(t1) over [0,1]x[0,1]."""
    _, _, areas, (xv, zv) = aligned([x, z])
    return sum((a * s * t for a, s, t in zip(areas, xv, zv) if s and t), Fraction(0))


# -- the decisive separation computation --------------------------------------


def mean_zero_square() -> StepFn2D:
    """+1/-1 on the two horizontal halves of the left unit square, zero on
    the right slab: unit p-norm for every p, zero pairing with every
    first-coordinate step function."""
    return StepFn2D(
        (Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(0), Fraction(1, 2), Fraction(1)),
        ((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(0))),
    )


def right_slab_indicator() -> StepFn2D:
    return StepFn2D(
        (Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(0), Fraction(1)),
        ((Fraction(0),), (Fraction(1),)),
    )


def left_square_indicator() -> StepFn2D:
    return StepFn2D(
        (Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(0), Fraction(1)),
        ((Fraction(1),), (Fraction(0),)),
    )


def random_step_1d(rng: random.Random) -> StepFn2D:
    """A random step function z(t1) of the first coordinate on [0,1], held
    on the strip with y-breaks (0, 1) and the value 0 on [1,2]."""
    pieces = rng.randint(1, STEP_MAX_PIECES)
    q = rng.randint(1, STEP_DENOM_BOUND)
    cuts = sorted(rng.sample(range(1, 4 * q), k=pieces - 1)) if pieces > 1 else []
    breaks = [Fraction(0)] + [Fraction(c, 4 * q) for c in cuts] + [Fraction(1), Fraction(2)]
    values = [Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(pieces)] + [Fraction(0)]
    return StepFn2D(tuple(breaks), (Fraction(0), Fraction(1)), tuple((v,) for v in values))


def lp_counterexample(p: RationalLike, n_pairings: int = 100, seed: int = 42) -> WitnessReport:
    """Two unit vectors that every first-coordinate pairing confuses but
    whose distances to the left unit square indicator differ for p != 2.

    The two distances are exactly 2^((p-1)/p) and 2^(1/p); the verdict is
    pass ("separated") iff the exponents differ, i.e. iff p != 2, decided
    by exact rational comparison. Pairings against n_pairings seeded
    random step functions are checked to vanish exactly for both vectors.
    """
    p = as_fraction(p)
    w = mean_zero_square()
    w_slab = right_slab_indicator()
    v = left_square_indicator()

    norm_mean_zero = lp_norm(sub2d(w, v), p)
    norm_slab = lp_norm(sub2d(w_slab, v), p)
    separated = norm_mean_zero != norm_slab

    rng = random.Random(seed)
    bad_pairing = None
    for i in range(n_pairings):
        z = random_step_1d(rng)
        pw, ps = lp_pairing(w, z), lp_pairing(w_slab, z)
        if pw != 0 or ps != 0:
            bad_pairing = {"trial": i, "pairing_mean_zero": pw, "pairing_slab": ps}
            break

    ok = separated and bad_pairing is None
    witness: dict | None = {
        "exponent_mean_zero": norm_mean_zero.exponent,
        "exponent_slab": norm_slab.exponent,
        "base": norm_mean_zero.base,
    }
    caveat = None
    if bad_pairing is not None:
        witness = bad_pairing
    elif not separated:
        witness = {"note": "exponents coincide: (p-1)/p = 1/p exactly", "p": p}
        caveat = "p = 2 is the inner-product case; the two distances agree there"
    return WitnessReport(
        check="lp-separation",
        params={"p": p, "pairings": n_pairings, "seed": seed},
        verdict="pass" if ok else "fail",
        witness=witness,
        counts={
            "norm_mean_zero": norm_mean_zero.describe(),
            "norm_slab": norm_slab.describe(),
            "pairings_zero": n_pairings if bad_pairing is None else bad_pairing["trial"],
        },
        caveat=caveat,
    )


def disjoint_support_identity(x: StepFn2D, parts: Sequence[StepFn2D], p: RationalLike) -> WitnessReport:
    """For parts with pairwise disjoint supports and v their sum,
    integral |x - v|^p = sum_i integral |x - v_i|^p - (n-1) integral |x|^p.

    Exact rational equality for integer p; float comparison within the
    relative slack DISJOINT_TOL otherwise. Disjointness is checked cell by cell on the common grid.
    """
    p = as_fraction(p)
    if p < 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    n = len(parts)
    if n == 0:
        raise PreconditionError("need at least one part")
    _, ys, areas, (xv, *part_vals) = aligned([x, *parts])
    for c, cell in enumerate(zip(*part_vals)):
        holders = [k for k, a in enumerate(cell) if a != 0]
        if len(holders) > 1:
            i, j = divmod(c, len(ys) - 1)
            raise OverlappingSupportsError(
                f"parts {holders[0]} and {holders[1]} overlap on cell ({i},{j})"
            )
    v = [sum(cell, Fraction(0)) for cell in zip(*part_vals)]

    def integral(values: Sequence[Fraction]):
        return _power_integral(areas, values, p)

    def gap(values: Sequence[Fraction]):
        return integral([a - b for a, b in zip(xv, values)])

    lhs = gap(v)
    rhs = sum(gap(f) for f in part_vals) - (n - 1) * integral(xv)
    exact = p.denominator == 1
    ok = lhs == rhs if exact else abs(lhs - rhs) <= DISJOINT_TOL * max(1.0, abs(lhs), abs(rhs))
    return WitnessReport(
        check="disjoint-support-identity",
        params={"p": p, "tol": DISJOINT_TOL},
        verdict="pass" if ok else "fail",
        witness=None if ok else {"lhs": lhs, "rhs": rhs},
        counts={"lhs": lhs, "rhs": rhs, "parts": n, "exact": exact},
        caveat=FIRST_POWER_CAVEAT,
    )


# -- piecewise-linear radial profiles -----------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Continuous piecewise-linear function on [0, inf): values at
    breakpoints (starting at 0), linear in between, explicit tail slope."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    tail_slope: Fraction

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(as_fraction(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        object.__setattr__(self, "tail_slope", as_fraction(self.tail_slope))
        if not self.breakpoints or self.breakpoints[0] != 0:
            raise PreconditionError("breakpoints must start at 0")
        if any(a >= b for a, b in zip(self.breakpoints, self.breakpoints[1:])):
            raise PreconditionError("breakpoints must be strictly increasing")
        if len(self.values) != len(self.breakpoints):
            raise LengthMismatchError("need one value per breakpoint")

    def eval(self, r: RationalLike) -> Fraction:
        r = as_fraction(r)
        if r < 0:
            raise PreconditionError("radial profiles live on r >= 0")
        bps = self.breakpoints
        if r >= bps[-1]:
            return self.values[-1] + self.tail_slope * (r - bps[-1])
        i = bisect_right(bps, r) - 1
        left, right = bps[i], bps[i + 1]
        frac = (r - left) / (right - left)
        return self.values[i] + frac * (self.values[i + 1] - self.values[i])

    def segment_slopes(self) -> list[Fraction]:
        return [
            (v2 - v1) / (b2 - b1)
            for b1, b2, v1, v2 in zip(
                self.breakpoints, self.breakpoints[1:], self.values, self.values[1:]
            )
        ]


def radial_profile_check(h: RadialProfile, horizon: RationalLike) -> WitnessReport:
    """Exact slope-and-breakpoint analysis of a profile on [0, horizon].

    The "profile-check" report always passes: it echoes the horizon in
    `params` and carries six flags in `counts`, namely lipschitz1,
    nondecreasing, convex, value_at_0 (h(0)), dominates_identity and
    katetov_radial. convex means the slope sequence (tail included when
    the horizon extends past the last breakpoint) is nondecreasing. When
    it is not, `result["convexity_witness"]` is a symmetric midpoint
    triple (r-s, r, r+s) around the first slope drop together with the
    gap h(r) - (h(r-s)+h(r+s))/2 > 0; `result` is None for a convex
    profile. katetov_radial = lipschitz1 and dominates_identity: exactly
    the conditions under which h(|.|) is a one-point extension profile of
    any sample of a normed space.
    """
    horizon = as_fraction(horizon)
    bps = h.breakpoints
    if horizon < bps[-1]:
        raise PreconditionError(f"horizon {horizon} below the last breakpoint {bps[-1]}")
    knots = list(bps)
    slopes = h.segment_slopes()
    if horizon > bps[-1]:
        knots.append(horizon)
        slopes.append(h.tail_slope)

    lipschitz1 = all(abs(s) <= 1 for s in slopes)
    nondecreasing = all(s >= 0 for s in slopes)

    witness = None
    for i in range(len(slopes) - 1):
        if slopes[i + 1] < slopes[i]:
            b = knots[i + 1]
            left_len = knots[i + 1] - knots[i]
            right_len = knots[i + 2] - knots[i + 1]
            step = min(left_len, right_len) / 2
            gap = h.eval(b) - (h.eval(b - step) + h.eval(b + step)) / 2
            witness = (b - step, b, b + step, gap)
            break

    dominates = all(h.eval(r) >= r for r in knots)
    return WitnessReport(
        check="profile-check",
        params={"horizon": horizon},
        verdict="pass",
        counts={
            "lipschitz1": lipschitz1,
            "nondecreasing": nondecreasing,
            "convex": witness is None,
            "value_at_0": h.values[0],
            "dominates_identity": dominates,
            "katetov_radial": lipschitz1 and dominates,
        },
        result=None if witness is None else {"convexity_witness": witness},
    )


def convex_by_midpoint_scan(h: RadialProfile, horizon: RationalLike) -> bool:
    """Independent convexity cross-check: midpoint inequality over the
    lattice of knots and knot midpoints within the horizon."""
    horizon = as_fraction(horizon)
    pts = sorted(set(b for b in h.breakpoints if b <= horizon) | {horizon})
    lattice = sorted(set(pts) | {(a + b) / 2 for a in pts for b in pts})
    for i, r1 in enumerate(lattice):
        for r3 in lattice[i + 1 :]:
            r2 = (r1 + r3) / 2
            if h.eval(r2) > (h.eval(r1) + h.eval(r3)) / 2:
                return False
    return True


def profiles_agree_on(
    h1: RadialProfile, h2: RadialProfile, lo: RationalLike, hi: RationalLike
) -> WitnessReport:
    """Exact piecewise-linear equality on [lo, hi], as a "profile-agree"
    report with params lo and hi. It passes when the profiles agree;
    otherwise it fails with the witness {"r", "left", "right"}: the
    leftmost knot (breakpoint or interval endpoint) where the values
    differ, and h1(r) and h2(r) there.

    Two piecewise-linear functions equal at every knot of the merged
    breakpoint list are equal on the whole interval, so the knot scan is
    a complete decision procedure.
    """
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo < 0 or lo > hi:
        raise PreconditionError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    knots = {lo, hi}
    for h in (h1, h2):
        knots.update(b for b in h.breakpoints if lo < b < hi)
    witness = None
    for r in sorted(knots):
        a, b = h1.eval(r), h2.eval(r)
        if a != b:
            witness = {"r": r, "left": a, "right": b}
            break
    return WitnessReport(
        check="profile-agree",
        params={"lo": lo, "hi": hi},
        verdict="pass" if witness is None else "fail",
        witness=witness,
    )


# -- the profile gallery -------------------------------------------------------


def profile_flat_then_identity() -> RadialProfile:
    """max(1, r): constant 1 out to radius 1, then the identity."""
    return RadialProfile((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)), Fraction(1))


def profile_vee() -> RadialProfile:
    """1 - r down to radius 1/2, then r back up."""
    return RadialProfile(
        (Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)), Fraction(1)
    )


def profile_affine_plus_one() -> RadialProfile:
    """1 + r."""
    return RadialProfile((Fraction(0),), (Fraction(1),), Fraction(1))


def profile_affine_capped_at_two() -> RadialProfile:
    """1 + r until radius 1, flat at 2 until radius 2, then the identity;
    fails convexity with a gap of exactly 1/4 at the triple (1/2, 1, 3/2)."""
    return RadialProfile(
        (Fraction(0), Fraction(1), Fraction(2)),
        (Fraction(1), Fraction(2), Fraction(2)),
        Fraction(1),
    )


def profile_half_slope_then_offset() -> RadialProfile:
    """max(1 + r/2, r + 1/2): half slope to radius 1, unit slope after."""
    return RadialProfile((Fraction(0), Fraction(1)), (Fraction(1), Fraction(3, 2)), Fraction(1))


def profile_half_slope_then_identity() -> RadialProfile:
    """max(1 + r/2, r): half slope to radius 2, then the identity."""
    return RadialProfile((Fraction(0), Fraction(2)), (Fraction(1), Fraction(2)), Fraction(1))


BUILTIN_PROFILES: dict[str, Callable[[], RadialProfile]] = {
    "flat-then-identity": profile_flat_then_identity,
    "vee": profile_vee,
    "affine-plus-one": profile_affine_plus_one,
    "affine-capped-at-two": profile_affine_capped_at_two,
    "half-slope-then-offset": profile_half_slope_then_offset,
    "half-slope-then-identity": profile_half_slope_then_identity,
}
