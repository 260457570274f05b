"""Exact computations behind the Banach-space counterexamples.

Four independent pieces share this module:

* rational points on the unit sphere and the exact pairing identity that
  makes the sphere's weak and distance-weak uniformities equivalent;
* rational step functions on [0,2]x[0,1] and [0,1], with p-norms carried
  in exact base^exponent form (the decisive comparison 2^((p-1)/p) vs
  2^(1/p) is settled by exact exponent arithmetic, no floats); a norm
  with no such form is refused, never approximated;
* the disjoint-support identity for p-th power integrals;
* piecewise-linear radial profiles with exact slope-based flags
  (1-Lipschitz, nondecreasing, convex, dominates the identity), the
  machinery behind the sphere/ball landmark-collision examples.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
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


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _primitive_power(q: Fraction) -> tuple[Fraction, int]:
    """Write q > 1 as base**k with base not itself a perfect power."""
    exps = {p: e for p, e in _factor(q.numerator).items()}
    for p, e in _factor(q.denominator).items():
        exps[p] = exps.get(p, 0) - e
    g = 0
    for e in exps.values():
        g = math.gcd(g, abs(e))
    if g == 0:
        return Fraction(1), 1
    base = Fraction(1)
    for p, e in exps.items():
        base *= Fraction(p) ** (e // g)
    return base, g


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

    def same_value(self, other: "PNormValue") -> bool:
        return self == other

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
class StepFn1D:
    """Rational step function on [0,1]: values[i] on [breaks[i], breaks[i+1])."""

    breaks: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "breaks", tuple(as_fraction(b) for b in self.breaks))
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        _check_breaks(self.breaks, Fraction(0), Fraction(1), "1d breaks")
        if len(self.values) != len(self.breaks) - 1:
            raise LengthMismatchError("need one value per cell")

    def cell_of(self, t: Fraction) -> int:
        return min(bisect_right(self.breaks, t) - 1, len(self.values) - 1)


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

    def refined(self, x_breaks: Sequence[Fraction], y_breaks: Sequence[Fraction]) -> "StepFn2D":
        """Re-express on a finer grid (which must contain this one)."""
        xs, ys = tuple(x_breaks), tuple(y_breaks)
        vals = []
        for i in range(len(xs) - 1):
            oi = bisect_right(self.x_breaks, xs[i]) - 1
            row = []
            for j in range(len(ys) - 1):
                oj = bisect_right(self.y_breaks, ys[j]) - 1
                row.append(self.values[oi][oj])
            vals.append(tuple(row))
        return StepFn2D(xs, ys, tuple(vals))

    def cells(self):
        for i in range(len(self.x_breaks) - 1):
            dx = self.x_breaks[i + 1] - self.x_breaks[i]
            for j in range(len(self.y_breaks) - 1):
                dy = self.y_breaks[j + 1] - self.y_breaks[j]
                yield dx * dy, self.values[i][j]


def common_grid(fns: Sequence[StepFn2D]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    xs = sorted(set().union(*[f.x_breaks for f in fns]))
    ys = sorted(set().union(*[f.y_breaks for f in fns]))
    return tuple(xs), tuple(ys)


def combine2d(f: StepFn2D, g: StepFn2D, op: Callable[[Fraction, Fraction], Fraction]) -> StepFn2D:
    xs, ys = common_grid([f, g])
    rf, rg = f.refined(xs, ys), g.refined(xs, ys)
    vals = tuple(
        tuple(op(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(rf.values, rg.values)
    )
    return StepFn2D(xs, ys, vals)


def sub2d(f: StepFn2D, g: StepFn2D) -> StepFn2D:
    return combine2d(f, g, lambda a, b: a - b)


def add2d(f: StepFn2D, g: StepFn2D) -> StepFn2D:
    return combine2d(f, g, lambda a, b: a + b)


def power_sum(f: StepFn2D, p: int) -> Fraction:
    """Exact integral of |f|^p for integer p >= 1."""
    return sum((area * abs(v) ** p for area, v in f.cells()), Fraction(0))


def power_sum_float(f: StepFn2D, p: float) -> float:
    return sum(float(area) * abs(float(v)) ** p for area, v in f.cells())


def lp_norm(f: StepFn2D, p: RationalLike) -> PNormValue:
    """The exact p-norm of a step function on the strip.

    If every nonzero cell shares one absolute value c the norm is
    c * mu^(1/p) (mu the covered area), expressed over a common primitive
    base; for integer p the full power sum S is exact and the norm is
    S^(1/p). Any other norm is not a single rational power, and asking for
    it raises PreconditionError.
    """
    p = as_fraction(p)
    if p < 1:
        raise PreconditionError(f"p must be >= 1, got {p}")
    cells = [(area, abs(v)) for area, v in f.cells() if v != 0]
    if not cells:
        return PNormValue.from_rational(0)

    distinct = {v for _, v in cells}
    mu = sum((area for area, _ in cells), Fraction(0))
    if len(distinct) == 1:
        c = next(iter(distinct))
        if mu == 1:
            return PNormValue.from_rational(c)
        if c == 1:
            return PNormValue.exact(mu, 1 / p)
        cb, ck = _primitive_power(c if c > 1 else 1 / c)
        mb, mk = _primitive_power(mu if mu > 1 else 1 / mu)
        if cb == mb:
            ce = ck if c > 1 else -ck
            me = mk if mu > 1 else -mk
            return PNormValue.exact(cb, ce + Fraction(me) / p)
        # fall through to the integral path

    if p.denominator == 1:
        s = sum((area * v ** int(p) for area, v in cells), Fraction(0))
        if p == 1:
            return PNormValue.from_rational(s)
        return PNormValue.exact(s, 1 / p)
    raise PreconditionError(f"the {p}-norm of this function is not a single rational power")


def lp_pairing(x: StepFn2D, z: StepFn1D) -> Fraction:
    """Exact integral of x(t1,t2) * z(t1) over [0,1]x[0,1] (z extended by
    zero to the right half of the strip)."""
    one = Fraction(1)
    xs = sorted(set(x.x_breaks) | set(z.breaks) | {one})
    total = Fraction(0)
    for u, v in zip(xs, xs[1:]):
        if u >= one:
            break
        xi = bisect_right(x.x_breaks, u) - 1
        zi = z.cell_of(u)
        y_integral = sum(
            (
                (x.y_breaks[j + 1] - x.y_breaks[j]) * x.values[xi][j]
                for j in range(len(x.y_breaks) - 1)
            ),
            Fraction(0),
        )
        total += (v - u) * z.values[zi] * y_integral
    return total


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


def random_step_1d(rng: random.Random, max_pieces: int = 4, denom_bound: int = 12) -> StepFn1D:
    pieces = rng.randint(1, max_pieces)
    q = rng.randint(1, denom_bound)
    cuts = sorted(rng.sample(range(1, 4 * q), k=pieces - 1)) if pieces > 1 else []
    breaks = [Fraction(0)] + [Fraction(c, 4 * q) for c in cuts] + [Fraction(1)]
    values = [Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(pieces)]
    return StepFn1D(tuple(breaks), tuple(values))


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
    separated = not norm_mean_zero.same_value(norm_slab)

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
    xs, ys = common_grid([x, *parts])
    rx = x.refined(xs, ys)
    rparts = [f.refined(xs, ys) for f in parts]
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            holders = [k for k, f in enumerate(rparts) if f.values[i][j] != 0]
            if len(holders) > 1:
                raise OverlappingSupportsError(
                    f"parts {holders[0]} and {holders[1]} overlap on cell ({i},{j})"
                )
    v_vals = tuple(
        tuple(sum((f.values[i][j] for f in rparts), Fraction(0)) for j in range(len(ys) - 1))
        for i in range(len(xs) - 1)
    )
    v = StepFn2D(xs, ys, v_vals)

    if p.denominator == 1:
        pe = int(p)
        lhs = power_sum(sub2d(rx, v), pe)
        rhs = sum((power_sum(sub2d(rx, f), pe) for f in rparts), Fraction(0)) - (
            n - 1
        ) * power_sum(rx, pe)
        ok = lhs == rhs
        witness = None if ok else {"lhs": lhs, "rhs": rhs}
        counts = {"lhs": lhs, "rhs": rhs, "parts": n, "exact": True}
    else:
        pf = float(p)
        lhs_f = power_sum_float(sub2d(rx, v), pf)
        rhs_f = sum(power_sum_float(sub2d(rx, f), pf) for f in rparts) - (
            n - 1
        ) * power_sum_float(rx, pf)
        ok = abs(lhs_f - rhs_f) <= DISJOINT_TOL * max(1.0, abs(lhs_f), abs(rhs_f))
        witness = None if ok else {"lhs": lhs_f, "rhs": rhs_f}
        counts = {"lhs": lhs_f, "rhs": rhs_f, "parts": n, "exact": False}
    return WitnessReport(
        check="disjoint-support-identity",
        params={"p": p, "tol": DISJOINT_TOL},
        verdict="pass" if ok else "fail",
        witness=witness,
        counts=counts,
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


@dataclass(frozen=True)
class ProfileCheck:
    lipschitz1: bool
    nondecreasing: bool
    convex: bool
    value_at_0: Fraction
    dominates_identity: bool
    katetov_radial: bool
    convexity_witness: tuple[Fraction, Fraction, Fraction, Fraction] | None = None

    def flags(self) -> dict:
        return {
            "lipschitz1": self.lipschitz1,
            "nondecreasing": self.nondecreasing,
            "convex": self.convex,
            "value_at_0": self.value_at_0,
            "dominates_identity": self.dominates_identity,
            "katetov_radial": self.katetov_radial,
        }


def radial_profile_check(h: RadialProfile, horizon: RationalLike) -> ProfileCheck:
    """Exact slope-and-breakpoint analysis of a profile on [0, horizon].

    convex means the slope sequence (tail included when the horizon
    extends past the last breakpoint) is nondecreasing; on a failure the
    witness is a symmetric midpoint triple (r-s, r, r+s) around the first
    slope drop together with the gap h(r) - (h(r-s)+h(r+s))/2 > 0.
    katetov_radial = lipschitz1 and dominates_identity: exactly the
    conditions under which h(|.|) is a one-point extension profile of any
    sample of a normed space.
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

    convex = True
    witness = None
    for i in range(len(slopes) - 1):
        if slopes[i + 1] < slopes[i]:
            convex = False
            b = knots[i + 1]
            left_len = knots[i + 1] - knots[i]
            right_len = knots[i + 2] - knots[i + 1]
            step = min(left_len, right_len) / 2
            gap = h.eval(b) - (h.eval(b - step) + h.eval(b + step)) / 2
            witness = (b - step, b, b + step, gap)
            break

    dominates = all(h.eval(r) >= r for r in knots)
    return ProfileCheck(
        lipschitz1=lipschitz1,
        nondecreasing=nondecreasing,
        convex=convex,
        value_at_0=h.values[0],
        dominates_identity=dominates,
        katetov_radial=lipschitz1 and dominates,
        convexity_witness=witness,
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


@dataclass(frozen=True)
class AgreementVerdict:
    agree: bool
    witness_r: Fraction | None = None
    left: Fraction | None = None
    right: Fraction | None = None

    def __bool__(self) -> bool:
        return self.agree


def profiles_agree_on(
    h1: RadialProfile, h2: RadialProfile, lo: RationalLike, hi: RationalLike
) -> AgreementVerdict:
    """Exact piecewise-linear equality on [lo, hi]; the witness is the
    leftmost knot (breakpoint or interval endpoint) where values differ.

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
    for r in sorted(knots):
        a, b = h1.eval(r), h2.eval(r)
        if a != b:
            return AgreementVerdict(False, r, a, b)
    return AgreementVerdict(True)


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
