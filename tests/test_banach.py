"""banach-examples: sphere identity, step-function norms, profiles."""

import math
import operator
import random
import time
from bisect import bisect_right
from fractions import Fraction

import pytest

from mslab import MetricSpace, is_katetov
from mslab.banach import (
    BUILTIN_PROFILES,
    FIRST_POWER_CAVEAT,
    PNormValue,
    RadialProfile,
    StepFn2D,
    _iroot,
    _largest_exponent,
    _power_integral,
    _primitive_power,
    aligned,
    combine2d,
    convex_by_midpoint_scan,
    disjoint_support_identity,
    hilbert_check,
    left_square_indicator,
    lp_counterexample,
    lp_norm,
    lp_pairing,
    mean_zero_square,
    profile_affine_capped_at_two,
    profile_flat_then_identity,
    profile_half_slope_then_identity,
    profile_half_slope_then_offset,
    profile_vee,
    profiles_agree_on,
    radial_profile_check,
    random_step_1d,
    right_slab_indicator,
    stereographic_point,
    sub2d,
)
from mslab.errors import (
    LengthMismatchError,
    NotOnSphereError,
    OverlappingSupportsError,
    PreconditionError,
)
from mslab.randgen import random_disjoint_parts, random_sphere_point
from mslab.report import WitnessReport, report_json

F = Fraction


# -- sphere identity -------------------------------------------------------------


def test_stereographic_points_are_unit():
    rng = random.Random(1)
    for _ in range(200):
        dim = rng.randint(2, 6)
        p = random_sphere_point(rng, dim)
        assert sum(c * c for c in p) == 1


def test_hilbert_equality_case():
    rep = hilbert_check([1, 0], [0, 1], [1, 0])
    assert rep.verdict == "pass"
    assert rep.counts["rho"] == 1
    assert rep.counts["half_squared_gap"] == 1


def test_hilbert_same_point_degenerate():
    u = (F(3, 5), F(4, 5))
    rep = hilbert_check(u, u, (1, 0))
    assert rep.verdict == "pass" and rep.counts["rho"] == 0


def test_hilbert_spec_three_fifths_example():
    rep = hilbert_check((F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)), (1, 0))
    assert rep.verdict == "pass"
    assert rep.counts["rho"] == F(1, 5)


def test_hilbert_rejects_off_sphere():
    with pytest.raises(NotOnSphereError) as err:
        hilbert_check([1, 1], [1, 0], [0, 1])
    assert err.value.squared_norm == 2


def test_hilbert_rejects_dimension_mismatch():
    with pytest.raises(LengthMismatchError):
        hilbert_check([1, 0], [1, 0, 0], [0, 1])


# -- PNormValue ------------------------------------------------------------------


def test_pnorm_canonicalizes_perfect_powers():
    assert PNormValue.exact(4, F(1, 2)) == PNormValue.from_rational(2)
    assert PNormValue.exact(8, F(1, 3)) == PNormValue.from_rational(2)
    assert PNormValue.exact(F(1, 2), F(1, 3)) == PNormValue.exact(2, F(-1, 3))


def test_pnorm_same_base_compares_by_exponent():
    a = PNormValue.exact(2, F(2, 3))
    b = PNormValue.exact(2, F(1, 3))
    assert a != b
    assert a == PNormValue.exact(4, F(1, 3))


def test_pnorm_rational_never_equals_irrational_power():
    assert PNormValue.exact(2, F(1, 2)) != PNormValue.from_rational(F(3, 2))


# The normal form as it was first computed, by trial-division factoring; the
# integer-root `_primitive_power` must agree with it everywhere.


def factor_by_trial_division(n: int) -> dict[int, int]:
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


def primitive_power_by_factoring(q: F) -> tuple[F, int]:
    exps = dict(factor_by_trial_division(q.numerator))
    for p, e in factor_by_trial_division(q.denominator).items():
        exps[p] = exps.get(p, 0) - e
    g = 0
    for e in exps.values():
        g = math.gcd(g, abs(e))
    if g == 0:
        return F(1), 1
    base = F(1)
    for p, e in exps.items():
        base *= F(p) ** (e // g)
    return base, g


def random_rational(rng: random.Random) -> F:
    """A positive rational, a perfect power of a small rational in about
    half the draws."""
    if rng.random() < 0.5:
        return F(rng.randint(1, 10**6), rng.randint(1, 10**6))
    root = F(rng.randint(1, 40), rng.randint(1, 40))
    return root ** rng.randint(1, 12)


def test_primitive_power_matches_factoring():
    rng = random.Random(13)
    for _ in range(10_000):
        q = random_rational(rng)
        assert _primitive_power(q) == primitive_power_by_factoring(q), q


@pytest.mark.parametrize("q", [F(1), F(2), F(4), F(1, 4), F(8, 27), F(72), F(2**60), F(6**12, 5**18), F(10**12 + 39)])
def test_primitive_power_edge_cases(q):
    assert _primitive_power(q) == primitive_power_by_factoring(q)


def largest_exponent_by_every_k(a: int) -> int:
    """`_largest_exponent` as it was first written: one integer k-th root
    for every k below the bit length, largest first."""
    if a == 1:
        return 0
    for k in range(a.bit_length() - 1, 1, -1):
        if _iroot(a, k) ** k == a:
            return k
    return 1


@pytest.mark.parametrize("k", [1, 2, 12, 30])
def test_largest_exponent_matches_the_every_k_scan(k):
    for a in range(1, 61):
        assert _largest_exponent(a**k) == largest_exponent_by_every_k(a**k), (a, k)


@pytest.mark.parametrize(
    "a", [2**6 * 3**4, 2**6 * 3**4 * 5**2, (2**6 * 3**4) ** 5, 2**12 * 3**18, 6**35, 2**64 * 5**96, 10**18 + 3, 2**61 - 1]
)
def test_largest_exponent_of_products_matches_the_every_k_scan(a):
    assert _largest_exponent(a) == largest_exponent_by_every_k(a)


def test_norm_at_p_just_above_one_is_one_rational_power():
    # 5/7 on [0,3/2]x[0,1] at p = 1001/1000: the base (5/7)^1001 (3/2)^1000
    # has 3910 bits, where one root per k below the bit length took seconds
    q = F(5, 7) ** 1001 * F(3, 2) ** 1000
    base, k = _primitive_power(q)
    assert base**k == q
    f = StepFn2D((0, F(3, 2), 2), (0, 1), ((F(5, 7),), (0,)))
    assert lp_norm(f, F(1001, 1000)) == PNormValue(q, F(1, 1001))
    assert _primitive_power(F(6, 5) ** 462) == (F(6, 5), 462) == primitive_power_by_factoring(F(6, 5) ** 462)


def test_pnorm_of_a_large_prime_needs_no_factoring():
    start = time.perf_counter()
    value = PNormValue.exact(10**18 + 3, F(1, 2))
    assert time.perf_counter() - start < 0.1
    assert value == PNormValue(F(10**18 + 3), F(1, 2))


# -- step functions and norms -----------------------------------------------------


def test_unit_norm_for_every_p():
    w = mean_zero_square()
    for p in (1, 2, 3, F(3, 2), F(7, 3), 5):
        assert lp_norm(w, p) == PNormValue.from_rational(1)


def test_zero_function_norm():
    zero = StepFn2D((0, 2), (0, 1), ((F(0),),))
    for p in (1, F(3, 2), 3):
        assert lp_norm(zero, p) == PNormValue.from_rational(0)


def test_norm_gap_exponents():
    w, v = mean_zero_square(), left_square_indicator()
    for p in (F(1), F(3, 2), F(2), F(3), F(5)):
        assert lp_norm(sub2d(w, v), p) == PNormValue.exact(2, (p - 1) / p)


def test_integer_p_mixed_values_exact_fractional_p_refused():
    f = StepFn2D(
        (0, F(1, 2), 2),
        (0, F(1, 3), 1),
        ((F(1, 2), F(3)), (F(0), F(1, 4))),
    )
    # cell areas 1/6, 1/3, 1/2, 1 in row-major order
    cubes = F(1, 6) * F(1, 2) ** 3 + F(1, 3) * 3**3 + F(1, 2) * 0 + 1 * F(1, 4) ** 3
    _, _, areas, (vals,) = aligned([f])
    assert _power_integral(areas, vals, F(3)) == cubes
    assert lp_norm(f, 3) == PNormValue.exact(cubes, F(1, 3))
    with pytest.raises(PreconditionError, match="not a single rational power"):
        lp_norm(f, F(3, 2))


def test_single_value_norm_that_is_one_rational_power():
    # 2 on [0,3/2]x[0,1]: the norm is 2 * (3/2)^(1/p); the first form
    # refused both as "not a single rational power"
    f = StepFn2D((0, F(3, 2), 2), (0, 1), ((2,), (0,)))
    assert lp_norm(f, F(3, 2)) == PNormValue(F(18), F(1, 3))
    assert lp_norm(f, F(5, 2)) == PNormValue(F(72), F(1, 5))


def reference_exact(base: F, exponent: F) -> PNormValue:
    """PNormValue.exact over the factoring normal form, for a base > 0."""
    if base == 1 or exponent == 0:
        return PNormValue.from_rational(1)
    if base < 1:
        base, exponent = 1 / base, -exponent
    prim, k = primitive_power_by_factoring(base)
    exponent = exponent * k
    if exponent.denominator == 1:
        return PNormValue.from_rational(prim ** int(exponent))
    return PNormValue(prim, exponent)


def reference_lp_norm(f: StepFn2D, p: F) -> PNormValue:
    """lp_norm in its first form: three single-value cases, then the
    integer-p power sum, else a refusal."""
    _, _, areas, (vals,) = aligned([f])
    cells = [(area, abs(v)) for area, v in zip(areas, vals) if v != 0]
    if not cells:
        return PNormValue.from_rational(0)
    distinct = {v for _, v in cells}
    mu = sum((area for area, _ in cells), F(0))
    if len(distinct) == 1:
        c = next(iter(distinct))
        if mu == 1:
            return PNormValue.from_rational(c)
        if c == 1:
            return reference_exact(mu, 1 / p)
        cb, ck = primitive_power_by_factoring(c if c > 1 else 1 / c)
        mb, mk = primitive_power_by_factoring(mu if mu > 1 else 1 / mu)
        if cb == mb:
            ce = ck if c > 1 else -ck
            me = mk if mu > 1 else -mk
            return reference_exact(cb, ce + F(me) / p)
    if p.denominator == 1:
        s = _power_integral(areas, vals, p)
        if p == 1:
            return PNormValue.from_rational(s)
        return reference_exact(s, 1 / p)
    raise PreconditionError(f"the {p}-norm of this function is not a single rational power")


def random_breaks(rng: random.Random, hi: int) -> tuple[F, ...]:
    q = rng.randint(1, 6)
    cuts = rng.sample(range(1, hi * q), k=rng.randint(0, min(3, hi * q - 1)))
    return (F(0), *sorted(F(c, q) for c in cuts), F(hi))


def random_single_valued(rng: random.Random) -> tuple[StepFn2D, F, F]:
    """A step function whose nonzero cells all have absolute value c, with
    c and the covered area mu."""
    xs, ys = random_breaks(rng, 2), random_breaks(rng, 1)
    c = F(rng.randint(1, 12), rng.randint(1, 12))
    values = [[rng.choice((0, c, -c)) for _ in ys[1:]] for _ in xs[1:]]
    values[rng.randrange(len(values))][rng.randrange(len(ys) - 1)] = c
    mu = sum(
        (b - a) * (t - s) for (a, b), row in zip(zip(xs, xs[1:]), values) for (s, t), v in zip(zip(ys, ys[1:]), row) if v
    )
    return StepFn2D(xs, ys, values), c, mu


def test_single_value_norms_match_the_closed_form_and_the_first_form():
    rng = random.Random(29)
    refused = 0
    for _ in range(500):
        f, c, mu = random_single_valued(rng)
        for p in (F(1), F(4, 3), F(3, 2), F(2), F(5, 2), F(3), F(5)):
            norm = lp_norm(f, p)
            m, n = p.numerator, p.denominator
            # norm^m == c^m * mu^n, exactly
            power = norm.exponent * m
            assert power.denominator == 1 and norm.base ** int(power) == c**m * mu**n
            try:
                assert norm == reference_lp_norm(f, p)
            except PreconditionError:
                refused += 1
    assert refused > 0  # the draws include norms the first form refused


def test_lp_norm_rejects_small_p():
    with pytest.raises(PreconditionError):
        lp_norm(mean_zero_square(), F(1, 2))


def test_pairing_mean_zero_vanishes_for_any_z():
    rng = random.Random(3)
    w, slab = mean_zero_square(), right_slab_indicator()
    for _ in range(50):
        z = random_step_1d(rng)
        assert lp_pairing(w, z) == 0
        assert lp_pairing(slab, z) == 0


def test_pairing_indicator_against_one():
    # z = 1 on [0,1], held on the strip as a first-coordinate function
    one = StepFn2D((0, 1, 2), (0, 1), ((F(1),), (F(0),)))
    assert lp_pairing(left_square_indicator(), one) == 1
    assert lp_pairing(right_slab_indicator(), one) == 0


def test_pairing_is_bilinear():
    rng = random.Random(5)
    for _ in range(30):
        z1, z2 = random_step_1d(rng), random_step_1d(rng)
        a = F(rng.randint(-6, 6), rng.randint(1, 6))
        f, g = mean_zero_square(), left_square_indicator()
        fg = combine2d(f, g, operator.add)
        za = StepFn2D(z1.x_breaks, z1.y_breaks, tuple(tuple(a * v for v in row) for row in z1.values))
        assert lp_pairing(fg, z1) == lp_pairing(f, z1) + lp_pairing(g, z1)
        assert lp_pairing(g, za) == a * lp_pairing(g, z1)
        assert lp_pairing(g, z1) + lp_pairing(g, z2) == lp_pairing(g, combine2d(z1, z2, operator.add))


def test_lp_counterexample_p3():
    rep = lp_counterexample(3)
    assert rep.verdict == "pass"
    assert rep.witness["exponent_mean_zero"] == F(2, 3)
    assert rep.witness["exponent_slab"] == F(1, 3)


def test_lp_counterexample_p2_coincides():
    rep = lp_counterexample(2)
    assert rep.verdict == "fail"
    assert rep.counts["pairings_zero"] == 100


def test_lp_counterexample_p_three_halves():
    rep = lp_counterexample(F(3, 2))
    assert rep.verdict == "pass"
    assert rep.witness["exponent_mean_zero"] == F(1, 3)
    assert rep.witness["exponent_slab"] == F(2, 3)


# -- disjoint support identity ------------------------------------------------------


def test_disjoint_single_part_trivial():
    x, parts = random_disjoint_parts(random.Random(7), 1)
    rep = disjoint_support_identity(x, parts, 3)
    assert rep.verdict == "pass"
    assert rep.caveat == FIRST_POWER_CAVEAT


def test_disjoint_zero_x():
    zero = StepFn2D((0, 2), (0, 1), ((F(0),),))
    _, parts = random_disjoint_parts(random.Random(9), 3)
    rep = disjoint_support_identity(zero, parts, 2)
    assert rep.verdict == "pass"


def test_disjoint_random_exact_int_p():
    rng = random.Random(11)
    for _ in range(60):
        x, parts = random_disjoint_parts(rng, rng.randint(1, 3))
        for p in (1, 2, 3):
            assert disjoint_support_identity(x, parts, p).verdict == "pass"


def test_disjoint_float_path():
    rng = random.Random(13)
    x, parts = random_disjoint_parts(rng, 3)
    rep = disjoint_support_identity(x, parts, F(3, 2))
    assert rep.verdict == "pass" and rep.counts["exact"] is False


def test_disjoint_overlap_rejected():
    ind = left_square_indicator()
    with pytest.raises(OverlappingSupportsError):
        disjoint_support_identity(mean_zero_square(), [ind, ind], 2)


# -- the alignment against the refine-based reference --------------------------------
# The step-function arithmetic as it was written before `aligned`: each
# operation refines its operands onto their common grid one at a time, a
# first-coordinate function is a 1-d step function (breaks on [0,1], one
# value per piece), and the pairing merges the two break lists itself.


def _ref_grid(fns):
    xs = sorted(set().union(*[f.x_breaks for f in fns]))
    ys = sorted(set().union(*[f.y_breaks for f in fns]))
    return tuple(xs), tuple(ys)


def _ref_refined(f, xs, ys):
    vals = []
    for i in range(len(xs) - 1):
        oi = bisect_right(f.x_breaks, xs[i]) - 1
        vals.append(tuple(f.values[oi][bisect_right(f.y_breaks, ys[j]) - 1] for j in range(len(ys) - 1)))
    return StepFn2D(xs, ys, tuple(vals))


def _ref_combine2d(f, g, op):
    xs, ys = _ref_grid([f, g])
    rf, rg = _ref_refined(f, xs, ys), _ref_refined(g, xs, ys)
    return StepFn2D(xs, ys, tuple(tuple(op(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(rf.values, rg.values)))


def _ref_cells(f):
    for i in range(len(f.x_breaks) - 1):
        dx = f.x_breaks[i + 1] - f.x_breaks[i]
        for j in range(len(f.y_breaks) - 1):
            yield dx * (f.y_breaks[j + 1] - f.y_breaks[j]), f.values[i][j]


def _ref_power_sum(f, p):
    return sum((area * abs(v) ** p for area, v in _ref_cells(f)), Fraction(0))


def _ref_power_sum_float(f, p):
    return sum(float(area) * abs(float(v)) ** p for area, v in _ref_cells(f))


def _ref_random_step_1d(rng):
    """The 1-d draw: (breaks on [0,1], one value per piece)."""
    pieces = rng.randint(1, 4)
    q = rng.randint(1, 12)
    cuts = sorted(rng.sample(range(1, 4 * q), k=pieces - 1)) if pieces > 1 else []
    breaks = (F(0),) + tuple(F(c, 4 * q) for c in cuts) + (F(1),)
    return breaks, tuple(F(rng.randint(-3 * q, 3 * q), q) for _ in range(pieces))


def _ref_lp_pairing(x, breaks, values):
    """The integral of x(t1,t2) * z(t1) over [0,1]x[0,1], z the 1-d step function."""
    total = Fraction(0)
    cuts = sorted(set(x.x_breaks) | set(breaks))
    for u, v in zip(cuts, cuts[1:]):
        if u >= 1:
            break
        xi = bisect_right(x.x_breaks, u) - 1
        zi = min(bisect_right(breaks, u) - 1, len(values) - 1)
        y_integral = sum(
            ((x.y_breaks[j + 1] - x.y_breaks[j]) * x.values[xi][j] for j in range(len(x.y_breaks) - 1)),
            Fraction(0),
        )
        total += (v - u) * values[zi] * y_integral
    return total


def _ref_disjoint(x, parts, p):
    p = F(p)
    n = len(parts)
    xs, ys = _ref_grid([x, *parts])
    rx = _ref_refined(x, xs, ys)
    rparts = [_ref_refined(f, xs, ys) for f in parts]
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            holders = [k for k, f in enumerate(rparts) if f.values[i][j] != 0]
            if len(holders) > 1:
                raise OverlappingSupportsError(f"parts {holders[0]} and {holders[1]} overlap on cell ({i},{j})")
    v_vals = tuple(
        tuple(sum((f.values[i][j] for f in rparts), Fraction(0)) for j in range(len(ys) - 1))
        for i in range(len(xs) - 1)
    )
    v = StepFn2D(xs, ys, v_vals)

    def sub(f, g):
        return _ref_combine2d(f, g, lambda a, b: a - b)

    if p.denominator == 1:
        pe = int(p)
        lhs = _ref_power_sum(sub(rx, v), pe)
        rhs = sum((_ref_power_sum(sub(rx, f), pe) for f in rparts), Fraction(0)) - (n - 1) * _ref_power_sum(rx, pe)
        ok = lhs == rhs
    else:
        pf = float(p)
        lhs = _ref_power_sum_float(sub(rx, v), pf)
        rhs = sum(_ref_power_sum_float(sub(rx, f), pf) for f in rparts) - (n - 1) * _ref_power_sum_float(rx, pf)
        ok = abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    return WitnessReport(
        check="disjoint-support-identity",
        params={"p": p, "tol": 1e-12},
        verdict="pass" if ok else "fail",
        witness=None if ok else {"lhs": lhs, "rhs": rhs},
        counts={"lhs": lhs, "rhs": rhs, "parts": n, "exact": p.denominator == 1},
        caveat=FIRST_POWER_CAVEAT,
    )


def _first_coordinate(breaks, values) -> StepFn2D:
    return StepFn2D(breaks + (2,), (0, 1), tuple((v,) for v in values) + ((F(0),),))


def test_random_step_1d_folds_the_reference_draws():
    rng, ref = random.Random(31), random.Random(31)
    for _ in range(300):
        assert random_step_1d(rng) == _first_coordinate(*_ref_random_step_1d(ref))
    assert rng.getstate() == ref.getstate()


def test_aligned_reads_each_function_on_the_common_grid():
    rng = random.Random(43)
    for _ in range(200):
        fns = [random_disjoint_parts(rng, 1)[0], random_step_1d(rng), mean_zero_square()]
        xs, ys, areas, values = aligned(fns)
        assert (xs, ys) == _ref_grid(fns)
        for f, vals in zip(fns, values):
            assert list(_ref_cells(_ref_refined(f, xs, ys))) == list(zip(areas, vals))


def test_arithmetic_and_pairing_match_the_reference():
    rng = random.Random(37)
    prev = mean_zero_square()
    for _ in range(200):
        x, parts = random_disjoint_parts(rng, rng.randint(1, 3))
        breaks, values = _ref_random_step_1d(rng)
        z = _first_coordinate(breaks, values)
        for f, g in ((x, prev), (x, z), (z, prev), (parts[0], x)):
            assert sub2d(f, g) == _ref_combine2d(f, g, lambda a, b: a - b)
            assert combine2d(f, g, operator.add) == _ref_combine2d(f, g, lambda a, b: a + b)
            assert combine2d(f, g, max) == _ref_combine2d(f, g, max)
        for w in (x, prev, *parts, mean_zero_square(), right_slab_indicator()):
            assert lp_pairing(w, z) == _ref_lp_pairing(w, breaks, values)
        prev = x


def _outcome(identity, x, parts, p):
    try:
        rep = identity(x, parts, p)
    except OverlappingSupportsError as exc:
        return f"overlap: {exc}"
    lhs, rhs = rep.counts["lhs"], rep.counts["rhs"]
    bits = (lhs.hex(), rhs.hex()) if isinstance(lhs, float) else (lhs, rhs)
    return report_json(rep), bits


def test_disjoint_identity_matches_the_reference():
    """Bit-identical float lhs/rhs at p = 3/2 and 5/2, equal exact reports
    at integer p, and the same overlap message, on instances that share one
    grid, instances whose x lies on another grid, and overlapping ones."""
    rng = random.Random(41)
    prev = mean_zero_square()
    kinds = {"exact": 0, "float": 0, "overlap": 0}
    for t in range(200):
        x, parts = random_disjoint_parts(rng, rng.randint(1, 3))
        if t % 4 == 1:
            x = prev  # a grid the parts do not share
        elif t % 4 == 3:
            parts = [*parts, x]  # x itself joins the parts: an overlap
        for p in (1, 2, 3, F(3, 2), F(5, 2)):
            got = _outcome(disjoint_support_identity, x, parts, p)
            assert got == _outcome(_ref_disjoint, x, parts, p), (t, p)
            kind = "overlap" if isinstance(got, str) else "exact" if F(p).denominator == 1 else "float"
            kinds[kind] += 1
        prev = x
    assert min(kinds.values()) >= 50, kinds


# -- radial profiles -----------------------------------------------------------------


def test_profile_eval_and_tail():
    h = profile_flat_then_identity()
    assert h.eval(0) == 1 and h.eval(F(1, 2)) == 1
    assert h.eval(3) == 3


def test_gallery_flags_match_hand_derivation():
    horizon = F(3)
    expected = {
        "flat-then-identity": (True, True, True, True, True),
        "vee": (True, False, True, True, True),
        "affine-plus-one": (True, True, True, True, True),
        "affine-capped-at-two": (True, True, False, True, True),
        "half-slope-then-offset": (True, True, True, True, True),
        "half-slope-then-identity": (True, True, True, True, True),
    }
    for name, (lip, mono, cvx, dom, kat) in expected.items():
        flags = radial_profile_check(BUILTIN_PROFILES[name](), horizon).counts
        assert flags["lipschitz1"] is lip, name
        assert flags["nondecreasing"] is mono, name
        assert flags["convex"] is cvx, name
        assert flags["dominates_identity"] is dom, name
        assert flags["katetov_radial"] is kat, name
        assert flags["value_at_0"] == 1, name


def test_capped_profile_convexity_witness():
    chk = radial_profile_check(profile_affine_capped_at_two(), 3)
    assert chk.result["convexity_witness"] == (F(1, 2), F(1), F(3, 2), F(1, 4))


def test_midpoint_scan_agrees_with_slope_verdict():
    for name, builder in BUILTIN_PROFILES.items():
        h = builder()
        chk = radial_profile_check(h, 4)
        assert convex_by_midpoint_scan(h, 4) is chk.counts["convex"], name


def test_flags_stable_under_redundant_breakpoint():
    for name, builder in BUILTIN_PROFILES.items():
        h = builder()
        # insert a redundant breakpoint in the middle of the first segment
        if len(h.breakpoints) >= 2:
            mid = (h.breakpoints[0] + h.breakpoints[1]) / 2
            midval = h.eval(mid)
            refined = RadialProfile(
                (h.breakpoints[0], mid) + h.breakpoints[1:],
                (h.values[0], midval) + h.values[1:],
                h.tail_slope,
            )
        else:
            step = F(1)
            refined = RadialProfile(
                h.breakpoints + (h.breakpoints[-1] + step,),
                h.values + (h.eval(h.breakpoints[-1] + step),),
                h.tail_slope,
            )
        a = radial_profile_check(h, 4).counts
        b = radial_profile_check(refined, 4).counts
        assert a == b, name


def test_sphere_pair_agreement_pattern():
    flat, vee = profile_flat_then_identity(), profile_vee()
    assert profiles_agree_on(flat, vee, 1, 1).ok
    verdict = profiles_agree_on(flat, vee, 0, 1)
    assert not verdict.ok and verdict.witness["r"] == F(1, 2)
    assert verdict.witness["left"] - verdict.witness["right"] == F(1, 2)


def test_corrected_pair_agreement_pattern():
    h1, h2 = profile_half_slope_then_offset(), profile_half_slope_then_identity()
    assert profiles_agree_on(h1, h2, 0, 1).ok
    assert h1.eval(F(3, 2)) - h2.eval(F(3, 2)) == F(1, 4)
    verdict = profiles_agree_on(h1, h2, 0, 2)
    assert not verdict.ok


def test_identical_profiles_agree_everywhere():
    h = profile_affine_plus_one = BUILTIN_PROFILES["affine-plus-one"]()
    assert profiles_agree_on(h, h, 0, 10).ok


def test_radial_profile_bridges_to_katetov():
    """Sampling h(|v|) at rational points of a normed-space sample gives a
    one-point extension profile whenever h is 1-Lipschitz and h >= id."""
    rng = random.Random(17)
    for name in ("flat-then-identity", "vee", "half-slope-then-offset"):
        h = BUILTIN_PROFILES[name]()
        for _ in range(20):
            dim = rng.randint(1, 3)
            pts = [
                tuple(F(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(dim))
                for _ in range(rng.randint(2, 5))
            ]
            if len({p for p in pts}) != len(pts):
                continue

            def l1(a, b):
                return sum(abs(x - y) for x, y in zip(a, b))

            dmat = [[l1(a, b) for b in pts] for a in pts]
            if any(dmat[i][j] == 0 for i in range(len(pts)) for j in range(len(pts)) if i != j):
                continue
            values = [h.eval(l1(p, (F(0),) * dim)) for p in pts]
            bound = max(max(max(row) for row in dmat), max(values))
            space = MetricSpace(tuple(map(str, range(len(pts)))), tuple(map(tuple, dmat)), bound)
            assert is_katetov(values, space).ok, name
