"""Spaces held on their least integer grid.

The builders and readers that work on the grid (the random spaces, the
explicit extensions, `restrict`, the approximant's views, the loader, and
the metric, Katetov and landmark calculus) are compared with the Fraction
implementations they replaced, kept below as oracles: same labels,
distances, bound, returned indices and verdicts, and the same error with
the same message when the input breaks a precondition or is not a metric
or not Katetov. The grid itself is checked against the Fractions it stands
for, on spaces from every builder.
"""

import json
import random
from fractions import Fraction
from functools import partial
from math import ceil, lcm

import pytest
from hypothesis import given, settings, strategies as st

from mslab import (
    Approximant,
    BFState,
    KatetovFn,
    KatetovVerdict,
    LandmarkSet,
    MARequest,
    MetricSpace,
    MetricVerdict,
    PartialIsometry,
    amalgamate,
    back_and_forth_extend,
    cap_metric,
    extend_by_katetov,
    gromov_net_indices,
    injectivity_chain,
    is_katetov,
    ma_extension,
    nonproper_witness,
    prop53_extension,
    proximity_test,
    rado_metric,
    rado_metric_space,
    sup_distance,
    uwmt_extension,
    validate_metric,
    weak_seminorm,
)
from mslab.errors import (
    DiameterExceededError,
    DuplicatePointError,
    EmptyGlueError,
    EmptyStateError,
    IndexClashError,
    KatetovViolationError,
    LambdaOutOfRangeError,
    LengthMismatchError,
    MetricFailureError,
    MslabError,
    PreconditionAError,
    PreconditionBError,
    PreconditionError,
    SpaceMismatchError,
    UnsaturatedError,
)
from mslab.metric import fresh_label, require_metric, scale_space
from mslab.randgen import _grow_scaled_matrix, random_katetov_values, random_ma_request, random_metric_space
from mslab.rationals import ParseMemo, as_fraction
from mslab.serialization import _dump_json, load_space, space_from_dict, space_to_dict
from mslab.weak import landmark_gap

F = Fraction
BIG_Q = 2**62 - 57  # scaled values past int64 under one addition


# -- the Fraction implementations, as oracles -------------------------------------


def oracle_grid(space):
    return lcm(space.diam_bound.denominator, *(v.denominator for row in space.d for v in row))


def oracle_restrict(space, keep):
    return MetricSpace(
        tuple(space.labels[i] for i in keep), tuple(tuple(space.d[i][j] for j in keep) for i in keep), space.diam_bound
    )


def oracle_restrict_space(a, keep):
    rows = a.matrix.take(keep, 0).take(keep, 1).tolist()
    return MetricSpace(
        tuple(a.labels[i] for i in keep), tuple(tuple(F(v, a.denom) for v in row) for row in rows), a.diam_bound
    )


def checked(out, what):
    verdict = validate_metric(out.d, out.diam_bound)
    if not verdict:
        raise MetricFailureError(f"{what}: {verdict.reason} at {verdict.witness}", verdict)
    return out


def oracle_random_metric_space(rng, min_points=2, max_points=8, max_denom=24, min_diam_steps=2):
    q = rng.randint(1, max_denom)
    bound_scaled = rng.randint(max(min_diam_steps, 2), 2 * q)
    n = rng.randint(min_points, max_points)
    rows = _grow_scaled_matrix(rng, n, bound_scaled)
    return MetricSpace(
        tuple(f"p{i}" for i in range(n)), tuple(tuple(F(v, q) for v in row) for row in rows), F(bound_scaled, q)
    )


def oracle_random_ma_request(rng, max_points=8, max_denom=24):
    while True:
        space = oracle_random_metric_space(rng, min_points=2, max_points=max_points, max_denom=max_denom)
        n = space.n_points
        q = oracle_grid(space)
        x = rng.randrange(n)
        y = rng.randrange(n)
        others = [i for i in range(n) if i not in (x, y)]
        rng.shuffle(others)
        F_ = tuple(sorted(others[: rng.randint(0, len(others))]))
        lo = F(0)
        hi = space.diam_bound
        for z in F_:
            lo = max(lo, abs(space.d[x][z] - space.d[y][z]))
            hi = min(hi, space.d[x][z] + space.d[y][z])
        lo_step = int(lo * q) + 1
        hi_step = min(int(hi * q), int(space.diam_bound * q) - 1)
        if lo_step > hi_step:
            continue
        return MARequest(space, F_, x, y, F(rng.randint(lo_step, hi_step), q))


def oracle_ma(req):
    space, F_, x, y, delta = req.space, req.F, req.x, req.y, req.delta
    if x in F_ or y in F_:
        raise IndexClashError("x and y must not belong to F")
    if len(set(F_)) != len(F_):
        raise IndexClashError("duplicate indices in F")
    if delta <= 0:
        raise PreconditionError(f"delta must be positive, got {delta}")
    if delta >= space.diam_bound:
        raise DiameterExceededError(f"delta {delta} not below the diameter bound {space.diam_bound}")
    for z in F_:
        if abs(space.d[x][z] - space.d[y][z]) >= delta:
            raise PreconditionAError(f"|d(x,z)-d(y,z)| >= delta at z={z}", z=z)
    for z in F_:
        if delta > space.d[x][z] + space.d[y][z]:
            raise PreconditionBError(f"delta > d(x,z)+d(y,z) at z={z}", z=z)
    keep = sorted(set(F_) | {x})
    pos = {orig: i for i, orig in enumerate(keep)}
    profile = [F(0)] * len(keep)
    profile[pos[x]] = delta
    for z in F_:
        profile[pos[z]] = space.d[y][z]
    out = checked(oracle_restrict(space, keep).with_point(space.labels[y] + "'", profile), "ma extension invalid")
    return out, out.n_points - 1


def oracle_uwmt(space, x, y, Z):
    Z = list(Z)
    members = [x, y, *Z]
    if len(set(members)) != len(members):
        raise IndexClashError("x, y and Z must be pairwise distinct indices")
    keep = sorted(members)
    pos = {orig: i for i, orig in enumerate(keep)}
    base = oracle_restrict(space, keep)
    m, k = len(keep), len(Z)
    zs = [x, *Z]
    e = space.d[x][y]
    bound = space.diam_bound

    def cross(i, j):
        best = min(bound, space.d[zs[i]][y] + space.d[x][zs[j]])
        for l in range(k + 1):
            best = min(best, space.d[zs[i]][zs[l]] + e + space.d[zs[l]][zs[j]])
        return best

    n = m + k
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            rows[i][j] = base.d[i][j]
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            rows[m + a - 1][m + b - 1] = space.d[zs[a]][zs[b]]
    for w in keep:
        for b in range(1, k + 1):
            val = space.d[x][zs[b]] if w == y else cross(zs.index(w), b)
            rows[pos[w]][m + b - 1] = rows[m + b - 1][pos[w]] = val
    labels = list(base.labels)
    used = set(labels)
    labels += [fresh_label(space.labels[zs[b]] + "'", used) for b in range(1, k + 1)]
    out = checked(MetricSpace(tuple(labels), tuple(map(tuple, rows)), bound), "uwmt extension invalid")
    return out, list(range(m, n))


def oracle_nonproper(space, x, Z, lam):
    level = as_fraction(lam)
    Z = list(Z)
    if x in Z:
        raise IndexClashError("Z must not contain x")
    if len(set(Z)) != len(Z):
        raise IndexClashError("duplicate indices in Z")
    if not 0 < level < space.diam_bound:
        raise LambdaOutOfRangeError(f"lambda {level} outside (0, {space.diam_bound})")
    keep = sorted({x, *Z})
    pos = {orig: i for i, orig in enumerate(keep)}
    profile = [F(0)] * len(keep)
    profile[pos[x]] = level
    for z in Z:
        profile[pos[z]] = max(level, space.d[x][z])
    out = checked(oracle_restrict(space, keep).with_point("y", profile), "level companion invalid")
    return out, out.n_points - 1


def oracle_prop53_profile(st, z):
    if not st.pairs:
        raise EmptyStateError("back-and-forth state has no pairs")
    if z in st.domain:
        raise IndexClashError(f"probe point {z} already in the domain")
    ap = st.space
    bound = ap.diam_bound
    keep = sorted(set(st.domain) | set(st.image) | {z})
    a = [ap.dist(z, xi) for xi, _ in st.pairs]
    t0 = min(st.eps, bound, min(ai + ap.dist(yi, z) for ai, (_, yi) in zip(a, st.pairs)))
    c = [min(bound, ai + ap.dist(xi, yi)) for ai, (xi, yi) in zip(a, st.pairs)]
    profile = {}
    for w in keep:
        best = min(bound, t0 + ap.dist(z, w))
        for ai, ci, (xi, yi) in zip(a, c, st.pairs):
            best = min(best, ai + ap.dist(yi, w), ci + ap.dist(xi, w))
        profile[w] = best
    return keep, profile, t0


def oracle_prop53(st, z):
    keep, profile, t0 = oracle_prop53_profile(st, z)
    base = oracle_restrict_space(st.space, keep)
    out = base.with_point(st.space.labels[z] + "'", [profile[w] for w in keep])
    out = checked(out, "transport extension invalid")
    if profile[z] != t0 or t0 > st.eps:
        raise MetricFailureError(
            f"transport extension breaks its contract: d(z', z) = {profile[z]}, t0 = {t0}, eps = {st.eps}"
        )
    return out, out.n_points - 1


def oracle_back_and_forth(st, z):
    keep, profile, _ = oracle_prop53_profile(st, z)
    ap = st.space
    for w in keep:
        if (profile[w] * ap.denom).denominator != 1:
            raise UnsaturatedError(f"profile value {profile[w]} at point {w} is off the 1/{ap.denom} grid")
    for p in range(ap.n_points):
        if all(ap.dist(p, w) == profile[w] for w in keep):
            return BFState.create(ap, st.pairs + ((z, p),), st.eps)
    raise UnsaturatedError("no existing point realizes the transported profile")


# -- comparing outcomes ------------------------------------------------------------


def outcome(fn, *args):
    """What a builder returns, or the type and message of its error."""
    try:
        result = fn(*args)
    except MslabError as exc:
        return type(exc), str(exc)
    if isinstance(result, BFState):
        return result.pairs
    out, idx = result
    return out.labels, out.d, out.diam_bound, idx


def same(fn, oracle, *args):
    got, want = outcome(fn, *args), outcome(oracle, *args)
    assert got == want
    return got


def raised(results, error):
    return sum(1 for r in results if r[0] is error)


def off_grid(result, denom):
    """Whether a built space's values leave the 1/denom grid."""
    _, d, bound, _ = result
    return denom % lcm(bound.denominator, *(v.denominator for row in d for v in row)) != 0


def scaled_space(rng, n, denom, bound_scaled):
    """A random metric on the 1/denom grid, built from Fractions."""
    rows = _grow_scaled_matrix(rng, n, bound_scaled)
    return MetricSpace(
        tuple(f"p{i}" for i in range(n)), tuple(tuple(F(v, denom) for v in row) for row in rows), F(bound_scaled, denom)
    )


def non_metric(rng, n, q):
    """A symmetric matrix with zero diagonal and positive entries on the
    1/q grid, bound 2, that is usually not a metric."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(rng.randint(1, 2 * q), q)
    return MetricSpace(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, rows)), 2)


def pick(rng, n, size):
    pts = list(range(n))
    rng.shuffle(pts)
    return pts[:size]


# -- random builders -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_random_metric_space_matches_the_fraction_builder(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(200):
        got, want = random_metric_space(rng), oracle_random_metric_space(ref)
        assert (got.labels, got.d, got.diam_bound) == (want.labels, want.d, want.diam_bound)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("seed", range(5))
def test_random_ma_request_matches_the_fraction_builder(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(200):
        got, want = random_ma_request(rng), oracle_random_ma_request(ref)
        assert (got.space, got.F, got.x, got.y, got.delta) == (want.space, want.F, want.x, want.y, want.delta)
    assert rng.random() == ref.random()


# -- the explicit extensions -------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_ma_matches_the_fraction_recipe(seed):
    rng = random.Random(seed)
    results = []
    lifted = 0
    for _ in range(150):
        req = random_ma_request(rng)
        results.append(same(ma_extension, oracle_ma, req))
        # the same request at a delta that may lie off the space's grid and
        # break a precondition, with and without its landmarks
        grid = req.space.grid.denom
        q = grid * rng.randint(2, 5)
        delta = F(rng.randint(1, int(req.space.diam_bound * q)), q)
        for F_ in (req.F, ()):
            got = same(ma_extension, oracle_ma, MARequest(req.space, F_, req.x, req.y, delta))
            results.append(got)
            lifted += got[0] not in (PreconditionAError, PreconditionBError, DiameterExceededError) and off_grid(
                got, grid
            )
    assert raised(results, PreconditionAError) and raised(results, DiameterExceededError)
    assert lifted


@pytest.mark.parametrize("seed", range(4))
def test_uwmt_matches_the_fraction_recipe(seed):
    rng = random.Random(seed)
    for _ in range(150):
        space = random_metric_space(rng)
        x, y, *Z = pick(rng, space.n_points, rng.randint(2, space.n_points))
        same(uwmt_extension, oracle_uwmt, space, x, y, Z)
        same(uwmt_extension, oracle_uwmt, space, x, y, [])


@pytest.mark.parametrize("seed", range(4))
def test_nonproper_matches_the_fraction_recipe(seed):
    rng = random.Random(seed)
    results = []
    for _ in range(150):
        space = random_metric_space(rng)
        x, *Z = pick(rng, space.n_points, rng.randint(1, space.n_points))
        q = space.grid.denom * rng.choice([1, 1, 2, 3])
        level = F(rng.randint(1, int(space.diam_bound * q)), q)
        results.append(same(nonproper_witness, oracle_nonproper, space, x, Z, level))
        results.append(same(nonproper_witness, oracle_nonproper, space, x, [], level))
    assert raised(results, LambdaOutOfRangeError)


def prop53_states(rng, space, mult):
    """A state with identity pairs, and one with uwmt-mirrored pairs (as in
    battery 1), each with an eps on the grid or between grid points."""
    n = space.n_points
    q = space.grid.denom
    eps = F(rng.randint(1, int(space.diam_bound * q * mult)), q * mult)
    pts = pick(rng, n, n)
    k = rng.randint(1, n - 1)
    yield BFState.create(Approximant.from_space(space, q, 2), [(p, p) for p in sorted(pts[:k])], eps), pts[k]
    x, y, *Z = pts[: 2 + rng.randint(1, min(4, n - 2))]
    bigger, primes = uwmt_extension(space, x, y, Z)
    keep = sorted({x, y, *Z})
    pos = {orig: i for i, orig in enumerate(keep)}
    pairs = [(pos[z], p) for z, p in zip([x, *Z], [pos[y], *primes])]
    eps = max(space.d[x][y], eps)
    yield BFState.create(Approximant.from_space(bigger, bigger.grid.denom, 2), pairs, eps), pos[y]


@pytest.mark.parametrize("seed", range(4))
def test_prop53_matches_the_fraction_recipe(seed):
    rng = random.Random(seed)
    lifted = 0
    for _ in range(100):
        space = random_metric_space(rng, min_points=3)
        for st_, z in prop53_states(rng, space, rng.choice([1, 2, 3])):
            got = same(prop53_extension, oracle_prop53, st_, z)
            same(back_and_forth_extend, oracle_back_and_forth, st_, z)
            # t0 between grid points puts the output on a finer grid
            lifted += off_grid(got, st_.space.denom)
    assert lifted


def test_prop53_eps_between_grid_points_lifts_the_grid():
    space = MetricSpace(("a", "b", "z"), ((0, F(1, 2), F(3, 4)), (F(1, 2), 0, F(1, 2)), (F(3, 4), F(1, 2), 0)), 1)
    st_ = BFState.create(Approximant.from_space(space, 4, 2), [(0, 0)], F(1, 6))
    got = same(prop53_extension, oracle_prop53, st_, 2)
    assert got[1][2][1] == F(1, 6) and off_grid(got, 4)
    assert prop53_extension(st_, 2)[0].grid.denom == 12
    assert same(back_and_forth_extend, oracle_back_and_forth, st_, 2)[0] is UnsaturatedError


def test_empty_state_and_clash_match():
    space = random_metric_space(random.Random(1), min_points=3)
    a = Approximant.from_space(space, space.grid.denom, 2)
    assert same(prop53_extension, oracle_prop53, BFState(a, (), F(1)), 0)[0] is EmptyStateError
    assert same(prop53_extension, oracle_prop53, BFState.create(a, [(0, 0)], F(1)), 0)[0] is IndexClashError


@pytest.mark.parametrize("seed", range(3))
def test_recipes_near_2_62_match(seed):
    # the scaled values pass int64 under one addition: exact Python ints
    rng = random.Random(seed)
    for _ in range(10):
        n = rng.randint(3, 7)
        space = scaled_space(rng, n, BIG_Q, rng.randint(BIG_Q, 2 * BIG_Q))
        x, y, *Z = pick(rng, n, rng.randint(2, n))
        same(uwmt_extension, oracle_uwmt, space, x, y, Z)
        level = F(rng.randint(1, BIG_Q), BIG_Q)
        same(nonproper_witness, oracle_nonproper, space, x, Z, level)
        delta = F(rng.randint(1, 2 * BIG_Q), 3 * BIG_Q)
        same(ma_extension, oracle_ma, MARequest(space, tuple(Z), x, y, delta))
        for st_, z in prop53_states(rng, space, rng.choice([1, 3])):
            same(prop53_extension, oracle_prop53, st_, z)


@pytest.mark.parametrize("seed", range(3))
def test_non_metric_inputs_fail_with_the_same_message(seed):
    rng = random.Random(seed)
    results = []
    for _ in range(100):
        n = rng.randint(3, 6)
        space = non_metric(rng, n, rng.randint(1, 6))
        x, y, *Z = pick(rng, n, rng.randint(3, n))
        results.append(same(uwmt_extension, oracle_uwmt, space, x, y, Z))
        results.append(same(nonproper_witness, oracle_nonproper, space, x, [y, *Z], F(1, 2)))
        req = MARequest(space, tuple(Z), x, y, F(rng.randint(1, 7), 4))
        results.append(same(ma_extension, oracle_ma, req))
        # an approximant file may hold a non-metric; Prop 5.3 then fails
        a = Approximant.from_space(space, space.grid.denom, 2)
        st_ = BFState.create(a, [(p, p) for p in [x, *Z]], F(1))
        results.append(same(prop53_extension, oracle_prop53, st_, y))
    assert raised(results, MetricFailureError) > 50
    assert {r[1].split(":")[0] for r in results if r[0] is MetricFailureError} == {
        "uwmt extension invalid", "level companion invalid", "ma extension invalid", "transport extension invalid",
    }


# -- views on the grid -----------------------------------------------------------


def test_restrict_and_approximant_views_match():
    rng = random.Random(5)
    for _ in range(100):
        space = random_metric_space(rng)
        keep = pick(rng, space.n_points, rng.randint(0, space.n_points))
        assert space.restrict(keep) == oracle_restrict(space, keep)
        a = Approximant.from_space(space, space.grid.denom * rng.randint(1, 3), 2)
        assert a.restrict_space(keep) == oracle_restrict_space(a, keep)
        assert a.as_metric_space() == oracle_restrict_space(a, range(a.n_points))


# -- the grid invariants ---------------------------------------------------------


def coarse_space():
    """Held on the 1/4 grid with every value even: the least grid is 1/2."""
    return MetricSpace.from_grid("abc", [[0, 2, 4], [2, 0, 2], [4, 2, 0]], 4, 4)


def spaces_from_every_builder(seed):
    rng = random.Random(seed)
    space = random_metric_space(rng, min_points=3)
    n = space.n_points
    req = random_ma_request(rng)
    x, y, *Z = pick(rng, n, rng.randint(2, n))
    st_, z = next(prop53_states(rng, space, 3))
    a = Approximant.from_space(space, space.grid.denom * 2, 2)
    yield space
    yield req.space
    yield ma_extension(req)[0]
    yield uwmt_extension(space, x, y, Z)[0]
    yield nonproper_witness(space, x, Z, space.diam_bound / 3)[0]
    yield prop53_extension(st_, z)[0]
    yield space.restrict(Z)
    yield a.restrict_space(Z)
    yield a.as_metric_space()
    yield coarse_space()
    yield coarse_space().restrict([0, 2])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_grid_invariants(seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    for i, space in enumerate(spaces_from_every_builder(seed)):
        least = oracle_grid(space)
        assert space.grid.denom == least
        denom, rows, bound = space.grid
        assert [[F(v, denom) for v in row] for row in rows] == [list(row) for row in space.d]
        assert F(bound, denom) == space.diam_bound
        for q in (least, 3 * least):
            assert scale_space(space, q) == (
                [[v.numerator * (q // v.denominator) for v in row] for row in space.d],
                space.diam_bound.numerator * (q // space.diam_bound.denominator),
            )
        from_fractions = MetricSpace(space.labels, space.d, space.diam_bound)
        assert from_fractions == space and hash(from_fractions) == hash(space)
        assert from_fractions.grid.denom == least
        from_ints = MetricSpace.from_grid(space.labels, rows, denom, bound)
        assert from_ints == space and hash(from_ints) == hash(space)
        finer = MetricSpace.from_grid(space.labels, [[3 * v for v in row] for row in rows], 3 * denom, 3 * bound)
        assert finer == space and hash(finer) == hash(space) and finer.grid == space.grid
        first, again = tmp / f"first{i}.json", tmp / f"again{i}.json"
        _dump_json(space_to_dict(space), first)
        loaded = load_space(first)
        assert loaded == space and hash(loaded) == hash(space)
        _dump_json(space_to_dict(loaded), again)
        assert first.read_bytes() == again.read_bytes()
        assert json.loads(first.read_text()) == space_to_dict(from_fractions)


def test_coarse_grid_scales_down():
    space = coarse_space()
    assert space.grid.denom == 2
    assert scale_space(space, 2) == ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], 2)
    with pytest.raises(MslabError, match="not divisible by the space's denominator 2"):
        scale_space(space, 3)


# -- the view is made only when read ----------------------------------------------


def test_grid_paths_never_build_the_fraction_view():
    rng = random.Random(8)
    for _ in range(50):
        space = random_metric_space(rng, min_points=3)
        x, y, *Z = pick(rng, space.n_points, rng.randint(2, space.n_points))
        require_metric(space, "seed")
        space.restrict(Z)
        scale_space(space, 2 * space.grid.denom)
        Approximant.from_space(space, space.grid.denom, 2)
        out, _ = uwmt_extension(space, x, y, Z)
        assert "d" not in space.__dict__ and "d" not in out.__dict__
    assert space.d and "d" in space.__dict__


# -- the metric, Katetov and landmark calculus, as Fraction oracles -------------------


def oracle_is_katetov(values, space):
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


def oracle_sup_distance(f, g):
    if f.space != g.space:
        raise SpaceMismatchError("sup_distance needs both functions over one space")
    n = f.space.n_points
    for fn in (f, g):
        if len(fn.values) != n:
            raise LengthMismatchError(f"{len(fn.values)} values over a {n}-point space")
    return max(abs(a - b) for a, b in zip(f.values, g.values))


def oracle_with_point(space, label, profile):
    prof = tuple(as_fraction(v) for v in profile)
    if len(prof) != space.n_points:
        raise LengthMismatchError(f"profile has {len(prof)} entries for {space.n_points} points")
    rows = [row + (prof[i],) for i, row in enumerate(space.d)]
    rows.append(prof + (F(0),))
    return MetricSpace(space.labels + (fresh_label(label, set(space.labels)),), tuple(rows), space.diam_bound)


def oracle_extend_by_katetov(space, fn):
    verdict = oracle_is_katetov(fn.values, space)
    if not verdict:
        raise KatetovViolationError(f"not Katetov: {verdict.reason} at {verdict.witness}")
    for i, v in enumerate(fn.values):
        if v == 0:
            raise DuplicatePointError(f"profile vanishes at point {i}; realization would duplicate it")
    out = checked(oracle_with_point(space, f"x{space.n_points}", fn.values), "extension invalid")
    return out, out.n_points - 1


def oracle_cap_metric(space, c):
    cap = as_fraction(c)
    if cap <= 0:
        raise PreconditionError(f"cap must be positive, got {cap}")
    rows = tuple(tuple(min(v, cap) for v in row) for row in space.d)
    return checked(MetricSpace(space.labels, rows, cap), "capped matrix invalid")


def oracle_isometry_check(glue, source, target):
    for a in range(len(glue.domain)):
        for b in range(a + 1, len(glue.domain)):
            if source.d[glue.domain[a]][glue.domain[b]] != target.d[glue.image[a]][glue.image[b]]:
                return MetricVerdict(False, "not-isometric", (a, b))
    return MetricVerdict(True)


def oracle_amalgamate(x_space, y_space, glue, diam_bound=None):
    if diam_bound is None:
        if not glue.domain:
            raise EmptyGlueError("empty glue needs an explicit diam_bound")
        bound = max(x_space.diam_bound, y_space.diam_bound)
    else:
        bound = as_fraction(diam_bound)
    if x_space.diam_bound > bound or y_space.diam_bound > bound:
        raise PreconditionError("both factors must have diameter bound <= the amalgam bound")
    ok = oracle_isometry_check(glue, x_space, y_space)
    if not ok:
        raise PreconditionError(f"glue is not a partial isometry: positions {ok.witness}")
    glued_in_y = dict(zip(glue.image, glue.domain))
    new_y = [j for j in range(y_space.n_points) if j not in glued_in_y]
    labels = list(x_space.labels)
    used = set(labels)
    labels += [fresh_label(y_space.labels[j], used) for j in new_y]
    n_x = x_space.n_points
    n = n_x + len(new_y)
    rows = [[F(0)] * n for _ in range(n)]
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
                cross = min(cross, x_space.d[i][dom] + y_space.d[img][ja])
            rows[i][n_x + a] = rows[n_x + a][i] = cross
    return checked(MetricSpace(tuple(labels), tuple(tuple(r) for r in rows), bound), "amalgam invalid")


def oracle_injectivity_chain(r, s, diam_bound):
    r, s, bound = as_fraction(r), as_fraction(s), as_fraction(diam_bound)
    if not 0 < r <= bound:
        raise PreconditionError(f"need 0 < r <= diam_bound, got r={r}")
    if not 0 < s <= bound:
        raise PreconditionError(f"need 0 < s <= diam_bound, got s={s}")
    n = 1 if s == r else max(2, ceil(s / r))
    rows = [[min(r * abs(i - j), (n - abs(i - j)) * r + s) for j in range(n + 1)] for i in range(n + 1)]
    chain = MetricSpace(tuple(f"x{i}" for i in range(n + 1)), tuple(map(tuple, rows)), max(bound, r * n + s))
    return oracle_cap_metric(chain, bound)


def oracle_rado_metric_space(vertices):
    verts = list(vertices)
    return MetricSpace(tuple(map(str, verts)), tuple(tuple(rado_metric(a, b) for b in verts) for a in verts), 2)


def oracle_space_from_dict(data):
    parse = ParseMemo()
    return MetricSpace(
        tuple(data["points"]), tuple(tuple(map(parse.__getitem__, row)) for row in data["d"]), parse[data["diam"]]
    )


def oracle_landmark_gap(space, a, b, F_):
    return max(abs(space.d[a][z] - space.d[b][z]) for z in F_)


def oracle_weak_seminorm(landmarks):
    n = landmarks.space.n_points
    return tuple(
        tuple(F(0) if i == j else oracle_landmark_gap(landmarks.space, i, j, landmarks.F) for j in range(n))
        for i in range(n)
    )


def oracle_proximity(A, B, landmarks, eps):
    for a in sorted(set(A)):
        for b in sorted(set(B)):
            if oracle_landmark_gap(landmarks.space, a, b, landmarks.F) < eps:
                return a, b
    return None


def oracle_net(space, landmarks, eps):
    reps = []
    for z in range(space.n_points):
        if all(oracle_landmark_gap(space, z, r, landmarks.F) >= eps for r in reps):
            reps.append(z)
    return reps


def result(fn, *args):
    """What a function returns, or the type and message of its error."""
    try:
        return fn(*args)
    except (MslabError, ValueError) as exc:
        return type(exc), str(exc)


def agree(fn, oracle, *args):
    got, want = result(fn, *args), result(oracle, *args)
    assert got == want
    if isinstance(want, MetricSpace):
        assert (got.labels, got.d, got.diam_bound) == (want.labels, want.d, want.diam_bound)
    return got


def calculus_spaces(seed):
    """Random spaces on small grids, and on a grid near 2**62."""
    rng = random.Random(seed)
    for _ in range(60):
        yield rng, random_metric_space(rng, min_points=1)
    for _ in range(8):
        n = rng.randint(1, 6)
        yield rng, scaled_space(rng, n, BIG_Q, rng.randint(BIG_Q, 2 * BIG_Q))


def grid_values(rng, space, n, low=0, high=1):
    """n values on the space's grid or a finer one, in [low, high] times
    the bound."""
    q = space.grid.denom * rng.choice([1, 1, 2, 3, 7])
    top = space.grid.bound * q // space.grid.denom
    return tuple(F(rng.randint(low * top, high * top), q) for _ in range(n))


@pytest.mark.parametrize("seed", range(3))
def test_katetov_calculus_matches_the_fraction_oracles(seed):
    verdicts = set()
    for rng, space in calculus_spaces(seed):
        n = space.n_points
        q = space.grid.denom
        katetov = random_katetov_values(rng, space, q * rng.choice([1, 2]))
        loose = grid_values(rng, space, n, -1, 2)
        for values in (katetov, loose, grid_values(rng, space, n), katetov[1:]):
            got = agree(is_katetov, oracle_is_katetov, values, space)
            verdicts.add(got[0] if isinstance(got, tuple) else got.reason)
            agree(MetricSpace.with_point, oracle_with_point, space, "x", values)
            if len(values) != n:
                with pytest.raises(LengthMismatchError):
                    KatetovFn(space, values)
                continue
            fn = KatetovFn(space, values)
            agree(sup_distance, oracle_sup_distance, fn, KatetovFn(space, katetov))
            agree(extend_by_katetov, oracle_extend_by_katetov, space, fn)
    assert verdicts >= {None, "range", "lipschitz", "sum", LengthMismatchError}


def test_sup_distance_over_different_spaces_matches():
    a, b = random_metric_space(random.Random(1)), random_metric_space(random.Random(2))
    fa, fb = KatetovFn(a, a.d[0]), KatetovFn(b, b.d[0])
    assert agree(sup_distance, oracle_sup_distance, fa, fb)[0] is SpaceMismatchError


@pytest.mark.parametrize("seed", range(3))
def test_cap_and_amalgamate_match_the_fraction_oracles(seed):
    errors = set()
    finer = 0
    for rng, space in calculus_spaces(seed):
        n = space.n_points
        cap = grid_values(rng, space, 1, -1, 2)[0]
        got = agree(cap_metric, oracle_cap_metric, space, cap)
        errors.add(got[0] if isinstance(got, tuple) else None)
        # glue a random subspace back onto the space, sometimes misaligned
        keep = pick(rng, n, rng.randint(0, n))
        part = space.restrict(keep)
        glued = rng.sample(range(len(keep)), rng.randint(0, len(keep)))
        image = [keep[i] for i in glued] if rng.random() < 0.8 else rng.sample(range(n), len(glued))
        glue = PartialIsometry(tuple(glued), tuple(image))
        for bound in (None, space.diam_bound, grid_values(rng, space, 1, 0, 2)[0]):
            got = agree(amalgamate, oracle_amalgamate, part, space, glue, bound)
            errors.add(got[0] if isinstance(got, tuple) else None)
            agree(glue.check, partial(oracle_isometry_check, glue), part, space)
        # glue the space onto a one-point extension of it on a finer grid
        wider = space.with_point("w", random_katetov_values(rng, space, 2 * space.grid.denom, allow_zero=False))
        finer += wider.grid.denom != space.grid.denom
        identity = PartialIsometry(tuple(range(n)), tuple(range(n)))
        assert agree(identity.check, partial(oracle_isometry_check, identity), space, wider)
        agree(amalgamate, oracle_amalgamate, space, wider, identity, None)
    for rng, space in calculus_spaces(seed + 10):
        if space.n_points > 2:
            other = non_metric(rng, space.n_points, rng.randint(1, 6))
            got = agree(cap_metric, oracle_cap_metric, other, rng.choice([1, F(3, 2), 2]))
            errors.add(got[0] if isinstance(got, tuple) else None)
            glue = PartialIsometry((0,), (0,))
            got = agree(amalgamate, oracle_amalgamate, other, other.restrict([0, 1]), glue, 4)
            errors.add(got[0] if isinstance(got, tuple) else None)
    assert errors >= {None, PreconditionError, EmptyGlueError, MetricFailureError}
    assert finer


@pytest.mark.parametrize("seed", range(3))
def test_chain_and_rado_spaces_match_the_fraction_oracles(seed):
    rng = random.Random(seed)
    for _ in range(300):
        q = rng.choice([rng.randint(1, 24), BIG_Q])
        steps = rng.randint(2, 2 * min(q, 24))
        r, s = (F(rng.randint(1, steps), q * rng.choice([1, 2, 5])) for _ in range(2))
        agree(injectivity_chain, oracle_injectivity_chain, r, s, F(steps, q))
    assert agree(injectivity_chain, oracle_injectivity_chain, F(3), F(1), F(2))[0] is PreconditionError
    for _ in range(20):
        verts = rng.sample(range(300), rng.randint(0, 40))
        agree(rado_metric_space, oracle_rado_metric_space, verts)


@pytest.mark.parametrize("seed", range(3))
def test_loader_matches_the_fraction_oracle(seed):
    for rng, space in calculus_spaces(seed):
        data = space_to_dict(space)
        if space.n_points > 2 and rng.random() < 0.5:
            data = space_to_dict(non_metric(rng, space.n_points, rng.randint(1, 30)))
        got = agree(space_from_dict, oracle_space_from_dict, data)
        assert hash(got) == hash(oracle_space_from_dict(data))


@pytest.mark.parametrize("seed", range(3))
def test_landmark_calculus_matches_the_fraction_oracles(seed):
    passes = set()
    for rng, space in calculus_spaces(seed):
        n = space.n_points
        landmarks = LandmarkSet(space, tuple(pick(rng, n, rng.randint(1, n))))
        eps = grid_values(rng, space, 1)[0] or F(1, 5 * space.grid.denom)
        a, b = rng.randrange(n), rng.randrange(n)
        assert landmark_gap(space, a, b, landmarks.F) == oracle_landmark_gap(space, a, b, landmarks.F)
        assert weak_seminorm(landmarks).matrix == oracle_weak_seminorm(landmarks)
        A, B = pick(rng, n, rng.randint(1, n)), pick(rng, n, rng.randint(1, n))
        report = proximity_test(A, B, landmarks, eps)
        want = oracle_proximity(A, B, landmarks, eps)
        assert (report.witness if report.ok else None) == (None if want is None else {"a": want[0], "b": want[1]})
        passes.add(report.ok)
        assert gromov_net_indices(space, landmarks, eps) == oracle_net(space, landmarks, eps)
    assert passes == {True, False}
