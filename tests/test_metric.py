"""metric-core: validation, Katetov calculus, amalgams, enumeration."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mslab import metric
from mslab import (
    KatetovFn,
    MetricSpace,
    PartialIsometry,
    amalgamate,
    cap_metric,
    elementary_katetov,
    enumerate_katetov,
    extend_by_katetov,
    is_katetov,
    kuratowski_embed,
    sup_distance,
    truncate_katetov,
    validate_metric,
)
from mslab.errors import (
    DenominatorMismatchError,
    DuplicatePointError,
    EmptyGlueError,
    KatetovViolationError,
    LambdaOutOfRangeError,
    LengthMismatchError,
    NonSquareError,
    PreconditionError,
    SpaceMismatchError,
)
from mslab.randgen import _grow_scaled_matrix, random_katetov_values, random_metric_space

F = Fraction


def naive_validate(rows, bound):
    """Independent oracle: the O(n^3) scan in pure Fractions, one check
    family at a time, first lexicographic witness."""
    rows = [[F(v) if not isinstance(v, F) else v for v in row] for row in rows]
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return ("not-symmetric", (i, j))
    for i in range(n):
        if rows[i][i] != 0:
            return ("nonzero-diagonal", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] <= 0:
                return ("nonpositive-off-diagonal", (i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] > bound:
                return ("exceeds-diameter", (i, j))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    return ("triangle", (i, j, k))
    return None


def two_point(d=F(1), bound=F(1)):
    return MetricSpace(("a", "b"), ((0, d), (d, 0)), bound)


def equilateral(side=F(1, 2), bound=F(1)):
    z = F(0)
    return MetricSpace(
        ("a", "b", "c"),
        ((z, side, side), (side, z, side), (side, side, z)),
        bound,
    )


# -- validate_metric -----------------------------------------------------------


def test_validate_two_point():
    assert validate_metric([[0, 1], [1, 0]], 1).ok


def test_validate_triangle_violation_witness():
    v = validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]], 3)
    assert not v.ok
    assert v.reason == "triangle"
    assert v.witness == (0, 2, 1)


def test_validate_equilateral_halves():
    h = "1/2"
    assert validate_metric([[0, h, h], [h, 0, h], [h, h, 0]], 1).ok


def test_validate_rejects_non_square():
    with pytest.raises(NonSquareError):
        validate_metric([[0, 1], [1]], 1)


@pytest.mark.parametrize(
    "rows,bound,reason",
    [
        ([[0, 1], [2, 0]], 2, "not-symmetric"),
        ([[1, 1], [1, 0]], 2, "nonzero-diagonal"),
        ([[0, 0], [0, 0]], 2, "nonpositive-off-diagonal"),
        ([[0, 3], [3, 0]], 2, "exceeds-diameter"),
    ],
)
def test_validate_failure_kinds(rows, bound, reason):
    v = validate_metric(rows, bound)
    assert not v.ok and v.reason == reason


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_validate_matches_naive_oracle_on_random_spaces(seed):
    rng = random.Random(seed)
    space = random_metric_space(rng, max_points=7, max_denom=12)
    rows = [list(r) for r in space.d]
    # randomly corrupt one entry half the time
    if rng.random() < 0.5 and space.n_points >= 2:
        i = rng.randrange(space.n_points)
        j = rng.randrange(space.n_points)
        rows[i][j] = rows[i][j] + F(rng.randint(-3, 3), 2)
    expected = naive_validate(rows, space.diam_bound)
    got = validate_metric(rows, space.diam_bound)
    if expected is None:
        assert got.ok
    else:
        assert (got.reason, got.witness) == expected


def test_validate_numpy_path_matches_naive():
    # 60 points forces the vectorized scan; corrupt one distant triangle
    rng = random.Random(7)
    n = 60
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(2, 4), 4)  # all in [1/2, 1]: triangle-safe
            rows[i][j] = rows[j][i] = v
    assert validate_metric(rows, 1).ok
    rows[10][40] = rows[40][10] = F(9, 4)  # violates bound; then triangle after raise
    v = validate_metric(rows, 3)
    assert (v.reason, v.witness) == naive_validate(rows, 3)


def random_unit_metric(rng, n, q):
    """n points, every distance in [1/2, 1] on the 1/(2q) grid: a metric
    whatever the draw, since any two legs sum to at least 1."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(rng.randint(q, 2 * q), 2 * q)
    return rows


def triangle_only(rng, rows):
    """Move one pair symmetrically so that only the triangle inequality
    breaks: down to a small positive value, or up to the bound 2."""
    n = len(rows)
    a, b = rng.sample(range(n), 2)
    rows[a][b] = rows[b][a] = F(1, 16) if rng.random() < 0.5 else F(2)


def asymmetric(rng, rows):
    a, b = rng.sample(range(len(rows)), 2)
    rows[a][b] += F(1, 7)


def nonpositive(rng, rows):
    a, b = rng.sample(range(len(rows)), 2)
    rows[a][b] = rows[b][a] = F(rng.randint(-1, 0), 3)


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_validate_int_scan_witness_matches_naive(seed):
    # below 48 points the Python-int scan runs; a pair moved to the bound 2
    # breaks the triangle through many k, and a pair moved down breaks the
    # pairs around it: the witness is still the first (i, j, k) in lex order
    rng = random.Random(seed)
    n = rng.randint(3, 47)
    rows = random_unit_metric(rng, n, rng.randint(1, 6))
    for _ in range(rng.randint(1, 3)):
        triangle_only(rng, rows)
    got = validate_metric(rows, 2)
    assert (got.reason, got.witness) == (naive_validate(rows, 2) or (None, None))


@given(st.integers(0, 10**9))
@settings(max_examples=6, deadline=None)
def test_validate_numpy_path_matches_naive_on_corruptions(seed):
    rng = random.Random(seed)
    n = rng.randint(48, 70)
    base = random_unit_metric(rng, n, rng.randint(1, 6))
    assert validate_metric(base, 2).ok
    for corrupt, reason in ((triangle_only, "triangle"), (asymmetric, "not-symmetric"),
                            (nonpositive, "nonpositive-off-diagonal")):
        rows = [list(r) for r in base]
        corrupt(rng, rows)
        got = validate_metric(rows, 2)
        assert got.reason == reason
        assert (got.reason, got.witness) == naive_validate(rows, 2)


# the common denominator of these entries is near 2**62, so the scaled
# entries pass _INT64_SAFE and the exact Python-int scan must take over
BIG_Q = 2**62 - 57


@pytest.mark.parametrize("n", [12, 48])
def test_validate_exact_fallback_past_int64(n, monkeypatch):
    def no_numpy(*args):
        raise AssertionError("the int64 scan must not run past _INT64_SAFE")

    monkeypatch.setattr(metric, "_triangle_scan_numpy", no_numpy)
    monkeypatch.setattr(metric, "_precondition_scan_numpy", no_numpy)
    rng = random.Random(n)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(rng.randint(BIG_Q // 2, BIG_Q), BIG_Q)
    assert BIG_Q > metric._INT64_SAFE
    assert validate_metric(rows, 1).ok
    a, b = n // 3, n // 2
    rows[a][b] = rows[b][a] = F(1, BIG_Q)
    got = validate_metric(rows, 1)
    assert got.reason == "triangle"
    assert (got.reason, got.witness) == naive_validate(rows, 1)


def test_validate_entry_past_int64_takes_exact_scan():
    # a small bound, but one entry that int64 cannot hold
    rows = random_unit_metric(random.Random(3), 50, 2)
    rows[5][20] = rows[20][5] = F(2**70)
    got = validate_metric(rows, 1)
    assert (got.reason, got.witness) == ("exceeds-diameter", (5, 20)) == naive_validate(rows, 1)


# -- cap_metric ----------------------------------------------------------------


def test_cap_above_diameter_is_identity():
    space = equilateral(F(1))
    capped = cap_metric(space, 2)
    assert capped.d == space.d
    assert capped.diam_bound == 2


def test_cap_path_metric():
    z = F(0)
    path = MetricSpace(("a", "b", "c"), ((z, 1, 2), (1, z, 1), (2, 1, z)), 2)
    capped = cap_metric(path, 1)
    assert all(capped.d[i][j] == 1 for i in range(3) for j in range(3) if i != j)


def test_cap_two_point():
    capped = cap_metric(two_point(F(3), F(3)), F(1, 2))
    assert capped.d[0][1] == F(1, 2)


# -- amalgamate ----------------------------------------------------------------


def test_amalgamate_two_point_over_one():
    x = two_point()
    glued = amalgamate(x, x, PartialIsometry((0,), (0,)), 2)
    assert glued.n_points == 3
    assert glued.d[1][2] == 2  # d(b_X, b_Y) = 1 + 1, no cap at bound 2
    assert validate_metric(glued.d, glued.diam_bound).ok


def test_amalgamate_full_overlap_is_identity():
    x = equilateral()
    glued = amalgamate(x, x, PartialIsometry((0, 1, 2), (0, 1, 2)), 1)
    assert glued.d == x.d and glued.labels == x.labels


def test_amalgamate_capped_cross_distance():
    x = MetricSpace(("a", "b"), ((0, 1), (1, 0)), 1)
    y = MetricSpace(("a", "c"), ((0, 1), (1, 0)), 1)
    glued = amalgamate(x, y, PartialIsometry((0,), (0,)), 1)
    assert glued.d[1][2] == 1  # 1 + 1 capped at 1


def test_amalgamate_restricts_isometrically():
    rng = random.Random(5)
    for _ in range(25):
        x = random_metric_space(rng, max_points=5, max_denom=8)
        y = random_metric_space(rng, max_points=5, max_denom=8)
        bound = max(x.diam_bound, y.diam_bound)
        glued = amalgamate(x, y, PartialIsometry((), ()), bound)
        nx = x.n_points
        assert glued.restrict(range(nx)).d == x.d
        assert glued.restrict(range(nx, glued.n_points)).d == y.d


def test_amalgamate_empty_glue_needs_bound():
    with pytest.raises(EmptyGlueError):
        amalgamate(two_point(), two_point(), PartialIsometry((), ()))


# -- is_katetov / elementary ---------------------------------------------------


def test_elementary_functions_are_katetov():
    space = equilateral()
    for z in range(3):
        fn = elementary_katetov(space, z)
        assert is_katetov(fn.values, space).ok
        assert fn.values[z] == 0


def test_constant_half_on_unit_diameter():
    assert is_katetov([F(1, 2)] * 3, equilateral()).ok


def test_constant_zero_fails_sum_side():
    v = is_katetov([0, 0], two_point())
    assert not v.ok and v.reason == "sum" and v.witness == (0, 1)


def test_katetov_length_mismatch():
    with pytest.raises(LengthMismatchError):
        is_katetov([0], two_point())


def test_elementary_spec_values():
    assert elementary_katetov(two_point(), 0).values == (0, 1)
    assert elementary_katetov(equilateral(), 2).values == (F(1, 2), F(1, 2), 0)


# -- extend_by_katetov ---------------------------------------------------------


def test_extend_midpoint():
    space = two_point()
    out, idx = extend_by_katetov(space, KatetovFn.over(space, [F(1, 2), F(1, 2)]))
    assert out.n_points == 3
    assert out.d[idx][0] == out.d[idx][1] == F(1, 2)


def test_extend_rejects_vanishing_profile():
    space = two_point()
    with pytest.raises(DuplicatePointError):
        extend_by_katetov(space, elementary_katetov(space, 0))


def test_extend_rejects_invalid_profile():
    space = two_point()
    with pytest.raises(KatetovViolationError):
        extend_by_katetov(space, KatetovFn(space, (F(0), F(0))))


def test_extend_constant_one_keeps_diameter():
    space = equilateral(F(1))
    out, _ = extend_by_katetov(space, KatetovFn.over(space, [1, 1, 1]))
    assert validate_metric(out.d, 1).ok


def test_extend_elementary_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        space = random_metric_space(rng, max_points=6, max_denom=10)
        values = random_katetov_values(rng, space, space.grid.denom, allow_zero=False)
        out, idx = extend_by_katetov(space, KatetovFn.over(space, values))
        back = elementary_katetov(out, idx)
        assert back.values[: space.n_points] == values


# -- sup_distance and the isometric embedding ----------------------------------


def test_sup_distance_spec_values():
    space = two_point()
    f0, f1 = kuratowski_embed(space)
    assert sup_distance(f0, f1) == 1
    assert sup_distance(f0, f0) == 0


def test_sup_distance_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        sup_distance(elementary_katetov(two_point(), 0), elementary_katetov(equilateral(), 0))


def test_sup_distance_over_no_points_is_zero():
    empty = MetricSpace.from_grid((), (), 1, 1)
    assert sup_distance(KatetovFn(empty, ()), KatetovFn(empty, ())) == 0


@pytest.mark.parametrize("f_len, g_len", [(2, 3), (3, 2), (2, 1), (1, 2)])
def test_sup_distance_rejects_values_of_the_wrong_length(f_len, g_len):
    space = two_point()
    with pytest.raises(LengthMismatchError, match="values over a 2-point space"):
        sup_distance(KatetovFn(space, (F(1, 2),) * f_len), KatetovFn(space, (F(1),) * g_len))


def test_katetov_fn_rejects_values_of_the_wrong_length():
    # the readers that skip is_katetov trusted the length: truncate_katetov
    # returned a 1-vector and restrict_katetov raised a bare IndexError
    with pytest.raises(LengthMismatchError, match="1 values over a 2-point space"):
        KatetovFn(two_point(), (F(1, 2),))


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (2, 0), (0, 99)])
def test_dist_rejects_an_index_out_of_range(i, j):
    with pytest.raises(PreconditionError, match="out of range"):
        two_point(F(1, 2)).dist(i, j)


def test_kuratowski_embedding_is_isometric():
    rng = random.Random(3)
    for _ in range(50):
        space = random_metric_space(rng, max_points=7, max_denom=16)
        fns = kuratowski_embed(space)
        for i in range(space.n_points):
            for j in range(space.n_points):
                assert sup_distance(fns[i], fns[j]) == space.d[i][j]


def test_kuratowski_singleton():
    single = MetricSpace(("a",), ((F(0),),), 1)
    assert [f.values for f in kuratowski_embed(single)] == [(0,)]


# -- truncation ----------------------------------------------------------------


def test_truncate_max_stays_katetov():
    rng = random.Random(19)
    for _ in range(100):
        space = random_metric_space(rng, max_points=6, max_denom=8, min_diam_steps=2)
        q = space.grid.denom
        fn = KatetovFn(space, random_katetov_values(rng, space, q))
        lam = F(rng.randint(1, int(space.diam_bound * 2 * q) - 1), 2 * q)
        assert is_katetov(truncate_katetov(fn, lam, "max"), space).ok


def test_truncate_min_below_min_is_identity():
    space = two_point()
    fn = elementary_katetov(space, 0)
    assert truncate_katetov(fn, F(1, 2), "min") == (0, F(1, 2))
    capped = KatetovFn.over(space, [F(1, 2), 1])
    assert truncate_katetov(capped, F(1, 2), "min") == (F(1, 2), F(1, 2))


def test_truncate_lambda_out_of_range():
    fn = elementary_katetov(two_point(), 0)
    with pytest.raises(LambdaOutOfRangeError):
        truncate_katetov(fn, 1, "max")
    with pytest.raises(LambdaOutOfRangeError):
        truncate_katetov(fn, 0, "min")


def test_truncations_are_sup_contractions():
    rng = random.Random(23)
    for _ in range(100):
        space = random_metric_space(rng, max_points=6, max_denom=8, min_diam_steps=2)
        q = space.grid.denom
        f = KatetovFn(space, random_katetov_values(rng, space, q))
        g = KatetovFn(space, random_katetov_values(rng, space, q))
        lam = F(rng.randint(1, int(space.diam_bound * 2 * q) - 1), 2 * q)
        base = sup_distance(f, g)
        for mode in ("max", "min"):
            fv = truncate_katetov(f, lam, mode)
            gv = truncate_katetov(g, lam, mode)
            assert max(abs(a - b) for a, b in zip(fv, gv)) <= base


# -- enumeration ---------------------------------------------------------------


def test_enumerate_two_point_denom2_golden():
    fns = [fn.values for fn in enumerate_katetov(two_point(), 2)]
    h = F(1, 2)
    assert fns == [(0, 1), (h, h), (h, 1), (1, 0), (1, h), (1, 1)]


def test_enumerate_singleton():
    single = MetricSpace(("a",), ((F(0),),), 1)
    assert [fn.values for fn in enumerate_katetov(single, 1)] == [(0,), (1,)]


def test_enumerate_matches_naive_filter():
    rng = random.Random(31)
    for _ in range(20):
        space = random_metric_space(rng, max_points=3, max_denom=4)
        q = space.grid.denom
        for denom in (q, 2 * q):
            if denom > 4:
                continue
            got = [fn.values for fn in enumerate_katetov(space, denom)]
            grid = [F(k, denom) for k in range(int(space.diam_bound * denom) + 1)]
            naive = [
                vec
                for vec in product(grid, repeat=space.n_points)
                if is_katetov(vec, space).ok
            ]
            assert got == naive


def test_enumerate_count_monotone_in_denominator():
    space = two_point(F(1, 2))
    c2 = sum(1 for _ in enumerate_katetov(space, 2))
    c4 = sum(1 for _ in enumerate_katetov(space, 4))
    assert c2 <= c4


def test_enumerate_denominator_mismatch():
    with pytest.raises(DenominatorMismatchError):
        list(enumerate_katetov(two_point(F(1, 3)), 2))


def test_enumerate_rejects_a_nonpositive_denominator():
    with pytest.raises(PreconditionError):
        list(enumerate_katetov(two_point(), 0))


# -- the shared feasible interval, from the sampling and the enumerating side ----


def test_random_katetov_values_are_among_the_enumerated_functions():
    rng = random.Random(17)
    for _ in range(40):
        space = random_metric_space(rng, max_points=4, max_denom=4)
        q = space.grid.denom
        every = {fn.values for fn in enumerate_katetov(space, q)}
        for allow_zero in (True, False):
            for _ in range(5):
                assert random_katetov_values(rng, space, q, allow_zero=allow_zero) in every


def test_random_katetov_values_without_zero_never_vanish():
    rng = random.Random(19)
    for _ in range(300):
        space = random_metric_space(rng, max_points=8, max_denom=24)
        q = space.grid.denom
        values = random_katetov_values(rng, space, 2 * q, allow_zero=False)
        assert 0 not in values and is_katetov(values, space).ok



# -- Katetov's one-point completion ------------------------------------------------

BIG_Q = 2**62 - 57  # scaled values past int64 under one addition


def completion_cases(seed):
    """Random spaces with a full Katetov profile on their grid or a finer
    one, then a few on the 1/BIG_Q grid."""
    rng = random.Random(seed)
    for _ in range(150):
        space = random_metric_space(rng, min_points=1)
        yield rng, space, random_katetov_values(rng, space, space.grid.denom * rng.choice([1, 2, 3]))
    for _ in range(15):
        n = rng.randint(1, 6)
        bound = rng.randint(BIG_Q, 2 * BIG_Q)
        space = MetricSpace.from_grid([f"p{i}" for i in range(n)], _grow_scaled_matrix(rng, n, bound), BIG_Q, bound)
        yield rng, space, random_katetov_values(rng, space, BIG_Q)


@pytest.mark.parametrize("seed", range(3))
def test_katetov_completion_is_the_largest_katetov_extension(seed):
    grew = 0
    for rng, space, xi in completion_cases(seed):
        n = space.n_points
        denom, rows, bound, vals = metric.lift(space, xi)
        anchors = sorted(rng.sample(range(n), rng.randint(1, n)))
        g = metric.katetov_completion(rows, anchors, [vals[s] for s in anchors], bound, range(n))
        assert is_katetov([F(v, denom) for v in g], space)
        assert [g[s] for s in anchors] == [vals[s] for s in anchors]
        assert all(gw >= v for gw, v in zip(g, vals))
        grew += g != vals
        targets = rng.sample(range(n), rng.randint(0, n))
        assert metric.katetov_completion(rows, anchors, [vals[s] for s in anchors], bound, targets) == [
            g[w] for w in targets
        ]
    assert grew
