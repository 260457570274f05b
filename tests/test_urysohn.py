"""urysohn-lab: extensions, saturation rounds, back-and-forth, chains."""

import inspect
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mslab import (
    Approximant,
    BFState,
    MetricSpace,
    back_and_forth_extend,
    finite_injectivity_check,
    fraisse_step,
    injectivity_chain,
    is_katetov,
    ma_extension,
    nonproper_witness,
    prop53_extension,
    uwmt_extension,
    validate_metric,
)
from mslab.errors import (
    BudgetExceededError,
    DiameterExceededError,
    EmptyStateError,
    IndexClashError,
    LambdaOutOfRangeError,
    NonSquareError,
    PreconditionAError,
    PreconditionError,
    PreconditionBError,
    UnsaturatedError,
)
from mslab.randgen import random_ma_request, random_metric_space
from mslab.urysohn import _subsets_lex

F = Fraction


def space_of(labels, rows, bound):
    return MetricSpace(tuple(labels), tuple(tuple(F(v) if not isinstance(v, F) else v for v in r) for r in rows), bound)


# -- ma_extension --------------------------------------------------------------


def test_ma_spec_example():
    sp = space_of("xyz", [[0, F(1, 10), F(1, 2)], [F(1, 10), 0, F(3, 5)], [F(1, 2), F(3, 5), 0]], 1)
    out, yp = ma_extension(sp, (2,), 0, 1, F(1, 4))
    # restriction keeps {x, z}; the new point sits at delta from x
    assert out.d[yp][0] == F(1, 4)
    assert out.d[yp][1] == F(3, 5)
    assert validate_metric(out.d, out.diam_bound).ok


def test_ma_empty_landmarks():
    sp = space_of("xy", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    out, yp = ma_extension(sp, (), 0, 1, F(1, 3))
    assert out.n_points == 2 and out.d[yp][0] == F(1, 3)


def test_ma_precondition_b():
    sp = space_of("xyz", [[0, F(1, 8), F(1, 10)], [F(1, 8), 0, F(1, 10)], [F(1, 10), F(1, 10), 0]], 1)
    with pytest.raises(PreconditionBError) as err:
        ma_extension(sp, (2,), 0, 1, F(1, 2))
    assert err.value.z == 2


def test_ma_precondition_a():
    sp = space_of("xyz", [[0, F(1, 2), F(1, 8)], [F(1, 2), 0, F(5, 8)], [F(1, 8), F(5, 8), 0]], 1)
    with pytest.raises(PreconditionAError):
        ma_extension(sp, (2,), 0, 1, F(1, 4))


def test_ma_delta_at_diameter_rejected():
    sp = space_of("xy", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    with pytest.raises(DiameterExceededError):
        ma_extension(sp, (), 0, 1, 1)


def test_ma_random_battery_small():
    rng = random.Random(1)
    for _ in range(300):
        space, F_, x, y, delta = random_ma_request(rng, max_points=6, max_denom=12)
        out, yp = ma_extension(space, F_, x, y, delta)
        xi = sorted(set(F_) | {x}).index(x)
        assert out.d[yp][xi] == delta


# -- uwmt_extension ------------------------------------------------------------


def test_uwmt_spec_example():
    sp = space_of("xyz", [[0, F(1, 5), F(1, 2)], [F(1, 5), 0, F(3, 5)], [F(1, 2), F(3, 5), 0]], 1)
    out, primes = uwmt_extension(sp, 0, 1, [2])
    zp = primes[0]
    assert out.d[2][zp] == F(1, 5)       # displacement = d(x, y)
    assert out.d[0][zp] == F(7, 10)      # one-leg value is already consistent here
    assert out.d[1][zp] == F(1, 2)       # copy of d(x, z)
    assert validate_metric(out.d, out.diam_bound).ok


def test_uwmt_empty_mirror_set():
    sp = space_of("xy", [[0, F(1, 5)], [F(1, 5), 0]], 1)
    out, primes = uwmt_extension(sp, 0, 1, [])
    assert primes == [] and out.d == sp.d


def test_uwmt_index_clash():
    sp = space_of("xy", [[0, F(1, 5)], [F(1, 5), 0]], 1)
    with pytest.raises(IndexClashError):
        uwmt_extension(sp, 0, 0, [1])


def test_uwmt_one_leg_recipe_breaks_but_completion_holds():
    """Regression: the one-leg cross recipe min(d(z_i,z_j)+e, bound) fails
    the triangle through y on this 4-point instance; the shortest-path
    completion is valid and keeps every copied distance."""
    sp = space_of(
        ["x", "y", "z1", "z2"],
        [
            [0, F(1, 5), F(1, 2), F(1, 2)],
            [F(1, 5), 0, F(3, 10), F(7, 10)],
            [F(1, 2), F(3, 10), 0, 1],
            [F(1, 2), F(7, 10), 1, 0],
        ],
        1,
    )
    assert validate_metric(sp.d, 1).ok
    e = F(1, 5)
    zs = [0, 2, 3]
    naive = [row[:] for row in [list(r) for r in sp.d]]
    for j in (1, 2):  # z'_1, z'_2 appended
        col = []
        for i in range(4):
            if i == 1:
                col.append(sp.d[0][zs[j]])  # y copies d(x, z_j)
            else:
                col.append(min(sp.d[i][zs[j]] + e, F(1)))
        for i in range(4):
            naive[i].append(col[i])
    naive.append([naive[i][4] for i in range(4)] + [0, sp.d[zs[1]][zs[2]]])
    naive.append([naive[i][5] for i in range(4)] + [sp.d[zs[1]][zs[2]], 0])
    assert validate_metric(naive, 1).reason == "triangle"

    out, primes = uwmt_extension(sp, 0, 1, [2, 3])
    assert validate_metric(out.d, 1).ok
    prime_of = {0: 1, 1: primes[0], 2: primes[1]}
    for i in range(3):
        for j in range(3):
            assert out.d[prime_of[i]][prime_of[j]] == sp.d[zs[i]][zs[j]]
        if i > 0:
            assert out.d[zs[i]][prime_of[i]] == e


def test_uwmt_copy_exactness_random():
    rng = random.Random(77)
    for _ in range(200):
        sp = random_metric_space(rng, min_points=2, max_points=7, max_denom=16)
        pts = list(range(sp.n_points))
        rng.shuffle(pts)
        x, y = pts[0], pts[1]
        Z = sorted(pts[2 : 2 + rng.randint(0, min(4, sp.n_points - 2))])
        out, primes = uwmt_extension(sp, x, y, Z)
        keep = sorted({x, y, *Z})
        pos = {orig: i for i, orig in enumerate(keep)}
        zs = [x, *Z]
        prime_of = {0: pos[y], **{i + 1: primes[i] for i in range(len(Z))}}
        for i in range(len(zs)):
            for j in range(len(zs)):
                assert out.d[prime_of[i]][prime_of[j]] == sp.d[zs[i]][zs[j]]


# -- prop53_extension / back_and_forth ------------------------------------------


def make_state(space, pairs, eps):
    return BFState.create(Approximant.from_space(space, space.grid.denom, 2), pairs, eps)


def test_prop53_spec_example():
    sp = space_of("xyz", [[0, F(1, 4), F(1, 2)], [F(1, 4), 0, F(3, 5)], [F(1, 2), F(3, 5), 0]], 1)
    st = make_state(sp, [(0, 1)], F(1, 4))
    out, zp = prop53_extension(st, 2)
    assert out.d[zp][1] == F(1, 2)   # transported: d(z', y) = d(z, x)
    assert out.d[zp][0] == F(3, 4)
    assert out.d[zp][2] == F(1, 4)
    assert validate_metric(out.d, out.diam_bound).ok


def test_prop53_identity_pairs_duplicate_profile():
    sp = space_of("abz", [[0, F(1, 2), F(1, 4)], [F(1, 2), 0, F(3, 4)], [F(1, 4), F(3, 4), 0]], 1)
    st = make_state(sp, [(0, 0), (1, 1)], F(1, 8))
    out, zp = prop53_extension(st, 2)
    assert out.d[zp][0] == sp.d[2][0] and out.d[zp][1] == sp.d[2][1]
    assert out.d[zp][2] == F(1, 8)   # eps smaller than 2 * min distance


def test_prop53_empty_pairs_rejected():
    sp = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    st = BFState(Approximant.from_space(sp, 2, 2), (), F(1, 4))
    with pytest.raises(EmptyStateError):
        prop53_extension(st, 1)


@pytest.mark.parametrize(
    "pairs,eps,error,message",
    [
        (((-1, 0),), 1, PreconditionError, "point index -1 out of range"),
        (((0, -1),), 1, PreconditionError, "point index -1 out of range"),
        (((99, 0),), 1, PreconditionError, "point index 99 out of range"),
        (((0, 0),), 0, PreconditionError, "eps must be positive"),
        (((0, 0), (0, 1)), 1, IndexClashError, "duplicate domain indices"),
        (((0, 1),), F(1, 4), PreconditionError, "pair 0 is 1/2 apart, above eps 1/4"),
        (((0, 0), (1, 0)), 1, PreconditionError, "pairs 0 and 1 break the isometry condition"),
    ],
)
def test_bfstate_constructor_checks_like_create(pairs, eps, error, message):
    # the dataclass constructor checks what `create` checks: an index out of
    # range is refused, not wrapped (-1) or left to numpy (99)
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    a = fraisse_step(Approximant.from_space(seed, 2, 2))
    for build in (BFState, BFState.create):
        with pytest.raises(error, match=message):
            build(a, pairs, eps)


def test_prop53_probe_in_domain_rejected():
    sp = space_of("abz", [[0, F(1, 2), F(1, 4)], [F(1, 2), 0, F(3, 4)], [F(1, 4), F(3, 4), 0]], 1)
    st = make_state(sp, [(0, 0)], F(1, 4))
    with pytest.raises(IndexClashError):
        prop53_extension(st, 0)


def test_prop53_per_pair_recipe_breaks_but_completion_holds():
    """Regression: reading d(z', x_i) = min(bound, a_i + e_i) per pair
    violates the triangle between the two x's on this colinear instance;
    the completion validates and keeps the transported distances."""
    sp = space_of(
        ["x1", "x2", "y1", "y2", "z"],
        [
            [0, F(1, 8), F(1, 2), F(3, 8), F(3, 8)],
            [F(1, 8), 0, F(3, 8), F(1, 4), F(1, 4)],
            [F(1, 2), F(3, 8), 0, F(1, 8), F(1, 4)],
            [F(3, 8), F(1, 4), F(1, 8), 0, F(1, 8)],
            [F(3, 8), F(1, 4), F(1, 4), F(1, 8), 0],
        ],
        1,
    )
    assert validate_metric(sp.d, 1).ok
    eps = F(1, 2)
    a1, a2 = sp.d[4][0], sp.d[4][1]
    per_pair = [
        min(F(1), a1 + sp.d[0][2]),
        min(F(1), a2 + sp.d[1][3]),
        a1,
        a2,
        min(eps, a1 + sp.d[4][2], a2 + sp.d[4][3]),
    ]
    rows = [list(r) + [per_pair[i]] for i, r in enumerate(sp.d)]
    rows.append(per_pair + [0])
    assert validate_metric(rows, 1).reason == "triangle"

    st = make_state(sp, [(0, 2), (1, 3)], eps)
    out, zp = prop53_extension(st, 4)
    assert validate_metric(out.d, 1).ok
    assert out.d[zp][2] == a1 and out.d[zp][3] == a2
    assert out.d[zp][4] <= eps


def test_back_and_forth_keeps_isometry():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    approx = fraisse_step(fraisse_step(Approximant.from_space(seed, 4, 2)))
    st = BFState.create(approx, [(0, 0)], F(1, 4))
    st2 = back_and_forth_extend(st, 1)
    z, w = st2.pairs[-1]
    assert approx.dist(z, w) <= F(1, 4)
    assert approx.dist(w, 0) == approx.dist(z, 0)


def test_back_and_forth_unsaturated_seed():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    st = BFState.create(Approximant.from_space(seed, 4, 2), [(0, 0)], F(1, 4))
    with pytest.raises(UnsaturatedError):
        back_and_forth_extend(st, 1)


# -- fraisse_step / finite_injectivity_check -------------------------------------


def test_fraisse_single_point_seed_first_round():
    seed = MetricSpace(("a",), ((F(0),),), 1)
    approx = fraisse_step(Approximant.from_space(seed, 2, 1))
    # values {1/2, 1} at the point need realizing; 0 is the point itself
    assert approx.n_points == 3
    assert sorted(approx.dist(0, i) for i in (1, 2)) == [F(1, 2), F(1)]


def test_fraisse_postcondition_and_snapshot():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    a0 = Approximant.from_space(seed, 4, 2)
    a1 = fraisse_step(a0)
    a2 = fraisse_step(a1)
    assert a2.round_sizes[:2] == [2, a1.n_points]
    rep = finite_injectivity_check(a2, a2.snapshot(1), 2, 4)
    assert rep.verdict == "pass"
    # no round-2 record re-realizes a subset of the seed generation
    assert all(max(rec.subset) >= a2.round_sizes[0] for rec in a2.log if rec.round == 2)


def test_fraisse_budget_exceeded():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    with pytest.raises(BudgetExceededError):
        fraisse_step(Approximant.from_space(seed, 4, 2), budget=5)


def test_injectivity_check_fails_on_unsaturated_seed():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    a0 = Approximant.from_space(seed, 2, 1)
    rep = finite_injectivity_check(a0, range(2), 1, 2)
    assert rep.verdict == "fail"
    assert rep.witness["subset"] == [0]


def test_injectivity_check_k0_vacuous():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    a0 = Approximant.from_space(seed, 2, 1)
    assert finite_injectivity_check(a0, range(2), 0, 2).verdict == "pass"


def test_full_approximant_matrix_validates():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    approx = fraisse_step(fraisse_step(Approximant.from_space(seed, 4, 2)))
    ms = approx.as_metric_space()
    assert validate_metric(ms.d, ms.diam_bound).ok


def round_one():
    seed = space_of("ab", [[0, F(1, 2)], [F(1, 2), 0]], 1)
    return fraisse_step(Approximant.from_space(seed, 2, 1))


@pytest.mark.parametrize("indices", [[-1, 0], [0, 99], [99]])
def test_approximant_restrict_space_rejects_an_index_out_of_range(indices):
    with pytest.raises(PreconditionError, match="out of range"):
        round_one().restrict_space(indices)


@pytest.mark.parametrize("indices", [[1, 1], [0, 2, 0]])
def test_approximant_restrict_space_rejects_a_repeated_index(indices):
    with pytest.raises(IndexClashError, match="duplicate indices"):
        round_one().restrict_space(indices)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (99, 0)])
def test_approximant_dist_rejects_an_index_out_of_range(i, j):
    with pytest.raises(PreconditionError, match="out of range"):
        round_one().dist(i, j)


@pytest.mark.parametrize("rows", [[[0, 1]], [[0, 1], [1]], [[0, 1], [1, 0], [0, 0]]])
def test_approximant_from_grid_refuses_a_matrix_that_is_not_square(rows):
    with pytest.raises(NonSquareError, match="not 2 x 2"):
        Approximant.from_grid(["a", "b"], rows, 2, 2, 2)


@pytest.mark.parametrize("rows", [[[0, 1.5], [1.5, 0]], np.array([[0, 1.5], [1.5, 0]])])
def test_approximant_from_grid_refuses_a_non_integer_distance(rows):
    # refused, never truncated: 1.5 read as 1 would give dist(0, 1) = 1/2 where 3/4 was asked
    with pytest.raises(TypeError):
        Approximant.from_grid(["a", "b"], rows, 2, 2, 2)
    assert Approximant.from_grid(["a", "b"], [[0, 1], [1, 0]], 2, 2, 2).dist(0, 1) == Fraction(1, 2)


def test_subsets_are_generated_in_lexicographic_order():
    got = _subsets_lex(range(12), 3)
    assert inspect.isgenerator(got)
    assert list(got) == sorted(s for k in (1, 2, 3) for s in itertools.combinations(range(12), k))
    assert list(_subsets_lex([5, 1, 3], 0)) == []
    # 4.5e9 subsets of at most three of 3000 points: the first comes at once
    tracemalloc.start()
    try:
        assert next(_subsets_lex(range(3000), 3)) == (0,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak


# -- injectivity_chain -----------------------------------------------------------


def test_chain_spec_examples():
    ch = injectivity_chain(F(1, 2), 1, 1)
    assert ch.n_points == 3
    assert ch.d[0][1] == ch.d[1][2] == F(1, 2) and ch.d[0][2] == 1

    ch = injectivity_chain(F(1, 4), F(1, 4), 1)
    assert ch.n_points == 2 and ch.d[0][1] == F(1, 4)

    ch = injectivity_chain(F(1, 3), F(1, 2), 1)
    assert ch.n_points == 3 and ch.d[0][2] == F(1, 2)


def test_chain_short_closing_needs_two_steps():
    ch = injectivity_chain(F(1, 2), F(1, 4), 1)
    assert ch.n_points == 3
    assert ch.d[0][1] == ch.d[1][2] == F(1, 2) and ch.d[0][2] == F(1, 4)


def test_chain_random_battery_small():
    rng = random.Random(13)
    for _ in range(300):
        q = rng.randint(1, 16)
        bound_steps = rng.randint(2, 2 * q)
        bound = F(bound_steps, q)
        r = F(rng.randint(1, bound_steps), q)
        s = F(rng.randint(1, bound_steps), q)
        ch = injectivity_chain(r, s, bound)
        n = ch.n_points - 1
        assert ch.d[0][n] == s
        if n >= 2 or r == s:
            assert all(ch.d[i][i + 1] == r for i in range(n))


# -- nonproper_witness ------------------------------------------------------------


def test_nonproper_spec_examples():
    sp = space_of("xz", [[0, F(1, 4)], [F(1, 4), 0]], 1)
    out, y = nonproper_witness(sp, 0, [1], F(1, 2))
    assert out.d[y][0] == F(1, 2) and out.d[y][1] == F(1, 2)

    sp2 = space_of("xz", [[0, F(9, 10)], [F(9, 10), 0]], 1)
    out2, y2 = nonproper_witness(sp2, 0, [1], F(1, 2))
    assert out2.d[y2][1] == F(9, 10)
    assert validate_metric(out2.d, 1).ok

    sp3 = space_of("x", [[0]], 1)
    out3, y3 = nonproper_witness(sp3, 0, [], F(1, 2))
    assert out3.n_points == 2 and out3.d[y3][0] == F(1, 2)


def test_nonproper_profile_is_katetov():
    rng = random.Random(29)
    for _ in range(100):
        sp = random_metric_space(rng, min_points=2, max_points=7, max_denom=12)
        if sp.diam_bound <= F(1, 2):
            continue
        pts = list(range(sp.n_points))
        rng.shuffle(pts)
        x = pts[0]
        Z = sorted(pts[1 : 1 + rng.randint(0, sp.n_points - 1)])
        out, y = nonproper_witness(sp, x, Z, F(1, 2))
        base = out.restrict(range(out.n_points - 1))
        assert is_katetov([out.d[y][i] for i in range(out.n_points - 1)], base).ok


def test_nonproper_lambda_range():
    sp = space_of("xz", [[0, F(1, 4)], [F(1, 4), 0]], 1)
    with pytest.raises(LambdaOutOfRangeError):
        nonproper_witness(sp, 0, [1], 1)
