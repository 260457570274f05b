"""weak-uniformity: landmark seminorms, proximity, nets, restriction."""

import itertools
import random
from fractions import Fraction

import pytest

from mslab import (
    KatetovFn,
    LandmarkSet,
    MetricSpace,
    MetricVerdict,
    elementary_katetov,
    gromov_net_indices,
    proximity_test,
    restrict_katetov,
    sup_distance,
    weak_seminorm,
)
from mslab.errors import EmptySubsetError, IndexClashError
from mslab.randgen import random_katetov_values, random_metric_space
from mslab.weak import PROXIMITY_CAVEAT

F = Fraction


def validate_pseudometric(d) -> MetricVerdict:
    """Oracle: the checks of `validate_metric` on a Fraction matrix, with
    zero off-diagonal entries allowed and no diameter bound."""
    n = len(d)
    pairs = list(itertools.combinations(range(n), 2))
    if bad := [(i, j) for i, j in pairs if d[i][j] != d[j][i]]:
        return MetricVerdict(False, "not-symmetric", bad[0])
    if bad := [i for i in range(n) if d[i][i] != 0]:
        return MetricVerdict(False, "nonzero-diagonal", (bad[0],))
    if bad := [(i, j) for i, j in pairs if d[i][j] < 0]:
        return MetricVerdict(False, "nonpositive-off-diagonal", bad[0])
    for i, j, k in itertools.product(range(n), repeat=3):
        if d[i][j] > d[i][k] + d[k][j]:
            return MetricVerdict(False, "triangle", (i, j, k))
    return MetricVerdict(True)


def equilateral():
    h = F(1, 2)
    return MetricSpace(("a", "b", "c"), ((0, h, h), (h, 0, h), (h, h, 0)), 1)


def equilateral_unit():
    return MetricSpace(("a", "b", "c"), ((0, 1, 1), (1, 0, 1), (1, 1, 0)), 1)


def test_landmark_set_validation():
    with pytest.raises(EmptySubsetError):
        LandmarkSet(equilateral(), ())
    with pytest.raises(IndexClashError):
        LandmarkSet(equilateral(), (0, 0))


def test_seminorm_all_landmarks_recovers_metric():
    rng = random.Random(2)
    spaces = [MetricSpace(("a",), ((0,),), F(1, 3)), MetricSpace(("a", "b"), ((0, F(2, 3)), (F(2, 3), 0)), 1)]
    spaces += [random_metric_space(rng, max_points=6, max_denom=10) for _ in range(40)]
    for sp in spaces:
        rho = weak_seminorm(LandmarkSet(sp, tuple(range(sp.n_points))))
        denom, rows, _ = sp.grid
        assert rho == sp.d == tuple(tuple(F(v, denom) for v in row) for row in rows)
        assert all(type(row) is tuple for row in rho)


def test_seminorm_single_landmark_equidistant_pair():
    rho = weak_seminorm(LandmarkSet(equilateral_unit(), (0,)))
    assert rho[1][2] == 0
    assert rho[0][1] == 1


def test_seminorm_is_pseudometric_and_dominated():
    rng = random.Random(4)
    for _ in range(60):
        sp = random_metric_space(rng, max_points=6, max_denom=10)
        k = rng.randint(1, sp.n_points)
        F_set = tuple(sorted(random.Random(k).sample(range(sp.n_points), k)))
        rho = weak_seminorm(LandmarkSet(sp, F_set))
        assert validate_pseudometric(rho).ok
        for i in range(sp.n_points):
            for j in range(sp.n_points):
                assert rho[i][j] <= sp.d[i][j]


def test_seminorm_monotone_in_landmarks():
    rng = random.Random(8)
    for _ in range(40):
        sp = random_metric_space(rng, min_points=3, max_points=6, max_denom=10)
        pts = list(range(sp.n_points))
        rng.shuffle(pts)
        small = tuple(sorted(pts[:1]))
        big = tuple(sorted(pts[: rng.randint(2, sp.n_points)]))
        sm = weak_seminorm(LandmarkSet(sp, small))
        bg = weak_seminorm(LandmarkSet(sp, big))
        for i in range(sp.n_points):
            for j in range(sp.n_points):
                assert sm[i][j] <= bg[i][j]


def test_proximity_reflexive_pass():
    rep = proximity_test([1], [1], LandmarkSet(equilateral(), (0,)), F(1, 4))
    assert rep.verdict == "pass" and rep.witness == {"a": 1, "b": 1}
    assert rep.caveat == PROXIMITY_CAVEAT


def test_proximity_large_eps_always_passes():
    sp = equilateral_unit()
    rep = proximity_test([0], [2], LandmarkSet(sp, (1,)), 2)
    assert rep.verdict == "pass"


def test_proximity_spec_equilateral_example():
    rep = proximity_test([1], [2], LandmarkSet(equilateral_unit(), (0,)), F(1, 2))
    assert rep.verdict == "pass"  # both at distance 1 from the landmark


def test_proximity_fail_case_and_strictness():
    sp = equilateral_unit()
    # gap is exactly 1 at the landmark itself: strict < 1 must fail
    rep = proximity_test([0], [1], LandmarkSet(sp, (0,)), 1)
    assert rep.verdict == "fail"
    rep2 = proximity_test([0], [1], LandmarkSet(sp, (0,)), F(3, 2))
    assert rep2.verdict == "pass"


def test_proximity_more_landmarks_only_harder():
    rng = random.Random(21)
    for _ in range(60):
        sp = random_metric_space(rng, min_points=3, max_points=6, max_denom=10)
        pts = list(range(sp.n_points))
        rng.shuffle(pts)
        a, b = [pts[0]], [pts[1]]
        small = tuple(sorted(pts[2:3])) or (pts[0],)
        big = tuple(sorted(set(small) | {pts[rng.randrange(sp.n_points)]}))
        q = sp.grid.denom
        eps = F(rng.randint(1, int(sp.diam_bound * q)), q)
        if proximity_test(a, b, LandmarkSet(sp, big), eps).verdict == "pass":
            assert proximity_test(a, b, LandmarkSet(sp, small), eps).verdict == "pass"


def test_net_single_representative_for_huge_eps():
    sp = equilateral_unit()
    reps = gromov_net_indices(LandmarkSet(sp, (0, 1, 2)), 2)
    assert reps == [0]


def test_net_all_points_when_eps_below_min_distance():
    sp = equilateral_unit()
    reps = gromov_net_indices(LandmarkSet(sp, (0, 1, 2)), F(1, 2))
    assert reps == [0, 1, 2]


def test_net_is_separated_maximal_and_covering():
    rng = random.Random(17)
    for _ in range(50):
        sp = random_metric_space(rng, max_points=7, max_denom=10)
        k = rng.randint(1, sp.n_points)
        land = LandmarkSet(sp, tuple(sorted(rng.sample(range(sp.n_points), k))))
        q = sp.grid.denom
        eps = F(rng.randint(1, 2 * int(sp.diam_bound * q)), q)
        reps = gromov_net_indices(land, eps)
        rho = weak_seminorm(land)
        for i, r1 in enumerate(reps):
            for r2 in reps[i + 1 :]:
                assert rho[r1][r2] >= eps
        for z in range(sp.n_points):
            assert any(rho[z][r] < eps for r in reps)


def test_net_size_nonincreasing_in_eps():
    rng = random.Random(19)
    for _ in range(40):
        sp = random_metric_space(rng, max_points=7, max_denom=10)
        land = LandmarkSet(sp, tuple(range(sp.n_points)))
        small = len(gromov_net_indices(land, F(1, 4)))
        large = len(gromov_net_indices(land, F(1, 2)))
        assert large <= small


def test_restrict_full_set_is_identity():
    sp = equilateral()
    fn = elementary_katetov(sp, 0)
    out = restrict_katetov(fn, range(3))
    assert out.values == fn.values and out.space.d == sp.d


def test_restrict_elementary_outside_subset_still_katetov():
    sp = equilateral()
    fn = elementary_katetov(sp, 2)
    out = restrict_katetov(fn, [0, 1])
    assert out.space.n_points == 2
    assert out.values == (F(1, 2), F(1, 2))


def test_restrict_empty_rejected():
    with pytest.raises(EmptySubsetError):
        restrict_katetov(elementary_katetov(equilateral(), 0), [])


def test_restrict_never_increases_sup_distance():
    rng = random.Random(23)
    for _ in range(80):
        sp = random_metric_space(rng, max_points=7, max_denom=10)
        q = sp.grid.denom
        f = KatetovFn(sp, random_katetov_values(rng, sp, q))
        g = KatetovFn(sp, random_katetov_values(rng, sp, q))
        k = rng.randint(1, sp.n_points)
        subset = sorted(rng.sample(range(sp.n_points), k))
        assert sup_distance(restrict_katetov(f, subset), restrict_katetov(g, subset)) <= sup_distance(f, g)


def test_restriction_collapses_distinct_functions():
    """Two radial profiles that agree on the unit sphere sample collapse
    under restriction: the finite-scale fiber phenomenon."""
    from mslab.banach import profile_flat_then_identity, profile_vee

    # a two-point normed-space sample: v at norm 1/2 and w at norm 1, opposite rays
    sp = MetricSpace(("v", "w"), ((0, F(3, 2)), (F(3, 2), 0)), 3)
    flat, vee = profile_flat_then_identity(), profile_vee()
    f = KatetovFn.over(sp, [flat.eval(F(1, 2)), flat.eval(1)])
    g = KatetovFn.over(sp, [vee.eval(F(1, 2)), vee.eval(1)])
    assert sup_distance(f, g) == F(1, 2)
    rf, rg = restrict_katetov(f, [1]), restrict_katetov(g, [1])
    assert sup_distance(rf, rg) == 0
