"""The explicit recipes commute with relabelling the points and with
rescaling the distances, and the verdicts do not depend on the point order.

Katetov's one-point extension is functorial, so every recipe built on it
commutes with isometries (Uspenskij 1990, "On the group of isometries of the
Urysohn universal metric space"). Here the isometry is a seeded random
permutation of a space's points. Permuting the points and relabelling every
index argument to match must give the same output, compared as a map from
label pairs to distances, or raise the same error type. Multiplying every
distance, the bound and the prescribed rational by c > 0 must multiply the
output's distances by c; the grid changes with c, so this runs `lift` and
the least-grid reduction. A verdict is the same under a permutation, though
its witness, a first index in lexicographic order, may move.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from mslab.errors import MslabError
from mslab.metric import MetricSpace, cap_metric, is_katetov, katetov_completion, validate_metric
from mslab.randgen import random_katetov_values, random_ma_request, random_metric_space
from mslab.urysohn import (
    Approximant, BFState, finite_injectivity_check, fraisse_step, ma_extension, nonproper_witness, prop53_extension,
    uwmt_extension,
)
from mslab.weak import LandmarkSet, proximity_test, weak_seminorm

TRIALS = 600


def permuted(space: MetricSpace, rng: random.Random) -> tuple[MetricSpace, list[int]]:
    """The space with its points in a random order, and sigma, which sends
    each old index to its new one."""
    order = list(range(space.n_points))
    rng.shuffle(order)
    sigma = [0] * len(order)
    for new, old in enumerate(order):
        sigma[old] = new
    denom, rows, bound = space.grid
    relabelled = MetricSpace.from_grid(
        [space.labels[i] for i in order], [[rows[i][j] for j in order] for i in order], denom, bound
    )
    return relabelled, sigma


def distances(space: MetricSpace) -> tuple[Fraction, dict]:
    """The diameter bound and the map from label pairs to distances."""
    labels = space.labels
    return space.diam_bound, {
        (a, b): space.dist(i, j) for i, a in enumerate(labels) for j, b in enumerate(labels)
    }


def outcome(recipe, *args):
    """The recipe's output in label terms, or the type of its error."""
    try:
        return recipe(*args)
    except MslabError as exc:
        return type(exc)


def some_points(rng: random.Random, n: int) -> list[int]:
    """A few indices of an n-point space, in random order, repeats possible."""
    return [rng.randrange(n) for _ in range(rng.randint(0, 3))]


def some_level(rng: random.Random) -> Fraction:
    """A rational that is sometimes outside a space's (0, diameter) window."""
    return Fraction(rng.randint(-1, 16), rng.randint(1, 8))


def compare(seed: int, draw, recipe) -> set[str]:
    """Over TRIALS draws of (space, args, relabel), assert that the recipe
    has one outcome on the space and on its permutation with the args
    relabelled; return the kinds of outcome seen, "ok" or an error name."""
    rng = random.Random(seed)
    kinds = set()
    for _ in range(TRIALS):
        space, args, relabel = draw(rng)
        moved, sigma = permuted(space, rng)
        before = outcome(recipe, space, *args)
        assert outcome(recipe, moved, *relabel(sigma, *args)) == before
        kinds.add(before.__name__ if isinstance(before, type) else "ok")
    return kinds


def completion(space, anchors, values, targets):
    denom, rows, bound = space.grid
    out = katetov_completion(rows, anchors, values, bound, targets)
    return tuple(sorted((space.labels[t], v) for t, v in zip(targets, out)))


def draw_completion(rng):
    space = random_metric_space(rng, 1, 7)
    n, bound = space.n_points, space.grid.bound
    anchors = some_points(rng, n)
    values = [rng.randint(0, bound) for _ in anchors]
    targets = rng.sample(range(n), rng.randint(1, n))

    def relabel(sigma, anchors, values, targets):
        return [sigma[s] for s in anchors], values, [sigma[t] for t in targets]

    return space, (anchors, values, targets), relabel


def test_katetov_completion_commutes_with_relabelling():
    assert compare(1, draw_completion, completion) == {"ok"}


def one_new_point(space_and_index):
    space, new = space_and_index
    return distances(space), space.labels[new]


def ma(space, F, x, y, delta):
    return one_new_point(ma_extension(space, F, x, y, delta))


def draw_ma(rng):
    if rng.random() < 0.5:
        space, F, x, y, delta = random_ma_request(rng, max_points=6, max_denom=8)
    else:
        space = random_metric_space(rng, 2, 6, 8)
        n = space.n_points
        F, x, y, delta = some_points(rng, n), rng.randrange(n), rng.randrange(n), some_level(rng)

    def relabel(sigma, F, x, y, delta):
        return [sigma[z] for z in F], sigma[x], sigma[y], delta

    return space, (F, x, y, delta), relabel


def test_ma_extension_commutes_with_relabelling():
    kinds = compare(2, draw_ma, ma)
    assert "ok" in kinds and len(kinds) > 1, kinds


def uwmt(space, x, y, Z):
    out, new = uwmt_extension(space, x, y, Z)
    return distances(out), [out.labels[i] for i in new]


def draw_uwmt(rng):
    space = random_metric_space(rng, 2, 6, 8)
    n = space.n_points
    args = (rng.randrange(n), rng.randrange(n), some_points(rng, n))

    def relabel(sigma, x, y, Z):
        return sigma[x], sigma[y], [sigma[z] for z in Z]

    return space, args, relabel


def test_uwmt_extension_commutes_with_relabelling():
    kinds = compare(3, draw_uwmt, uwmt)
    assert "ok" in kinds and len(kinds) > 1, kinds


def nonproper(space, x, Z, lam):
    return one_new_point(nonproper_witness(space, x, Z, lam))


def draw_nonproper(rng):
    space = random_metric_space(rng, 2, 6, 8)
    n = space.n_points
    args = (rng.randrange(n), some_points(rng, n), some_level(rng))

    def relabel(sigma, x, Z, lam):
        return sigma[x], [sigma[z] for z in Z], lam

    return space, args, relabel


def test_nonproper_witness_commutes_with_relabelling():
    kinds = compare(4, draw_nonproper, nonproper)
    assert "ok" in kinds and len(kinds) > 1, kinds


def with_point(space, label, profile):
    out = space.with_point(label, profile)
    return one_new_point((out, out.n_points - 1))


def draw_with_point(rng):
    space = random_metric_space(rng, 1, 6, 8)
    n = space.n_points
    if rng.random() < 0.5:
        profile = random_katetov_values(rng, space, space.grid.denom * rng.randint(1, 3))
    else:  # any values, sometimes one too many or too few
        profile = [some_level(rng) for _ in range(n + rng.choice([-1, 0, 0, 1]))]
    label = rng.choice([*space.labels, "y"])  # a taken label gets primed

    def relabel(sigma, label, profile):
        if len(profile) != len(sigma):
            return label, profile  # refused either way
        moved = [None] * len(sigma)
        for old, new in enumerate(sigma):
            moved[new] = profile[old]
        return label, moved

    return space, (label, profile), relabel


def test_with_point_commutes_with_relabelling():
    kinds = compare(6, draw_with_point, with_point)
    assert "ok" in kinds and len(kinds) > 1, kinds


def prop53(space, pairs, eps, z):
    st = BFState.create(Approximant.from_space(space, space.grid.denom, 1), pairs, eps)
    return one_new_point(prop53_extension(st, z))


def draw_prop53(rng):
    space = random_metric_space(rng, 2, 6, 8)
    n = space.n_points
    pairs = [(a, a) for a in some_points(rng, n)]
    if rng.random() < 0.5:  # a moving pair, sometimes past eps or off the isometry
        pairs.append((rng.randrange(n), rng.randrange(n)))
    args = (pairs, some_level(rng), rng.randrange(n))

    def relabel(sigma, pairs, eps, z):
        return [(sigma[a], sigma[b]) for a, b in pairs], eps, sigma[z]

    return space, args, relabel


def test_prop53_extension_commutes_with_relabelling():
    kinds = compare(8, draw_prop53, prop53)
    assert "ok" in kinds and len(kinds) > 2, kinds

def seminorm(space, F):
    rho = weak_seminorm(LandmarkSet(space, F))
    labels = space.labels
    return {(a, b): rho[i][j] for i, a in enumerate(labels) for j, b in enumerate(labels)}


def draw_seminorm(rng):
    space = random_metric_space(rng, 1, 7)
    F = some_points(rng, space.n_points)

    def relabel(sigma, F):
        return ([sigma[z] for z in F],)

    return space, (F,), relabel


def test_weak_seminorm_commutes_with_relabelling():
    # an empty or repeated landmark list is refused either way
    assert compare(5, draw_seminorm, seminorm) >= {"ok", "EmptySubsetError", "IndexClashError"}


# -- verdicts under a permutation of the points --------------------------------


def forms(space: MetricSpace) -> dict:
    """The space's matrix and bound in every form that `validate_metric`
    reads: int rows and an integer ndarray with the int bound of its grid,
    and Fraction rows, str entries and its view with its Fraction bound."""
    denom, rows, bound = space.grid
    exact = [[Fraction(v, denom) for v in row] for row in rows]
    return {
        "int rows": (rows, bound),
        "ndarray": (np.array(rows, dtype=np.int64), bound),
        "Fraction rows": (exact, space.diam_bound),
        "str entries": ([[str(v) for v in row] for row in exact], str(space.diam_bound)),
        "view": (space.d, space.diam_bound),
    }


def scan_verdicts(space):
    """(ok, reason) of `validate_metric` on the space in each form; every
    form gives one verdict, witness included."""
    verdicts = {name: validate_metric(d, b) for name, (d, b) in forms(space).items()}
    assert len(set(verdicts.values())) == 1, verdicts
    return {name: (v.ok, v.reason) for name, v in verdicts.items()}


def draw_matrix(rng):
    """A random space's grid, held as a space although one entry, or a
    symmetric pair, is moved most of the time."""
    space = random_metric_space(rng, 1, 7, 8)
    denom, rows, bound = space.grid
    rows = [list(row) for row in rows]
    if rng.random() < 0.8:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows[i][j] += rng.choice([-1, 1]) * rng.randint(1, bound)
        if rng.random() < 0.7:
            rows[j][i] = rows[i][j]
    return MetricSpace.from_grid(space.labels, rows, denom, bound), (), lambda sigma: ()


def test_validate_metric_verdict_is_the_same_under_a_permutation():
    reasons = set()

    def verdicts(space):
        got = scan_verdicts(space)
        reasons.update(reason for _, reason in got.values())
        return got

    compare(9, draw_matrix, verdicts)
    assert reasons == {None, "not-symmetric", "nonzero-diagonal", "nonpositive-off-diagonal", "exceeds-diameter",
                       "triangle"}, reasons


def draw_values(rng):
    """Katetov values over a random space, one of them often moved by a
    grid step, and sometimes any values."""
    space = random_metric_space(rng, 2, 6, 8)
    denom = space.grid.denom * rng.randint(1, 3)
    values = list(random_katetov_values(rng, space, denom))
    roll = rng.random()
    if roll < 0.6:
        values[rng.randrange(space.n_points)] += Fraction(rng.choice([-1, 1]), denom)
    elif roll < 0.8:
        values = [some_level(rng) for _ in range(space.n_points)]

    def relabel(sigma, values):
        moved = [None] * len(sigma)
        for old, new in enumerate(sigma):
            moved[new] = values[old]
        return (moved,)

    return space, (values,), relabel


def test_is_katetov_verdict_is_the_same_under_a_permutation():
    reasons = set()

    def verdict(space, values):
        # the first pair that breaks may break the other inequality after a
        # permutation, so lipschitz and sum are not told apart
        got = is_katetov(values, space)
        reasons.add(got.reason)
        return got.ok, got.reason == "range"

    compare(10, draw_values, verdict)
    assert reasons == {None, "range", "lipschitz", "sum"}, reasons


def draw_proximity(rng):
    space = random_metric_space(rng, 2, 7, 8)
    n = space.n_points
    F = rng.sample(range(n), rng.randint(1, n)) if rng.random() < 0.9 else some_points(rng, n)
    args = (some_points(rng, n), some_points(rng, n), F, some_level(rng))

    def relabel(sigma, A, B, F, eps):
        return [sigma[a] for a in A], [sigma[b] for b in B], [sigma[z] for z in F], eps

    return space, args, relabel


def test_proximity_verdict_is_the_same_under_a_permutation():
    verdicts = set()

    def verdict(space, A, B, F, eps):
        got = proximity_test(A, B, LandmarkSet(space, F), eps).verdict
        verdicts.add(got)
        return got

    kinds = compare(11, draw_proximity, verdict)
    assert verdicts == {"pass", "fail"} and {"EmptySubsetError", "PreconditionError"} <= kinds, (verdicts, kinds)


# -- recipes under a rescaling of the distances ---------------------------------


def scaled(space: MetricSpace, c: Fraction) -> MetricSpace:
    """The space with every distance and its bound multiplied by c."""
    denom, rows, bound = space.grid
    p, q = c.numerator, c.denominator
    return MetricSpace.from_grid(space.labels, [[v * p for v in row] for row in rows], denom * q, bound * p)


def times(result, c: Fraction):
    """A recipe's output in label terms, (distances, *the rest), with every
    distance and the bound multiplied by c."""
    (bound, dist), *rest = result
    return ((bound * c, {pair: v * c for pair, v in dist.items()}), *rest)


def compare_scaled(seed: int, draw, recipe, rescale) -> set[str]:
    """Over TRIALS draws of (space, args) and a factor c, assert that the
    recipe on the space scaled by c, with `rescale(c, *args)`, gives the
    recipe's output scaled by c, or the same error type; return the kinds of
    outcome seen."""
    rng = random.Random(seed)
    kinds = set()
    for _ in range(TRIALS):
        space, args, _ = draw(rng)
        c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        before = outcome(recipe, space, *args)
        expected = before if isinstance(before, type) else times(before, c)
        assert outcome(recipe, scaled(space, c), *rescale(c, *args)) == expected
        kinds.add(before.__name__ if isinstance(before, type) else "ok")
    return kinds


def test_ma_extension_commutes_with_rescaling():
    kinds = compare_scaled(12, draw_ma, ma, lambda c, F, x, y, delta: (F, x, y, delta * c))
    assert "ok" in kinds and len(kinds) > 1, kinds


def test_uwmt_extension_commutes_with_rescaling():
    kinds = compare_scaled(13, draw_uwmt, uwmt, lambda c, x, y, Z: (x, y, Z))
    assert "ok" in kinds and len(kinds) > 1, kinds


def test_nonproper_witness_commutes_with_rescaling():
    kinds = compare_scaled(14, draw_nonproper, nonproper, lambda c, x, Z, lam: (x, Z, lam * c))
    assert "ok" in kinds and len(kinds) > 1, kinds


def draw_cap(rng):
    return random_metric_space(rng, 1, 6, 8), (some_level(rng),), None


def test_cap_metric_commutes_with_rescaling():
    kinds = compare_scaled(15, draw_cap, lambda space, cap: (distances(cap_metric(space, cap)),),
                           lambda c, cap: (cap * c,))
    assert kinds == {"ok", "PreconditionError"}, kinds


@pytest.mark.parametrize("seed", range(20))
def test_permuted_is_an_isometry(seed):
    rng = random.Random(seed)
    space = random_metric_space(rng, 1, 8)
    moved, sigma = permuted(space, rng)
    assert distances(moved) == distances(space)
    assert all(moved.labels[sigma[i]] == label for i, label in enumerate(space.labels))


# three-point seeds whose round sizes depend on the order of their points;
# the last one's round 2 adds up to 745 points, three 256-column mirror blocks
ORDERED_SEEDS = {
    "denom2": MetricSpace.from_grid(("a", "b", "c"), ((0, 2, 3), (2, 0, 2), (3, 2, 0)), 2, 3),
    "denom1": MetricSpace.from_grid(("a", "b", "c"), ((0, 1, 2), (1, 0, 2), (2, 2, 0)), 1, 2),
    "denom3": MetricSpace.from_grid(("a", "b", "c"), ((0, 1, 4), (1, 0, 3), (4, 3, 0)), 3, 4),
}


@pytest.mark.parametrize("name", ORDERED_SEEDS)
def test_every_round_saturates_its_start_under_every_ordering(name):
    seed = ORDERED_SEEDS[name]
    sizes = set()
    for order in itertools.permutations(range(seed.n_points)):
        a = Approximant.from_space(seed.restrict(order), seed.grid.denom, 2)
        for r in (1, 2):
            a = fraisse_step(a)
            assert finite_injectivity_check(a, a.snapshot(r - 1), 2, a.denom).verdict == "pass"
        sizes.add(tuple(a.round_sizes))
    assert len(sizes) > 1
