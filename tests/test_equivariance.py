"""The explicit recipes commute with relabelling the points.

Katetov's one-point extension is functorial, so every recipe built on it
commutes with isometries (Uspenskij 1990, "On the group of isometries of the
Urysohn universal metric space"). Here the isometry is a seeded random
permutation of a space's points. Permuting the points and relabelling every
index argument to match must give the same output, compared as a map from
label pairs to distances, or raise the same error type.
"""

import itertools
import random
from fractions import Fraction

import pytest

from mslab.errors import MslabError
from mslab.metric import KatetovFn, MetricSpace, PartialIsometry, amalgamate, extend_by_katetov, katetov_completion
from mslab.randgen import random_katetov_values, random_ma_request, random_metric_space
from mslab.urysohn import (
    Approximant, BFState, finite_injectivity_check, fraisse_step, ma_extension, nonproper_witness, prop53_extension,
    uwmt_extension,
)
from mslab.weak import LandmarkSet, weak_seminorm

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


def amalgam(space, y_space, glue, bound):
    return distances(amalgamate(space, y_space, glue, bound))


def draw_amalgam(rng):
    """X, and a Y that copies some of X's points in a random order plus one
    new point; the glue matches a prefix of the copies, or a shuffle of it."""
    space = random_metric_space(rng, 1, 6, 8)
    n = space.n_points
    shared = rng.sample(range(n), rng.randint(1, n))
    y_space = space.restrict(shared)
    y_space, _ = extend_by_katetov(KatetovFn(y_space, random_katetov_values(rng, y_space, 2 * y_space.grid.denom, False)))
    g = rng.randint(0, len(shared))
    image = list(range(g))
    if rng.random() < 0.3:
        rng.shuffle(image)  # often no longer a partial isometry
    bound = rng.choice([None, space.diam_bound, 2 * space.diam_bound, some_level(rng)])

    def relabel(sigma, y_space, glue, bound):
        return y_space, PartialIsometry([sigma[s] for s in glue.domain], glue.image), bound

    return space, (y_space, PartialIsometry(shared[:g], image), bound), relabel


def test_amalgamate_commutes_with_relabelling():
    kinds = compare(7, draw_amalgam, amalgam)
    assert {"ok", "EmptyGlueError", "PreconditionError"} <= kinds, kinds


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
