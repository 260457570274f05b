"""metric-core: validation, Katetov calculus, enumeration."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslab import metric
from mslab.cli import main
from mslab import (
    KatetovFn,
    MetricSpace,
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
    IndexClashError,
    KatetovViolationError,
    LambdaOutOfRangeError,
    LengthMismatchError,
    NonSquareError,
    PreconditionError,
    SpaceMismatchError,
)
from mslab.rado import rado_metric_space
from mslab.rationals import as_fraction
from mslab.randgen import _grow_scaled_matrix, random_katetov_values, random_metric_space
from mslab.serialization import _dump_json, approximant_to_dict, load_space, space_to_dict
from mslab.urysohn import Approximant, fraisse_step

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
@settings(max_examples=60, deadline=None, derandomize=True)
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


def space_holding(rows, bound):
    """The space whose view is rows, with diameter bound `bound`:
    `from_grid` does not validate, so it holds a corrupted matrix too."""
    q = lcm(F(bound).denominator, *(F(v).denominator for row in rows for v in row))
    grid = [[int(v * q) for v in row] for row in rows]
    return MetricSpace.from_grid([f"p{i}" for i in range(len(rows))], grid, q, int(bound * q))


def view_bounds(space):
    # its own bound; an int, a str, and a bound with a denominator (143)
    # prime to every grid here, which must be lifted onto the grid; 2 - 1/143
    # sits below a pair moved up to 2
    return (space.diam_bound, 3, "5/2", F(2) - F(1, 143))


def view_agrees(rows, bound):
    """validate_metric on the view of the space holding rows gives the
    naive verdict, and the same verdict, witness or error as on a
    plain-tuple copy of the view; so does building a space from it."""
    space = space_holding(rows, bound)
    view, copy = space.d, tuple(map(tuple, space.d))
    assert view.grid is space.grid and type(copy) is tuple and view == copy == tuple(map(tuple, rows))
    for b in view_bounds(space):
        got = validate_metric(view, b)
        assert (got.reason, got.witness) == (naive_validate(rows, as_fraction(b)) or (None, None))
        assert got == validate_metric(copy, b)
        assert MetricSpace(space.labels, view, b) == MetricSpace(space.labels, copy, b)
    for build in (validate_metric, lambda d, b: MetricSpace(space.labels, d, b)):
        errors = []
        for d in (view, copy):
            with pytest.raises(TypeError) as err:
                build(d, 2.0)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None, derandomize=True)
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
    view_agrees(rows, 2)


@given(st.integers(0, 10**9))
@settings(max_examples=6, deadline=None, derandomize=True)
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
        view_agrees(rows, 2)


# The numpy triangle scan sums two entries in the narrowest unsigned dtype
# that holds 2 * bound. Each pair of bounds puts 2 * bound at the top of
# uint8, uint16 or uint32 and just past it.
DTYPE_EDGES = [(127, np.uint8), (128, np.uint16), (32767, np.uint16), (32768, np.uint32),
               (2**31 - 1, np.uint32), (2**31, np.uint64)]


def at_bound(n, bound):
    return [[0 if i == j else bound for j in range(n)] for i in range(n)]


def upper_half(rng, n, bound):
    """Every distance in [bound/2, bound]: a metric whatever the draw."""
    rows = at_bound(n, bound)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint((bound + 1) // 2, bound)
    return rows


def plant_break(rng, rows, bound):
    """Pull two legs a-c, c-b below a quarter of the bound, under d(a, b)."""
    a, b, c = rng.sample(range(len(rows)), 3)
    rows[a][c] = rows[c][a] = rows[c][b] = rows[b][c] = rng.randint(1, bound // 4 - 1)


def scans_agree(rows, bound):
    got = validate_metric(rows, bound)
    hit = metric._triangle_scan_int(rows)
    assert (got.reason, got.witness) == (naive_validate(rows, bound) or (None, None))
    assert (got.reason, got.witness) == (("triangle", hit) if hit else (None, None))
    return got


@pytest.mark.parametrize("bound, dtype", DTYPE_EDGES, ids=[str(b) for b, _ in DTYPE_EDGES])
def test_triangle_scan_at_dtype_edges_matches_naive(bound, dtype):
    assert np.min_scalar_type(2 * bound) == dtype
    rng = random.Random(bound)
    n = metric._NUMPY_MIN_POINTS
    rows = at_bound(n, bound)
    assert scans_agree(rows, bound).ok  # every sum of two legs is 2 * bound
    plant_break(rng, rows, bound)
    assert scans_agree(rows, bound).reason == "triangle"
    rows = upper_half(rng, n, bound)
    for _ in range(2):
        plant_break(rng, rows, bound)
    assert scans_agree(rows, bound).reason == "triangle"


def first_triangle_break(rows):
    """Independent oracle for large matrices: the first (i, j, k) in lex
    order with j != i, k not in (i, j) and d(i,j) > d(i,k) + d(k,j),
    scanned one row i at a time on int64."""
    d = np.array(rows, dtype=np.int64)
    for i in range(len(d)):
        viol = d[i][:, None] > d[i] + d.T  # viol[j, k]
        viol[i, :] = viol[:, i] = False
        np.fill_diagonal(viol, False)
        if viol.any():
            j, k = np.unravel_index(np.argmax(viol), viol.shape)
            return (i, int(j), int(k))
    return None


def first_relay(d, i, j):
    """The least d(i,k) + d(k,j) over k not in (i, j), and its first k."""
    sums = [(d[i][k] + d[k][j], k) for k in range(len(d)) if k not in (i, j)]
    return min(sums)


def raise_pair(d, i, j):
    """Raise d(i,j) one above its least relay, so that only (i, j) breaks,
    through exactly the k that reach that least relay."""
    least, k = first_relay(d, i, j)
    d[i][j] = d[j][i] = least + 1
    return k


@pytest.fixture(scope="module")
def big_spaces():
    seed = MetricSpace(("a", "b"), ((0, F(1, 2)), (F(1, 2), 0)), 1)
    approx = fraisse_step(fraisse_step(Approximant.from_space(seed, 4, 2)))
    assert approx.n_points == 323
    return {"approx323": approx.as_metric_space().grid, "rado256": rado_metric_space(range(256)).grid}


# rows (early, late) of each space and the columns searched for their breaks
SEVERAL_ROWS = {"approx323": (3, 5), "rado256": (2, 3)}


@pytest.mark.parametrize("name", SEVERAL_ROWS)
def test_triangle_witness_is_lex_first_when_several_rows_break(name, big_spaces):
    _, grid_rows, bound = big_spaces[name]
    bound = 2 * bound + 1  # room for every raised pair
    d = [list(row) for row in grid_rows]
    n = len(d)
    early, late = SEVERAL_ROWS[name]
    cols = range(n - 40, n)
    # the early row breaks through a larger k than the late row
    j1 = max(cols, key=lambda j: (first_relay(d, early, j)[1], -j))
    j2 = min(cols, key=lambda j: (first_relay(d, late, j)[1], j))
    k1, k2 = raise_pair(d, early, j1), raise_pair(d, late, j2)
    assert k1 > k2
    got = validate_metric(d, bound)
    assert (got.reason, got.witness) == ("triangle", first_triangle_break(d)) == ("triangle", (early, j1, k1))
    assert metric._triangle_scan_int(d) == got.witness


@pytest.mark.parametrize("name", SEVERAL_ROWS)
def test_triangle_witness_between_the_last_two_points(name, big_spaces):
    # (n-1, n-2, k) breaks only where (n-2, n-1, k) does: the witness is
    # in the row before last, at the last column
    _, grid_rows, bound = big_spaces[name]
    d = [list(row) for row in grid_rows]
    n = len(d)
    k = raise_pair(d, n - 2, n - 1)
    got = validate_metric(d, 2 * bound + 1)
    assert (got.reason, got.witness) == ("triangle", first_triangle_break(d)) == ("triangle", (n - 2, n - 1, k))


# the common denominator of these entries is near 2**62, so the scaled
# entries and the sums of two fill most of 64 bits: the scan must stay exact
# on both sides of the size fork, the Python-int scan below
# _NUMPY_MIN_POINTS and numpy from there on
BIG_Q = 2**62 - 57


@pytest.mark.parametrize("n", [12, 48])
def test_validate_exact_fallback_past_int64(n, monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"a {n}-point matrix took the other side of the size fork")

    small = n < metric._NUMPY_MIN_POINTS
    for scan in ("_triangle_scan", "_precondition_scan"):
        monkeypatch.setattr(metric, scan + ("_numpy" if small else "_int"), forbidden)
    rng = random.Random(n)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(rng.randint(BIG_Q // 2, BIG_Q), BIG_Q)
    assert np.min_scalar_type(2 * BIG_Q) == np.uint64
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


# -- int_matrix ----------------------------------------------------------------


@pytest.mark.parametrize(
    "rows, dtype",
    [
        ([[0, 255], [255, 0]], np.uint8),
        ([(0, 1, 2), (3, 4, 5)], np.uint8),  # rectangular tuple rows keep their shape
        ([[True, False], [False, True]], np.uint8),
        ([[0, True], [7, 255]], np.uint8),
        ([[]], np.uint8),
        ([[0, 256], [256, 0]], np.int64),
        ([[0, -1], [-1, 0]], np.int64),
        ([[0, 2**63 - 1], [True, -(2**63)]], np.int64),
        ([[0, 2**63], [2**63, 0]], object),
        ([[-1, 2**70], [True, 0]], object),
    ],
)
def test_int_matrix_holds_every_entry_exactly(rows, dtype):
    m = metric.int_matrix(rows)
    want = np.array(rows, dtype=object)
    assert m.dtype == dtype and m.shape == want.shape and m.flags.writeable
    assert all(got == exp and type(got) is not bool for got, exp in zip(m.flat, want.flat))
    if dtype is object:
        assert all(type(v) is int for v in m.flat)


def test_int_matrix_hands_an_integer_ndarray_back_as_it_is():
    for m in (np.eye(3, dtype=np.uint16), np.eye(3, dtype=bool), np.array([[0, 2**70]], dtype=object)):
        assert metric.int_matrix(m) is m


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1.5], [1.5, 0]],
        [[0, 300], [300, 0.0]],  # a float past an entry that needs int64
        [[0, 2**70], [F(1, 2), 0]],  # a Fraction past an entry that needs object
        [[0, F(2)], [F(2), 0]],  # integral, but not an int
        np.array([[0, 1.5], [1.5, 0]]),
        np.array([[0, F(1, 2)], [F(1, 2), 0]], dtype=object),
    ],
)
def test_int_matrix_refuses_a_non_integer_entry(rows):
    with pytest.raises(TypeError):
        metric.int_matrix(rows)


def test_int_matrix_refuses_a_ragged_matrix_as_numpy_does():
    for rows in ([[0, 1], [1]], [[0], [1, 2], [3]], [[0, 1, 2], [1]]):
        with pytest.raises(ValueError, match="inhomogeneous shape"):
            metric.int_matrix(rows)
    assert metric.int_matrix([]).shape == (0,)


# An approximant matrix with its int bound is scanned as it is. A scaled
# bound in [2**63, 2**64) gives it dtype uint64, where an int64 cast would
# wrap every entry from 2**63 on to a negative number.
U64_BOUND = 2**64 - 59


def approximant_between(n, low, bound, denom):
    """A round-0 approximant with every distance drawn from [low, bound]:
    a metric whenever low is at least bound / 2."""
    rng = random.Random(n + bound)
    rows = at_bound(n, bound)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(low, bound)
    return Approximant.from_grid([f"p{i}" for i in range(n)], rows, denom, bound, 1)


def with_break(matrix):
    """A copy with one triangle break: both legs of the largest distance
    d(a, b) through another point c pulled down to a quarter of it."""
    d = matrix.copy()
    a, b = map(int, np.unravel_index(np.argmax(d), d.shape))
    c = next(k for k in range(len(d)) if k not in (a, b))
    d[a, c] = d[c, a] = d[c, b] = d[b, c] = max(1, d[a, b] // 4)
    return d


@pytest.fixture(scope="module")
def approximants():
    seed = MetricSpace(("a", "b"), ((0, F(1, 2)), (F(1, 2), 0)), 1)
    round1 = fraisse_step(Approximant.from_space(seed, 4, 2))
    n = metric._NUMPY_MIN_POINTS
    return {
        "uint8-323": fraisse_step(round1),
        "uint8-round1": round1,
        "uint16": approximant_between(n, 500, 1000, 1000),
        "uint64": approximant_between(n, 2**63, U64_BOUND, U64_BOUND),
        "object": approximant_between(n, 2**65, 2**66, 2**66),
    }


# the uint64 approximant has its own test below, against the naive oracle
APPROXIMANT_DTYPES = {"uint8-323": np.uint8, "uint8-round1": np.uint8, "uint16": np.uint16, "object": object}


@pytest.mark.parametrize("name", APPROXIMANT_DTYPES)
def test_validate_scaled_reads_an_approximant_matrix_as_its_rows(name, approximants):
    a = approximants[name]
    m = a.matrix
    assert m.dtype == APPROXIMANT_DTYPES[name]
    assert (a.n_points < metric._NUMPY_MIN_POINTS) == (name == "uint8-round1")
    for d, reason in ((m, None), (with_break(m), "triangle")):
        got = validate_metric(d, a.bound_scaled)
        rows = validate_metric(d.tolist(), a.bound_scaled)
        assert (got.reason, got.witness) == (rows.reason, rows.witness)
        assert got.reason == reason


@pytest.mark.parametrize("name", [*APPROXIMANT_DTYPES, "uint64"])
def test_validate_metric_scans_an_integer_matrix_as_validate_scaled_does(name, approximants):
    # an int bound scans the matrix as it is; a Fraction or str bound reads
    # it through tolist(), never as numpy scalars
    a = approximants[name]
    m = a.matrix
    grid = MetricSpace.from_grid(a.labels, m.tolist(), 1, a.bound_scaled).grid
    for bound in (a.bound_scaled, F(a.bound_scaled), str(a.bound_scaled)):
        for d, reason in ((m, None), (with_break(m), "triangle")):
            got = validate_metric(d, bound)
            assert got == validate_metric(d.tolist(), a.bound_scaled)
            assert got.reason == reason
        assert MetricSpace(a.labels, m, bound).grid == grid
        with pytest.raises(NonSquareError):
            validate_metric(m[:, 1:], bound)
        with pytest.raises(TypeError, match="not a rational value"):
            validate_metric(m.astype(float), bound)
        with pytest.raises(TypeError, match="not a rational value"):
            MetricSpace(a.labels, m.astype(float), bound)


def test_every_view_keeps_the_grid_of_its_space(approximants, tmp_path):
    path = tmp_path / "space.json"
    _dump_json(space_to_dict(equilateral()), path)
    round1 = approximants["uint8-round1"]
    spaces = [
        MetricSpace.from_grid((), (), 1, 1),
        MetricSpace.from_grid(("a",), ((0,),), 2, 1),
        MetricSpace.from_grid(("a", "b"), ((0, 3), (3, 0)), 4, 4),
        equilateral(),
        equilateral().restrict([2, 0]),
        equilateral().with_point("m", [F(1, 2)] * 3),
        round1.as_metric_space(),
        round1.restrict_space([0, 2, 3]),
        load_space(path),
    ]
    for space in spaces:
        assert type(space.d) is metric.FractionMatrix and space.d.grid is space.grid
        assert space.d == tuple(tuple(space.dist(i, j) for j in range(space.n_points)) for i in range(space.n_points))
        denom, rows, _ = space.grid
        assert all(type(row) is tuple for row in space.d)
        assert space.d == tuple(tuple(F(v, denom) for v in row) for row in rows)
        for again in (copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert again == space and again.d == space.d and again.d.grid == space.grid


def test_a_view_under_another_bound_builds_the_least_grid():
    # the bound 3/2 puts the space on the grid 1/2; under the bound 2 its
    # distances 1 need only the grid 1/1
    space = MetricSpace.from_grid(("a", "b"), ((0, 2), (2, 0)), 2, 3)
    for bound in (2, F(2), "2"):
        built = MetricSpace(space.labels, space.d, bound)
        assert built == MetricSpace(space.labels, tuple(space.d), bound)
        assert built.grid == metric.Grid(1, ((0, 1), (1, 0)), 2)


def test_a_300_point_view_is_validated_on_its_grid(approximants, monkeypatch):
    sample = approximants["uint8-323"].restrict_space(range(300))
    view = sample.d

    def square(*args):
        raise AssertionError("the view was read entry by entry")

    monkeypatch.setattr(metric, "_square", square)
    assert validate_metric(view, sample.diam_bound).ok
    assert validate_metric(view, F(1, 3)).reason == "exceeds-diameter"  # lifted to the grid 1/12
    assert MetricSpace(sample.labels, view, sample.diam_bound) == sample


def test_uint64_approximant_is_validated_without_wrapping(approximants, tmp_path, capsys):
    a = approximants["uint64"]
    m = a.matrix
    upper = m[np.triu_indices(a.n_points, 1)]
    assert a.n_points >= metric._NUMPY_MIN_POINTS and upper.min() >= 2**63
    broken = Approximant.from_grid(a.labels, with_break(m), a.denom, a.bound_scaled, a.subset_bound)
    witness = {}
    for name, b in (("good", a), ("broken", broken)):
        bm = b.matrix
        got = validate_metric(bm, b.bound_scaled)
        naive = naive_validate(bm.tolist(), b.bound_scaled)
        assert (got.reason, got.witness) == (naive or (None, None))
        witness[name] = naive
        _dump_json(approximant_to_dict(b), tmp_path / f"{name}.json")
    assert witness["good"] is None and witness["broken"][0] == "triangle"
    good, bad = str(tmp_path / "good.json"), str(tmp_path / "broken.json")
    # the loader accepts the good file: prop53 passes on it, and the check
    # reaches its verdict, a fail, since 48 points cannot realize every
    # value over one point on a grid of 2**64 - 59 steps
    assert main(["urysohn", "prop53", good, "--pairs", "0:0", "--eps", "1", "--probe", "1"]) == 0
    assert main(["urysohn", "check", good, "--k", "1"]) == 1
    capsys.readouterr()
    assert main(["urysohn", "check", bad, "--k", "1"]) == 2
    reason, at = witness["broken"]
    assert f"does not hold a metric space: {reason} at {at}" in capsys.readouterr().err

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
    # one- and two-point rows, against the per-entry Fraction build
    for space in (MetricSpace(("a",), ((0,),), F(1, 3)), two_point(F(2, 3)), equilateral()):
        denom, rows, _ = space.grid
        for z in range(space.n_points):
            values = elementary_katetov(space, z).values
            assert type(values) is tuple and values == tuple(F(v, denom) for v in rows[z])


# -- extend_by_katetov ---------------------------------------------------------


def test_extend_midpoint():
    space = two_point()
    out, idx = extend_by_katetov(KatetovFn.over(space, [F(1, 2), F(1, 2)]))
    assert out.n_points == 3
    assert out.d[idx][0] == out.d[idx][1] == F(1, 2)


def test_extend_rejects_vanishing_profile():
    space = two_point()
    with pytest.raises(DuplicatePointError):
        extend_by_katetov(elementary_katetov(space, 0))


def test_extend_rejects_invalid_profile():
    space = two_point()
    with pytest.raises(KatetovViolationError):
        extend_by_katetov(KatetovFn(space, (F(0), F(0))))


def test_extend_constant_one_keeps_diameter():
    space = equilateral(F(1))
    out, _ = extend_by_katetov(KatetovFn.over(space, [1, 1, 1]))
    assert validate_metric(out.d, 1).ok


def test_extend_elementary_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        space = random_metric_space(rng, max_points=6, max_denom=10)
        values = random_katetov_values(rng, space, space.grid.denom, allow_zero=False)
        out, idx = extend_by_katetov(KatetovFn.over(space, values))
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


@pytest.mark.parametrize("indices", [[0, 0, 1], [2, 1, 2]])
def test_restrict_rejects_a_repeated_index(indices):
    # a repeat would be a second label at distance 0 from the first
    with pytest.raises(IndexClashError, match="duplicate indices"):
        equilateral().restrict(indices)


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
        space = random_metric_space(rng, max_points=6, max_denom=8)
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
        space = random_metric_space(rng, max_points=6, max_denom=8)
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
        (denom, rows, bound), vals = metric.lift(space.grid, xi)
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


# -- the one refinement ------------------------------------------------------------


def lift_cases(seed):
    """(grid, values): the grids of random spaces, keep sub-grids of their
    approximants (one on a grid past int64) and the empty grid, each with
    values on the grid, off it, and none."""
    rng = random.Random(seed)
    grids = [metric.Grid(1, (), 0)]
    for _ in range(60):
        space = random_metric_space(rng, min_points=1)
        grids.append(space.grid)
        ap = Approximant.from_space(space, space.grid.denom * rng.choice([1, 2, 3, BIG_Q]), 2)
        keep = sorted(rng.sample(range(ap.n_points), rng.randint(1, ap.n_points)))
        sub = tuple(map(tuple, ap.matrix.take(keep, 0).take(keep, 1).tolist()))
        grids.append(metric.Grid(ap.denom, sub, ap.bound_scaled))
    for grid in grids:
        on = [F(rng.randint(0, 3 * grid.denom), grid.denom) for _ in range(rng.randint(1, 4))]
        off = [F(rng.randint(0, 90), rng.randint(1, 30)) for _ in range(rng.randint(1, 4))]
        for values in (on, off, on + off, []):
            yield grid, values


@pytest.mark.parametrize("seed", range(3))
def test_lift_matches_the_fraction_oracle(seed):
    moved = 0
    for grid, values in lift_cases(seed):
        got, scaled = metric.lift(grid, values)
        q = lcm(grid.denom, *(v.denominator for v in values))
        assert got.denom == q
        assert [list(row) for row in got.rows] == [[F(v, grid.denom) * q for v in row] for row in grid.rows]
        assert got.bound == F(grid.bound, grid.denom) * q
        assert scaled == [v * q for v in values]
        assert type(got.rows) is tuple and all(type(row) is tuple for row in got.rows)
        if not values:
            assert got == grid
        moved += q != grid.denom
    assert moved
