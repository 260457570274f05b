"""Saturation rounds pinned to a golden and to a plain-list reference.

The golden fingerprints were captured from the list-of-lists implementation
that preceded the numpy matrix, except denom 2 round 4, captured from the
numpy round that wrote each new point's whole column, before rounds shared
profiles, retired anchors and mirrored the new block after the walk;
`reference_fraisse_step` keeps the list-of-lists implementation as the
oracle. A matrix is digested from its dtype, shape and bytes; these
digests were taken where the earlier digests of its JSON rows still
matched, so both forms pin the same matrices. The dtype-edge cases check the narrow-dtype
profile arithmetic (no wraparound at the uint8/uint16 edge) and the exact
`object` path past uint64.
"""

import hashlib
import itertools
import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mslab import Approximant, BFState, MetricSpace, back_and_forth_extend, fraisse_step, prop53_extension
from mslab import urysohn
from mslab.cli import main
from mslab.errors import BudgetExceededError, MetricFailureError, PreconditionError
from mslab.metric import _grid_profiles, katetov_completion
from mslab.randgen import random_metric_space

F = Fraction


def two_points(dist, bound=1):
    return MetricSpace(("a", "b"), ((0, dist), (dist, 0)), bound)


def reference_fraisse_step(labels, rows, bound, subset_bound, round_no, log):
    """One saturation round on plain lists, as the oracle: the same
    lexicographic (subset, profile) order, labels and log as fraisse_step.
    Mutates and returns (labels, rows, log)."""
    n0 = len(rows)
    label_set = set(labels)
    index = [{} for _ in range(n0)]
    for s in range(n0):
        for p in range(len(rows)):
            index[s].setdefault(rows[s][p], set()).add(p)
    subsets = sorted(
        sub for size in range(1, subset_bound + 1) for sub in itertools.combinations(range(n0), size)
    )
    for subset in subsets:
        sub_matrix = [[rows[i][j] for j in subset] for i in subset]
        for values in _grid_profiles(sub_matrix, bound):
            candidates = None
            for s, v in zip(subset, values):
                bucket = index[s].get(v, set())
                candidates = bucket if candidates is None else candidates & bucket
            if candidates:
                continue
            profile = [
                min(bound, min(v + rows[s][w] for s, v in zip(subset, values)))
                for w in range(len(rows))
            ]
            new = len(rows)
            for w, dv in enumerate(profile):
                rows[w].append(dv)
            rows.append(profile + [0])
            label = f"x{new}"
            while label in label_set:
                label += "'"
            label_set.add(label)
            labels.append(label)
            for s in range(n0):
                index[s].setdefault(profile[s], set()).add(new)
            log.append((round_no, subset, tuple(values), new))
    return labels, rows, log


def reference_rounds(seed, denom, subset_bound, rounds):
    labels = list(seed.labels)
    rows = [[int(v * denom) for v in row] for row in seed.d]
    log = []
    for r in range(1, rounds + 1):
        reference_fraisse_step(labels, rows, int(seed.diam_bound * denom), subset_bound, r, log)
    return labels, rows, log


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def fingerprint(labels, matrix, log):
    digest = hashlib.sha256(f"{matrix.dtype.str} {matrix.shape}".encode())
    digest.update(matrix.tobytes())
    return {
        "labels": _digest(list(labels)),
        "log": _digest([[r, list(sub), list(vals), p] for r, sub, vals, p in log]),
        "matrix": digest.hexdigest(),
    }


def approximant_fingerprint(a):
    log = [(rec.round, rec.subset, rec.values, rec.point) for rec in a.log]
    return fingerprint(a.labels, a.matrix, log)


# (denom, round) -> round sizes and digests of labels, log and uint8 scaled matrix,
# from the half-distance two-point seed with subset bound 2
GOLDEN = {
    (2, 1): ([2, 6], "609a84786d96cb5cd2be53d41349f73e35ce4887f8460d013c90598c9568dbe6",
             "d3a68dd0561c8e2f09a669cd7b59f79b88a942f1516dad1b9f66b1eca29256b2",
             "7499aa2505d123a3bdd566575952b195a79ba74e0e967330418e3a56f0b94352"),
    (2, 2): ([2, 6, 18], "be2995e05fb47e5c873b30d753a7e2583242c6dc56bec8eede96f63a8163702c",
             "05f45b93df40609da20348a840ca4b0f73d29386567b9f8a2d854cddd033a46d",
             "f5357036eca1d221f4ad7b01effb6220010503278e99b90f91277ef05ccedf3d"),
    (2, 3): ([2, 6, 18, 106], "db398a87349ee51572e9549a29dda4eae6d2dc021ff4df959aa6b647beec0f39",
             "15eba32a974a4cff3f2d88729d583f65a739e41cfe316f4a21c88c5535ec29d4",
             "6ce3d559d3bd4176b313b3bddbebcae729ef39a5e7c488b8ae2a6afe02719b46"),
    (2, 4): ([2, 6, 18, 106, 4274], "30be933b70868989525f09bd8478386abd1d43e08d0bc5080e48679ee2507a49",
             "a5a3579faf0c71e201ae3740eea56f05afbeeef8cda929439ad14fc8d8fe3bbd",
             "4ecc2eadccd5dda234dbe41f5c8df5db493dd24654f78571e7e466004f7271a5"),
    (4, 1): ([2, 16], "14023ee300eadda240aaad1d697164e6a8a49e5df6646a18145fd8f8cebcfcc6",
             "e358ea70dd74ebe85c0fe91838b8db4a4577199f770f4e69ec95794867b5f0c6",
             "72a9ddfa1d5a033caa89b15fc30594267fc55fc0ff9f3d954cb02a4f7eab7501"),
    (4, 2): ([2, 16, 323], "10281ea758863c9c9b7812fea63ed49200348660b9e5a9b39860ecf112faa40a",
             "73cdd4e8c5793692ac743b563a17c6a1f460cbab268e19a49e37e75e8b5cdcee",
             "7bca06e1cf74ee38f41ebc192ef8cba975aee1dbcb0b7a78cb8624abc9230468"),
}


def golden_fingerprint(denom, rounds):
    _, labels, log, matrix = GOLDEN[denom, rounds]
    return {"labels": labels, "log": log, "matrix": matrix}


@pytest.mark.parametrize("denom,rounds", [(2, 3), (2, 4), (4, 2)])
def test_rounds_match_golden(denom, rounds):
    a = Approximant.from_space(two_points(F(1, 2)), denom, 2)
    for r in range(1, rounds + 1):
        a = fraisse_step(a)
        assert a.round_sizes == GOLDEN[denom, r][0]
        assert approximant_fingerprint(a) == golden_fingerprint(denom, r)
    assert a.matrix.dtype == np.uint8
    assert all(type(v) is int for v in a.log[-1].values + (a.log[-1].point,))


def test_reference_matches_golden():
    for rounds in (1, 2, 3):
        labels, rows, log = reference_rounds(two_points(F(1, 2)), 2, 2, rounds)
        assert fingerprint(labels, np.array(rows, dtype=np.uint8), log) == golden_fingerprint(2, rounds)


@pytest.mark.parametrize("subset_bound", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_rounds_match_the_reference_on_random_seeds(seed, subset_bound):
    # 2 or 3 points with a bound of at most 2 on a grid of at most 1/2;
    # round 2 reaches 488 points (seed 0, subset bound 3), two mirror blocks
    space = random_metric_space(random.Random(seed), 2, 3, 2)
    a = Approximant.from_space(space, space.grid.denom, subset_bound)
    a = fraisse_step(fraisse_step(a))
    labels, rows, log = reference_rounds(space, space.grid.denom, subset_bound, 2)
    assert a.matrix.tolist() == rows
    assert a.labels == labels
    assert [(r.round, r.subset, r.values, r.point) for r in a.log] == log


def test_a_round_enumerates_each_sub_matrix_once(monkeypatch):
    # every singleton has the sub-matrix ((0,)), and a pair's is fixed by its
    # distance, one of 1..bound_scaled: at most bound_scaled + 1 sub-matrices
    a = Approximant.from_space(two_points(F(1, 2)), 2, 2)
    for _ in range(3):
        a = fraisse_step(a)
    calls = []

    def counted(d, bound):
        calls.append(d)
        return _grid_profiles(d, bound)

    monkeypatch.setattr(urysohn, "_grid_profiles", counted)
    a = fraisse_step(a)
    assert a.round_sizes[-1] == 4274 and len(calls) <= a.bound_scaled + 2
    calls.clear()
    rep = urysohn.finite_injectivity_check(a, a.snapshot(3), 2, 2)
    assert rep.counts["subsets"] == 5671 and rep.counts["functions"] == 33708
    assert len(calls) <= a.bound_scaled + 2


@pytest.mark.parametrize("subset_bound", [1, 2])
@pytest.mark.parametrize("seed", range(10))
def test_the_check_is_the_walk_of_a_round_stopped_at_its_first_new_point(seed, subset_bound):
    # the check over every point passes exactly when the next round adds no
    # point, and otherwise its witness is the round's first new record
    space = random_metric_space(random.Random(seed), 2, 4, 3)
    a = Approximant.from_space(space, space.grid.denom, subset_bound)
    for _ in range(2):
        rep = urysohn.finite_injectivity_check(a, range(a.n_points), a.subset_bound, a.denom)
        b = fraisse_step(a)
        assert (rep.verdict == "pass") == (b.n_points == a.n_points)
        if rep.verdict == "fail":
            first = b.log[len(a.log)]
            assert rep.witness == {"subset": list(first.subset), "values": [F(v, a.denom) for v in first.values]}
        a = b


def traced_peak(step):
    """step()'s result and the tracemalloc peak while it ran, in bytes."""
    tracemalloc.start()
    try:
        return step(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def round3():
    a = Approximant.from_space(two_points(F(1, 2)), 2, 2)
    for _ in range(3):
        a = fraisse_step(a)
    return a


@pytest.fixture(scope="module")
def round4(round3):
    return fraisse_step(round3)


def test_a_round_holds_no_square(round3):
    # the dense 4274 x 4274 round-4 matrix is 18.3 MB; the round keeps only
    # the full rows of its step-start points
    a, peak = traced_peak(lambda: fraisse_step(round3))
    n, n0 = a.n_points, a.round_sizes[-2]
    assert (n, n0) == (4274, 106) and peak < n * n // 4, peak
    held = [v for v in vars(a).values() if isinstance(v, np.ndarray)]
    assert [arr.shape for arr in held] == [(n0, n)] and held[0] is a.start
    assert a.start.base is None and a.start.flags.c_contiguous


def test_reads_of_a_grown_approximant_build_no_square(round4):
    a = round4
    n = a.n_points
    reads = {
        "injectivity check": lambda: urysohn.finite_injectivity_check(a, a.snapshot(3), 2, 2),
        "restriction": lambda: a.restrict_space(range(0, n, 15)),
        "back-and-forth probe": lambda: back_and_forth_extend(BFState.create(a, [(0, 0)], F(1, 2)), 1),
        "distance between new points": lambda: a.dist(n - 1, 200),
    }
    peaks = {name: traced_peak(read)[1] for name, read in reads.items()}
    assert all(peak < n * n // 4 for peak in peaks.values()), peaks


def test_a_round_from_a_grown_approximant_walks_its_rows_as_they_are(round4):
    # round 5 reads round 4's 4274 x 4274 square (18.3 MB) as its
    # step-start matrix; a walk over it as Python lists would hold 8 bytes
    # a pointer, 146 MB more
    n = round4.n_points

    def step():
        with pytest.raises(BudgetExceededError):
            fraisse_step(round4, budget=n + 1)

    _, peak = traced_peak(step)
    assert peak < 2 * n * n, peak


def test_the_saturate_sequence_builds_no_square(round3):
    # the benchmark's saturate pass: round 4, the check of its step-start
    # snapshot and a 300-point restriction, each below a quarter of the
    # 4274 x 4274 uint8 square
    a, round_peak = traced_peak(lambda: fraisse_step(round3))
    rep, check_peak = traced_peak(lambda: urysohn.finite_injectivity_check(a, a.snapshot(3), 2, 2))
    sample = sorted(random.Random(7).sample(range(a.n_points), 300))
    sub, restrict_peak = traced_peak(lambda: a.restrict_space(sample))
    assert rep.verdict == "pass" and rep.counts["functions"] == 33708
    rows = a.matrix[sample][:, sample].tolist()
    assert sub.grid == MetricSpace.from_grid(sub.labels, rows, a.denom, a.bound_scaled).grid
    peaks = (round_peak, check_peak, restrict_peak)
    assert all(peak < a.n_points**2 // 4 for peak in peaks), peaks


def test_a_round_stopped_by_its_budget_allocates_no_square():
    # the default build's round 3 reaches the budget long before it ends
    a = Approximant.from_space(two_points(F(1, 2)), 4, 2)
    a = fraisse_step(fraisse_step(a))

    def step():
        with pytest.raises(BudgetExceededError):
            fraisse_step(a, budget=5000)

    _, peak = traced_peak(step)
    assert peak < 5000**2, peak


@pytest.fixture(scope="module")
def three_row_blocks():
    # round 1 adds 541 points, three blocks of 256 rows, to a 10-point seed
    # under subset bound 3, realizing profiles over 1, 2 and 3 points
    space = random_metric_space(random.Random(12), 5, 10, 4)
    return space, reference_rounds(space, space.grid.denom, 3, 1)


@pytest.mark.parametrize("rows_per_block", [None, 1, 7, 100])
def test_the_new_block_fill_matches_the_reference(three_row_blocks, rows_per_block, monkeypatch):
    # the matrix is built from the reader in blocks of rows: 256 by default
    if rows_per_block is not None:
        monkeypatch.setattr(urysohn, "_READ_ROWS", rows_per_block)
    space, (labels, rows, log) = three_row_blocks
    a = fraisse_step(Approximant.from_space(space, space.grid.denom, 3))
    assert a.round_sizes == [10, 551]
    assert {len(r.subset) for r in a.log} == {1, 2, 3}
    assert a.matrix.tolist() == rows
    assert a.labels == labels
    assert [(r.round, r.subset, r.values, r.point) for r in a.log] == log


def scaled_past_uint64(a, factor=2**64):
    """`a` with its grid, distances and record values multiplied by
    factor: the bound passes uint64, so its arrays hold Python ints."""
    log = [replace(r, values=tuple(v * factor for v in r.values)) for r in a.log]
    start = a.start.astype(object) * factor
    return replace(a, start=start, denom=a.denom * factor, bound_scaled=a.bound_scaled * factor, log=log)


@pytest.fixture(scope="module")
def grown(round3, round4, three_row_blocks):
    """Approximants after a round, each holding new points."""
    space, _ = three_row_blocks
    edges = {
        f"{dtype.__name__}-edge": fraisse_step(Approximant.from_space(two_points(F(1, denom)), denom, 2))
        for denom, dtype in ((255, np.uint8), (256, np.uint16))
    }
    return {
        "denom-2-round-4": round4,
        "subset-bound-3": fraisse_step(Approximant.from_space(space, space.grid.denom, 3)),
        **edges,
        "object": scaled_past_uint64(round3),
        "uint8-round-3": round3,
    }


@pytest.mark.parametrize(
    "name", ["denom-2-round-4", "subset-bound-3", "uint8-edge", "uint16-edge", "object"]
)
def test_the_reader_matches_the_matrix(grown, name):
    a = grown[name]
    m = a.matrix
    n, n0 = a.n_points, a.round_sizes[-2]
    assert n - n0 > 80 and len(a.start) == n0 and m.dtype == a.start.dtype
    if name == "object":
        assert m.dtype == object
        assert m.tolist() == (grown["uint8-round-3"].matrix.astype(object) * 2**64).tolist()
    rng = random.Random(n)
    new, every = range(n0, n), range(n)
    draws = [([], list(every)), (list(every), []), ([n - 1, n0, n0, 0], [n0, n - 1, 0, n0])]
    for _ in range(12):
        # rows and columns in any order, repeats included, new points mostly
        rows = rng.choices(new, k=rng.randint(1, 60)) + rng.choices(every, k=rng.randint(0, 20))
        cols = rng.choices(new, k=rng.randint(1, 300)) + rng.choices(every, k=rng.randint(0, 50))
        draws += [(rows, cols), (cols, rows), (rows, list(every)), (sorted(set(rows)), sorted(set(rows)))]
    for rows, cols in draws:
        got = a._distances(rows, cols)
        assert got.dtype == m.dtype and got.shape == (len(rows), len(cols))
        assert got.tolist() == m[rows][:, cols].tolist()
    for i, j in [(n0, n - 1), *(rng.sample(new, 2) for _ in range(40))]:
        assert a.dist(i, j) == a.dist(j, i) == F(m.item(i, j), a.denom)
        assert a.dist(i, i) == 0


@pytest.mark.parametrize(
    "name", ["denom-2-round-4", "subset-bound-3", "uint8-edge", "uint16-edge", "object"]
)
def test_a_new_row_is_the_katetov_completion_of_its_record(grown, name):
    # the one formula, against the plain-list completion over the
    # step-start rows: every column, step-start or new, and 0 at the point
    a = grown[name]
    n, n0 = a.n_points, len(a.start)
    start = a.start.tolist()
    records = a.log[len(a.log) - (n - n0) :]
    assert n - n0 > 80 and [r.point for r in records] == list(range(n0, n))
    rng = random.Random(n)
    points = sorted({n0, n - 1, *rng.sample(range(n0, n), 40)})
    rows = a._distances(points, range(n)).tolist()
    for p, row in zip(points, rows):
        rec = records[p - n0]
        want = katetov_completion(start, rec.subset, rec.values, a.bound_scaled, range(n))
        want[p] = 0
        assert row == want


@pytest.mark.parametrize("subset_bound,added", [(1, [1, 0]), (2, [1, 1])])
def test_rounds_that_add_no_point_or_one_match_the_reference(subset_bound, added):
    # one point under a unit bound at denom 1: round 1 adds the point at
    # distance 1; round 2 realizes every singleton profile already, and adds
    # only the point at distance 1 from both when pairs are walked
    seed = MetricSpace(("a",), ((0,),), 1)
    a = Approximant.from_space(seed, 1, subset_bound)
    a = fraisse_step(a)
    a = fraisse_step(a)
    assert [m - n for n, m in itertools.pairwise(a.round_sizes)] == added
    labels, rows, log = reference_rounds(seed, 1, subset_bound, 2)
    assert a.matrix.tolist() == rows and a.matrix.flags.c_contiguous
    assert a.labels == labels
    assert [(r.round, r.subset, r.values, r.point) for r in a.log] == log


@pytest.mark.parametrize("denom,dtype", [(255, np.uint8), (256, np.uint16)])
def test_dtype_edge_matches_reference(denom, dtype):
    # one grid step apart under a unit bound: profile sums v + d reach
    # 2 * bound, past the dtype's range, and must clamp without wrapping
    seed = two_points(F(1, denom))
    a = fraisse_step(Approximant.from_space(seed, denom, 2))
    assert a.bound_scaled == denom and a.matrix.dtype == dtype
    labels, rows, log = reference_rounds(seed, denom, 2, 1)
    assert a.n_points == len(rows) > 700
    assert a.matrix.tolist() == rows
    assert a.labels == labels
    assert [(r.round, r.subset, r.values, r.point) for r in a.log] == log


def test_object_dtype_past_uint64_is_exact():
    denom = 2**66
    d = F(2**64 + 1, denom)
    seed = MetricSpace(("a", "b", "c"), ((0, d, 1), (d, 0, 1 - d), (1, 1 - d, 0)), 1)
    a = Approximant.from_space(seed, denom, 1)
    assert a.matrix.dtype == object
    assert a.dist(0, 1) == d and a.dist(1, 2) == 1 - d
    assert a.as_metric_space().d == seed.d
    assert a.restrict_space([2, 0]).d == ((0, 1), (1, 0))
    st = BFState.create(a, [(0, 0)], d)
    out, zp = prop53_extension(st, 1)
    assert out.d[zp][0] == d and out.d[zp][1] == d
    with pytest.raises(BudgetExceededError):
        fraisse_step(a, budget=6)
    # a singleton has 2**66 + 1 profiles: the check stops at the second
    rep = urysohn.finite_injectivity_check(a, a.snapshot(0), 1, denom)
    assert rep.verdict == "fail" and rep.witness == {"subset": [0], "values": [F(1, denom)]}
    assert rep.counts["functions"] == 2


def test_back_and_forth_probe_on_object_dtype():
    # the seed above plus a fourth point w at distance d from a and b: the
    # probe b transported along (a, a) must land on w
    denom = 2**66
    d = F(2**64 + 1, denom)
    rows = ((0, d, 1, d), (d, 0, 1 - d, d), (1, 1 - d, 0, 1), (d, d, 1, 0))
    a = Approximant.from_space(MetricSpace(("a", "b", "c", "w"), rows, 1), denom, 1)
    assert a.matrix.dtype == object
    st = back_and_forth_extend(BFState.create(a, [(0, 0)], d), 1)
    assert st.pairs == ((0, 0), (1, 3))


def reference_injectivity(rows, over, k, bound):
    """finite_injectivity_check at the approximant's own denominator on
    plain lists, as the oracle: returns the verdict, the witness (subset,
    scaled values) and the (subsets, functions) counts."""
    over = sorted(set(over))
    index = {s: {} for s in over}
    for s in over:
        for p in range(len(rows)):
            index[s].setdefault(rows[s][p], set()).add(p)
    subsets = sorted(sub for size in range(1, k + 1) for sub in itertools.combinations(over, size))
    n_functions = 0
    for n_subsets, subset in enumerate(subsets, 1):
        sub_matrix = [[rows[i][j] for j in subset] for i in subset]
        for values in _grid_profiles(sub_matrix, bound):
            n_functions += 1
            candidates = None
            for s, v in zip(subset, values):
                bucket = index[s].get(v, set())
                candidates = bucket if candidates is None else candidates & bucket
            if not candidates:
                return "fail", (list(subset), list(values)), (n_subsets, n_functions)
    return "pass", None, (len(subsets), n_functions)


def finer_grid_oracle(rows, over, k, factor, bound):
    """The check's reading of a grid `factor` times finer, by brute force
    over every fine grid vector: a fine Katetov function xi over a subset
    passes when some point x has max over s of |factor * d(x, s) - xi(s)| <
    factor, that is, lies within one step of the approximant's grid.
    Returns the first subset in lexicographic order with a fine function
    that fails, or None."""
    over = sorted(set(over))
    for subset in sorted(sub for size in range(1, k + 1) for sub in itertools.combinations(over, size)):
        d = [[factor * rows[s][t] for t in subset] for s in subset]
        pairs = list(itertools.combinations(range(len(subset)), 2))
        for xi in itertools.product(range(factor * bound + 1), repeat=len(subset)):
            if any(not abs(xi[i] - xi[j]) <= d[i][j] <= xi[i] + xi[j] for i, j in pairs):
                continue  # not Katetov
            if not any(max(abs(factor * row[s] - v) for s, v in zip(subset, xi)) < factor for row in rows):
                return list(subset)
    return None


def assert_check_reads_the_own_grid(a, over, k, factor):
    """The check at denom factor * a.denom: its verdict is the finer-grid
    oracle's, its counts and witness are the own-grid reference's, and no
    point lies within one approximant step of the witness."""
    rows = a.matrix.tolist()
    rep = urysohn.finite_injectivity_check(a, over, k, factor * a.denom)
    verdict, witness, counts = reference_injectivity(rows, over, k, a.bound_scaled)
    assert rep.params["denom"] == factor * a.denom
    assert rep.verdict == verdict
    assert (rep.counts["subsets"], rep.counts["functions"]) == counts
    if factor > 1:
        failing = finer_grid_oracle(rows, over, k, factor, a.bound_scaled)
        assert failing == (None if witness is None else witness[0])
    if witness is not None:
        subset, values = witness
        assert rep.witness == {"subset": subset, "values": [F(v, a.denom) for v in values]}
        step = F(1, a.denom)
        for x in range(a.n_points):
            assert max(abs(a.dist(x, s) - v) for s, v in zip(subset, rep.witness["values"])) >= step
    return rep.verdict


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("over", [[0, 2, 3], [1, 2], [0, 3], [5, 1, 4, 4], [1, 3, 4, 5]])
@pytest.mark.parametrize("factor", [1, 2, 3])
def test_injectivity_on_arbitrary_snapshot_matches_reference(rounds, over, factor):
    a = Approximant.from_space(two_points(F(1, 2)), 2, 2)
    for _ in range(rounds):
        a = fraisse_step(a)
    for k in (1, 2, 3):
        assert_check_reads_the_own_grid(a, over, k, factor)


def test_a_finer_check_grid_reads_the_own_grid_verdict_on_random_seeds():
    # the seed points, unsaturated at round 0 and saturated at round 1
    verdicts = []
    for seed in range(4):
        a = Approximant.from_space(random_metric_space(random.Random(seed), 3, 4, 2), 2, 2)
        for a in (a, fraisse_step(a)):
            for k, factor in itertools.product((1, 2), (2, 3)):
                verdicts.append(assert_check_reads_the_own_grid(a, a.snapshot(0), k, factor))
    assert verdicts.count("fail") == verdicts.count("pass") == 16


def test_approximant_equality_is_identity():
    a = Approximant.from_space(two_points(F(1, 2)), 2, 2)
    assert a == a and a != replace(a)


@pytest.mark.parametrize("denom", [0, -2])
def test_from_space_rejects_nonpositive_denominator(denom):
    with pytest.raises(PreconditionError):
        Approximant.from_space(two_points(F(1, 2)), denom, 2)


def test_from_space_rejects_distance_above_bound():
    with pytest.raises(PreconditionError):
        Approximant.from_space(two_points(F(2)), 2, 2)


@pytest.mark.parametrize("denom", ["0", "-2"])
def test_cli_build_nonpositive_denominator_exits_2(denom, capsys):
    assert main(["urysohn", "build", "--denom", denom, "--rounds", "1"]) == 2
    assert "denominator" in capsys.readouterr().err


def test_prop53_contract_breach_raises(monkeypatch):
    real = urysohn._prop53_profile

    def off_by_one_step(st, z):
        keep, grid, profile, t0 = real(st, z)
        return keep, grid, profile, t0 + grid.denom // st.space.denom

    monkeypatch.setattr(urysohn, "_prop53_profile", off_by_one_step)
    sp = MetricSpace(("a", "b", "z"), ((0, F(1, 2), F(1, 4)), (F(1, 2), 0, F(3, 4)), (F(1, 4), F(3, 4), 0)), 1)
    st = BFState.create(Approximant.from_space(sp, 4, 2), [(0, 0)], F(1, 4))
    with pytest.raises(MetricFailureError, match="contract"):
        prop53_extension(st, 2)
