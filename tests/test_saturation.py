"""Saturation rounds pinned to a golden and to a plain-list reference.

The golden fingerprints were captured from the list-of-lists implementation
that preceded the numpy matrix; `reference_fraisse_step` keeps that
implementation as the oracle. The dtype-edge cases check the narrow-dtype
profile arithmetic (no wraparound at the uint8/uint16 edge) and the exact
`object` path past uint64.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from mslab import Approximant, BFState, MetricSpace, fraisse_step, prop53_extension
from mslab import urysohn
from mslab.cli import main
from mslab.errors import BudgetExceededError, MetricFailureError, PreconditionError
from mslab.metric import _grid_profiles

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


def fingerprint(labels, rows, log):
    return {
        "labels": _digest(list(labels)),
        "log": _digest([[r, list(sub), list(vals), p] for r, sub, vals, p in log]),
        "matrix": _digest(rows),
    }


def approximant_fingerprint(a):
    log = [(rec.round, rec.subset, rec.values, rec.point) for rec in a.log]
    return fingerprint(a.labels, a.matrix.tolist(), log)


# (denom, round) -> round sizes and digests of labels, log and scaled matrix,
# from the half-distance two-point seed with subset bound 2
GOLDEN = {
    (2, 1): ([2, 6], "609a84786d96cb5cd2be53d41349f73e35ce4887f8460d013c90598c9568dbe6",
             "d3a68dd0561c8e2f09a669cd7b59f79b88a942f1516dad1b9f66b1eca29256b2",
             "e4273fba5f803fb57c572fa3fb06cfa90313c878edf8c6816f1924ed29d66374"),
    (2, 2): ([2, 6, 18], "be2995e05fb47e5c873b30d753a7e2583242c6dc56bec8eede96f63a8163702c",
             "05f45b93df40609da20348a840ca4b0f73d29386567b9f8a2d854cddd033a46d",
             "2746f6649434053bef6877b4c2d6b1dec4524ece2a19575bd539d3438bbdeec2"),
    (2, 3): ([2, 6, 18, 106], "db398a87349ee51572e9549a29dda4eae6d2dc021ff4df959aa6b647beec0f39",
             "15eba32a974a4cff3f2d88729d583f65a739e41cfe316f4a21c88c5535ec29d4",
             "075096e872046767754eb4adf7815800a482c47a307e486cb3d2f221e56587fc"),
    (4, 1): ([2, 16], "14023ee300eadda240aaad1d697164e6a8a49e5df6646a18145fd8f8cebcfcc6",
             "e358ea70dd74ebe85c0fe91838b8db4a4577199f770f4e69ec95794867b5f0c6",
             "4a8f0619a8263c4be15f5494c9820dc427bb7a47e3d799d938e2556cbecb3460"),
    (4, 2): ([2, 16, 323], "10281ea758863c9c9b7812fea63ed49200348660b9e5a9b39860ecf112faa40a",
             "73cdd4e8c5793692ac743b563a17c6a1f460cbab268e19a49e37e75e8b5cdcee",
             "4052616a804886bf841418528e38ccfe9b91fe730f9843be6069e621387555f6"),
}


def golden_fingerprint(denom, rounds):
    _, labels, log, matrix = GOLDEN[denom, rounds]
    return {"labels": labels, "log": log, "matrix": matrix}


@pytest.mark.parametrize("denom,rounds", [(2, 3), (4, 2)])
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
        assert fingerprint(*reference_rounds(two_points(F(1, 2)), 2, 2, rounds)) == golden_fingerprint(2, rounds)


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


def reference_injectivity(rows, over, k, factor, bound):
    """finite_injectivity_check on plain lists, as the oracle: returns the
    verdict, the witness (subset, scaled values) and the (subsets, functions)
    counts."""
    over = sorted(set(over))
    index = {s: {} for s in over}
    for s in over:
        for p in range(len(rows)):
            index[s].setdefault(rows[s][p] * factor, set()).add(p)
    subsets = sorted(sub for size in range(1, k + 1) for sub in itertools.combinations(over, size))
    n_functions = 0
    for n_subsets, subset in enumerate(subsets, 1):
        sub_matrix = [[rows[i][j] * factor for j in subset] for i in subset]
        for values in _grid_profiles(sub_matrix, bound):
            n_functions += 1
            candidates = None
            for s, v in zip(subset, values):
                bucket = index[s].get(v, set())
                candidates = bucket if candidates is None else candidates & bucket
            if not candidates:
                return "fail", (list(subset), list(values)), (n_subsets, n_functions)
    return "pass", None, (len(subsets), n_functions)


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("over", [[0, 2, 3], [1, 2], [0, 3], [5, 1, 4, 4], [1, 3, 4, 5]])
@pytest.mark.parametrize("factor", [1, 2])
def test_injectivity_on_arbitrary_snapshot_matches_reference(rounds, over, factor):
    a = Approximant.from_space(two_points(F(1, 2)), 2, 2)
    for _ in range(rounds):
        a = fraisse_step(a)
    rows = a.matrix.tolist()
    for k in (1, 2):
        rep = urysohn.finite_injectivity_check(a, over, k, 2 * factor)
        verdict, witness, counts = reference_injectivity(rows, over, k, factor, a.bound_scaled * factor)
        assert rep.verdict == verdict
        assert (rep.counts["subsets"], rep.counts["functions"]) == counts
        if witness is not None:
            subset, values = witness
            assert rep.witness == {"subset": subset, "values": [F(v, 2 * factor) for v in values]}


def test_approximant_equality_is_identity():
    a = Approximant.from_space(two_points(F(1, 2)), 2, 2)
    assert a == a and a != a.copy()


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
