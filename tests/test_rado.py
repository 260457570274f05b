"""rado-model: BIT adjacency, graph metric, extension witnesses, basis codes."""

import itertools
import random

import numpy as np
import pytest

from mslab import rado, suite, validate_metric
from mslab.errors import (
    IncompatibleCodesError,
    MetricFailureError,
    PreconditionError,
    SelfLoopError,
    UndeterminedMembershipError,
)
from mslab.rado import (
    BasisCode,
    basis_member,
    basis_refinement_check,
    mask_vertices,
    rado_adjacent,
    rado_extension_witness,
    rado_extension_witnesses,
    rado_metric,
    rado_metric_space,
)


def naive_adjacent(i: int, j: int) -> bool:
    """Oracle: check the bit through the binary string representation."""
    lo, hi = min(i, j), max(i, j)
    bits = bin(hi)[2:][::-1]
    return lo < len(bits) and bits[lo] == "1"


def test_adjacency_goldens_rederived():
    # re-derived through the binary-string oracle before freezing
    assert naive_adjacent(0, 1) and rado_adjacent(0, 1)
    assert naive_adjacent(1, 2) and rado_adjacent(1, 2)  # 2 = 10b, bit 1 set
    assert not naive_adjacent(0, 2) and not rado_adjacent(0, 2)


def test_adjacency_matches_oracle_exhaustively():
    for i in range(64):
        for j in range(64):
            if i != j:
                assert rado_adjacent(i, j) == naive_adjacent(i, j)


def test_adjacency_is_symmetric():
    rng = random.Random(2)
    for _ in range(500):
        i, j = rng.randrange(1 << 16), rng.randrange(1 << 16)
        if i != j:
            assert rado_adjacent(i, j) == rado_adjacent(j, i)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        rado_adjacent(3, 3)
    with pytest.raises(PreconditionError):
        rado_adjacent(-1, 2)


def test_metric_values():
    assert rado_metric(5, 5) == 0
    assert rado_metric(0, 1) == 1
    assert rado_metric(0, 2) == 2


def test_metric_codes_adjacency():
    rng = random.Random(3)
    for _ in range(2000):
        i, j = rng.randrange(1 << 16), rng.randrange(1 << 16)
        if i == j:
            continue
        assert (rado_metric(i, j) == 1) == rado_adjacent(i, j)


def test_metric_space_validates():
    space = rado_metric_space(range(64))
    assert validate_metric(space.d, 2).ok


def test_witness_spec_goldens():
    assert rado_extension_witness([0], [1]) == 5
    assert rado_extension_witness([], []) == 1
    assert rado_extension_witness([1, 3], [0, 2]) == 26


def test_witness_overlap_rejected():
    with pytest.raises(PreconditionError):
        rado_extension_witness([1, 2], [2, 3])


def test_witness_exhaustive_small():
    universe = range(8)
    for a in range(0, 4):
        for U in itertools.combinations(universe, a):
            rest = [v for v in universe if v not in U]
            for b in range(0, 4 - a):
                for V in itertools.combinations(rest, b):
                    w = rado_extension_witness(U, V)
                    assert w not in set(U) | set(V)
                    assert all(rado_adjacent(u, w) for u in U)
                    assert not any(rado_adjacent(v, w) for v in V)


@pytest.mark.parametrize("side,U,V", [("U", [0, 2], [1]), ("V", [0], [1, 3])])
def test_witness_contract_breach_raises(monkeypatch, side, U, V):
    # a broken edge test makes the arithmetic witness wrong on one side; the
    # check is a raise, so it also fires under python -O
    real = rado._bit
    flip = sorted(set(U) if side == "U" else set(V))

    def broken(hi, lo):
        return real(hi, lo) ^ np.isin(lo, flip)

    monkeypatch.setattr(rado, "_bit", broken)
    with pytest.raises(MetricFailureError, match=f"in {side}"):
        rado_extension_witness(U, V)


def oracle_witness(U, V):
    """The one-pair witness as it was computed before the batch check: a
    set loop over U and V, checked with the binary-string adjacency."""
    U, V = sorted(set(U)), sorted(set(V))
    if set(U) & set(V):
        raise PreconditionError(f"U and V overlap: {sorted(set(U) & set(V))}")
    if any(x < 0 for x in U + V):
        raise PreconditionError("vertices are non-negative integers")
    top = max(U + V) + 1 if U + V else 0
    w = sum(1 << u for u in U) + (1 << top)
    for u in U:
        if not naive_adjacent(u, w):
            raise MetricFailureError(f"witness {w} is not adjacent to {u} in U")
    for v in V:
        if naive_adjacent(v, w):
            raise MetricFailureError(f"witness {w} is adjacent to {v} in V")
    return w


def masks(sets):
    return [sum(1 << x for x in s) for s in sets]


def random_disjoint_pairs(rng, count, pool):
    pairs = []
    for _ in range(count):
        picked = rng.sample(pool, rng.randint(0, 6))
        cut = rng.randint(0, len(picked))
        pairs.append((picked[:cut], picked[cut:]))
    return pairs


# 62..64 and 100 push a witness past int64 (the object path)
POOL = list(range(20)) + [61, 62, 63, 64, 100]


def test_batch_matches_the_pair_oracle():
    rng = random.Random(12)
    pairs = random_disjoint_pairs(rng, 4000, POOL)
    assert any(not U for U, _ in pairs) and any(not V for _, V in pairs)
    assert any(not U and not V for U, V in pairs)
    start = 0
    while start < len(pairs):
        batch = pairs[start : start + rng.randint(1, 300)]
        start += len(batch)
        want = [oracle_witness(U, V) for U, V in batch]
        got = rado_extension_witnesses(masks(U for U, _ in batch), masks(V for _, V in batch))
        assert got.dtype == (np.int64 if max(want) < 2**63 else object)
        assert [int(w) for w in got] == want
        assert [rado_extension_witness(U, V) for U, V in batch] == want


def test_batch_dtype_at_the_int64_edge():
    # vertex 61: witness 2^61 + 2^62 fits; vertex 62: 2^62 + 2^63 does not
    assert rado_extension_witnesses(np.array([1 << 61]), np.array([0])).dtype == np.int64
    assert rado_extension_witnesses(np.array([1 << 62]), np.array([0])).dtype == object
    assert rado_extension_witnesses(np.array([0]), np.array([1 << 61])).tolist() == [1 << 62]
    # a list mixing int64 and uint64 masks, which numpy alone would store as floats
    assert rado_extension_witnesses([1, 1 << 63], [0, 0]).tolist() == [3, 3 << 63]
    empty = rado_extension_witnesses(np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert empty.shape == (0,)


def test_refusal_messages_are_unchanged():
    for U, V in [([1, 2], [2, 3]), ([5, 1, 9], [9, 1]), ([1], [1])]:
        with pytest.raises(PreconditionError) as got:
            rado_extension_witness(U, V)
        with pytest.raises(PreconditionError) as want:
            oracle_witness(U, V)
        assert str(got.value) == str(want.value)
    assert str(got.value) == "U and V overlap: [1]"
    for U, V in [([-1], [2]), ([3], [-4, 5]), ([0, -2], [])]:
        with pytest.raises(PreconditionError, match="^vertices are non-negative integers$"):
            rado_extension_witness(U, V)
        with pytest.raises(PreconditionError, match="^vertices are non-negative integers$"):
            oracle_witness(U, V)


def test_batch_refusal_names_the_first_offending_pair():
    U, V = masks([[0], [1, 2], [3], [4, 5]]), masks([[1], [2, 7], [4], [5]])
    with pytest.raises(PreconditionError, match=r"^U and V overlap: \[2\]$") as exc:
        rado_extension_witnesses(U, V)
    assert exc.value.pair == 1
    with pytest.raises(PreconditionError, match="^vertices are non-negative integers$") as exc:
        rado_extension_witnesses([1, 2, -4], [0, 0, 1])
    assert exc.value.pair == 2
    with pytest.raises(PreconditionError, match="equal-length"):
        rado_extension_witnesses([1, 2], [4])


@pytest.mark.parametrize("k", [0, 5, 17])
def test_planted_breach_names_its_pair_and_u_before_v(monkeypatch, k):
    # pair i: U = {3, 7}, V = {1, 5, 8 + i}, so each pair has its own witness
    batch_u = masks([[3, 7]] * 20)
    batch_v = masks([1, 5, 8 + i] for i in range(20))
    witnesses = rado_extension_witnesses(batch_u, batch_v).tolist()
    assert len(set(witnesses)) == 20
    real = rado._bit
    planted = [witnesses[k], witnesses[k + 2]]
    flipped = [7, 3, 5, 1]  # two vertices of U, then two of V

    def broken(hi, lo):
        return real(hi, lo) ^ (np.isin(hi, planted) & np.isin(lo, flipped))

    monkeypatch.setattr(rado, "_bit", broken)
    with pytest.raises(MetricFailureError) as exc:
        rado_extension_witnesses(batch_u, batch_v)
    assert exc.value.pair == k
    assert str(exc.value) == f"witness {witnesses[k]} is not adjacent to 3 in U"
    flipped[:] = [5, 1]
    with pytest.raises(MetricFailureError) as exc:
        rado_extension_witnesses(batch_u, batch_v)
    assert exc.value.pair == k
    assert str(exc.value) == f"witness {witnesses[k]} is adjacent to 1 in V"


@pytest.mark.parametrize("vertex,error", [
    (2, "witness 68 is not adjacent to 2 in U"),
    (5, "witness 68 is adjacent to 5 in V"),
])
def test_battery_reports_the_first_breach_in_loop_order(monkeypatch, vertex, error):
    # witness 68 = 2^2 + 2^6 first arises at U = [2], V = [5] (|U| + |V| = 2);
    # the same patch on the per-pair loop this battery replaced gave these reports
    real = rado._bit

    def broken(hi, lo):
        return real(hi, lo) ^ ((hi == 68) & (lo == vertex))

    monkeypatch.setattr(rado, "_bit", broken)
    report = suite.battery_rado(42)
    assert report.verdict == "fail"
    assert report.witness == {"U": [2], "V": [5], "error": error}


def test_mask_vertices_round_trips():
    assert mask_vertices(0) == []
    assert mask_vertices(np.int64(0b1011)) == [0, 1, 3]
    assert mask_vertices(masks([[100, 3]])[0]) == [3, 100]


# -- basis codes -------------------------------------------------------------


def test_empty_code_accepts_everything():
    empty = BasisCode(())
    assert basis_member(empty, 17)
    assert basis_member(empty, BasisCode.parse("0:1"))


def test_vertex_membership():
    p = BasisCode.parse("0:1")
    assert basis_member(p, 1)      # d(0,1) = 1
    assert not basis_member(p, 2)  # d(0,2) = 2
    assert not basis_member(p, 0)  # d(0,0) = 0, never 1 or 2


def test_code_membership_requires_covering_domain():
    p = BasisCode.parse("0:1,1:2")
    q_super = BasisCode.parse("0:1,1:2,5:1")
    q_conflict = BasisCode.parse("0:2,1:2")
    assert basis_member(p, q_super)
    assert not basis_member(p, q_conflict)
    with pytest.raises(UndeterminedMembershipError):
        basis_member(p, BasisCode.parse("0:1"))


def test_membership_monotone_under_code_extension():
    rng = random.Random(5)
    for _ in range(200):
        dom = rng.sample(range(10), rng.randint(1, 4))
        big = BasisCode.from_mapping({a: rng.choice((1, 2)) for a in dom})
        small_dom = dom[: rng.randint(1, len(dom))]
        small = BasisCode.from_mapping({a: dict(big.assignment)[a] for a in small_dom})
        for vertex in rng.sample(range(128), 16):
            if basis_member(big, vertex):
                assert basis_member(small, vertex)


def test_refinement_containment_and_union():
    p = BasisCode.parse("0:1")
    q = BasisCode.parse("1:2")
    rep = basis_refinement_check(p, q, range(64))
    assert rep.verdict == "pass" and rep.counts == {"checked": 64}
    q_super = BasisCode.parse("0:1,3:2")
    rep2 = basis_refinement_check(p, q_super, range(64))
    assert rep2.verdict == "pass"


def test_conflicting_codes_have_empty_intersection():
    p = BasisCode.parse("0:1")
    q = BasisCode.parse("0:2")
    rep = basis_refinement_check(p, q, range(256))
    assert rep.verdict == "pass" and rep.params["mode"] == "conflict-empty"
    assert rep.counts == {"checked": 256}
    with pytest.raises(IncompatibleCodesError):
        p.union(q)


def test_code_parse_roundtrip():
    text = "0:1,3:2,7:1"
    assert BasisCode.parse(text).format() == text
    with pytest.raises(PreconditionError):
        BasisCode.parse("0:3")
    with pytest.raises(IncompatibleCodesError):
        BasisCode.parse("0:1,0:2")
