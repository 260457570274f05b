"""rado-model: BIT adjacency, graph metric, extension witnesses, basis codes."""

import itertools
import random

import pytest

from mslab import rado, validate_metric
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
    rado_adjacent,
    rado_extension_witness,
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
    # a broken adjacency makes the arithmetic witness wrong on one side; the
    # check is a raise, so it also fires under python -O
    real = rado.rado_adjacent
    flip = set(U) if side == "U" else set(V)

    def broken(i, j):
        return real(i, j) != (i in flip)

    monkeypatch.setattr(rado, "rado_adjacent", broken)
    with pytest.raises(MetricFailureError, match=f"in {side}"):
        rado_extension_witness(U, V)


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
        small = BasisCode.from_mapping({a: big.value(a) for a in small_dom})
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
