"""A concrete computable copy of the countable universal homogeneous graph.

Vertices are the non-negative integers; i < j are adjacent iff bit i of j
is set (the BIT graph). Adjacency is O(1), the extension property has an
explicit arithmetic witness, and the graph metric (1 on edges, 2 on
non-edges) turns any finite vertex set into an exact diameter-2 metric
space. Points of the boundary factor are represented only by their finite
partial data (a vertex-to-{1,2} assignment); membership queries that
would depend on unseen coordinates raise rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    IncompatibleCodesError,
    MetricFailureError,
    PreconditionError,
    SelfLoopError,
    UndeterminedMembershipError,
)
from .metric import MetricSpace
from .report import WitnessReport


def rado_adjacent(i: int, j: int) -> bool:
    """Edge relation of the BIT graph: bit min(i,j) of max(i,j)."""
    if i < 0 or j < 0:
        raise PreconditionError("vertices are non-negative integers")
    if i == j:
        raise SelfLoopError(f"no loops: both endpoints are {i}")
    lo, hi = (i, j) if i < j else (j, i)
    return (hi >> lo) & 1 == 1


def rado_metric(i: int, j: int) -> int:
    """Graph metric: 0 on the diagonal, 1 on edges, 2 otherwise."""
    if i == j:
        return 0
    return 1 if rado_adjacent(i, j) else 2


def rado_metric_space(vertices: Sequence[int]) -> MetricSpace:
    """The induced exact metric space on a finite vertex set (diameter 2)."""
    verts = list(vertices)
    if len(set(verts)) != len(verts):
        raise PreconditionError("duplicate vertices")
    return MetricSpace.from_grid([str(v) for v in verts], [[rado_metric(a, b) for b in verts] for a in verts], 1, 2)


def rado_extension_witness(U: Iterable[int], V: Iterable[int]) -> int:
    """A vertex adjacent to everything in U and nothing in V.

    Takes w = sum of 2^u over U plus one high bit 2^N with N above all of
    U and V; the high bit pushes w beyond both sets, and since all
    elements are below N (hence below w) adjacency to e is just bit e of
    w. The contract is re-verified through rado_adjacent before returning.
    """
    U, V = sorted(set(U)), sorted(set(V))
    if set(U) & set(V):
        raise PreconditionError(f"U and V overlap: {sorted(set(U) & set(V))}")
    if any(x < 0 for x in U + V):
        raise PreconditionError("vertices are non-negative integers")
    top = max(U + V) + 1 if U + V else 0
    w = sum(1 << u for u in U) + (1 << top)
    for u in U:
        if not rado_adjacent(u, w):
            raise MetricFailureError(f"witness {w} is not adjacent to {u} in U")
    for v in V:
        if rado_adjacent(v, w):
            raise MetricFailureError(f"witness {w} is adjacent to {v} in V")
    return w


@dataclass(frozen=True)
class BasisCode:
    """Finite partial data of a boundary point: a map from finitely many
    vertices to distance values in {1, 2}."""

    assignment: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted((int(a), int(v)) for a, v in self.assignment))
        seen = set()
        for a, v in pairs:
            if a < 0:
                raise PreconditionError("vertices are non-negative integers")
            if v not in (1, 2):
                raise PreconditionError(f"code values live in {{1, 2}}, got {v}")
            if a in seen:
                raise IncompatibleCodesError(f"vertex {a} assigned twice")
            seen.add(a)
        object.__setattr__(self, "assignment", pairs)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "BasisCode":
        return cls(tuple(mapping.items()))

    @classmethod
    def parse(cls, text: str) -> "BasisCode":
        """Parse 'vertex:value,vertex:value,...' (empty string = empty code)."""
        text = text.strip()
        if not text:
            return cls(())
        pairs = []
        for chunk in text.split(","):
            a, _, v = chunk.partition(":")
            pairs.append((int(a), int(v)))
        return cls(tuple(pairs))

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.assignment)

    def value(self, vertex: int) -> int:
        for a, v in self.assignment:
            if a == vertex:
                return v
        raise KeyError(vertex)

    def extends(self, other: "BasisCode") -> bool:
        mine = dict(self.assignment)
        return all(mine.get(a) == v for a, v in other.assignment)

    def compatible(self, other: "BasisCode") -> bool:
        mine = dict(self.assignment)
        return all(mine.get(a, v) == v for a, v in other.assignment)

    def union(self, other: "BasisCode") -> "BasisCode":
        if not self.compatible(other):
            raise IncompatibleCodesError("codes conflict on a common vertex")
        merged = dict(self.assignment)
        merged.update(dict(other.assignment))
        return BasisCode.from_mapping(merged)

    def format(self) -> str:
        return ",".join(f"{a}:{v}" for a, v in self.assignment)


Point = Union[int, BasisCode]


def basis_member(p: BasisCode, point: Point) -> bool:
    """Membership of a vertex or a coded boundary point in the basic set
    of the code p.

    Vertices are members iff their graph distance to each a in the domain
    equals p(a). A coded point must carry data on all of p's domain;
    otherwise membership is genuinely undetermined and an error is raised
    rather than a default invented.
    """
    if isinstance(point, BasisCode):
        missing = [a for a in p.domain if a not in point.domain]
        if missing:
            raise UndeterminedMembershipError(
                f"code lacks values on {missing}; membership undetermined"
            )
        return point.extends(p)
    vertex = int(point)
    if vertex < 0:
        raise PreconditionError("vertices are non-negative integers")
    return all(rado_metric(a, vertex) == v for a, v in p.assignment)


def basis_refinement_check(p: BasisCode, q: BasisCode, sample_vertices: Sequence[int]) -> WitnessReport:
    """Base-axiom check on a finite vertex sample.

    Compatible codes: membership in the union code must coincide with
    joint membership (and refinement containment follows). Conflicting
    codes: the vertex-level intersection must be empty. The fail witness is
    the least sample vertex that breaks the rule.
    """
    verts = sorted(set(int(v) for v in sample_vertices))
    union = p.union(q) if p.compatible(q) else None

    def broken(vertex: int) -> bool:
        both = basis_member(p, vertex) and basis_member(q, vertex)
        return both if union is None else both != basis_member(union, vertex)

    bad = next((i for i, vertex in enumerate(verts) if broken(vertex)), None)
    return WitnessReport(
        check="basis-refinement",
        params={"p": p.format(), "q": q.format(), "mode": "conflict-empty" if union is None else "union"},
        verdict="pass" if bad is None else "fail",
        witness=None if bad is None else {"vertex": verts[bad]},
        counts={"checked": len(verts) if bad is None else bad + 1},
    )
