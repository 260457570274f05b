"""A concrete computable copy of the countable universal homogeneous graph.

Vertices are the non-negative integers; i < j are adjacent iff bit i of j
is set (the BIT graph). Adjacency is O(1), the extension property has an
explicit arithmetic witness, and the graph metric (1 on edges, 2 on
non-edges) turns any finite vertex set into an exact diameter-2 metric
space. Points of the boundary factor are represented only by their finite
partial data (a vertex-to-{1,2} assignment); membership queries that
would depend on unseen coordinates raise rather than guess.

A finite vertex set is also an integer mask: bit e set means vertex e is
in the set. `rado_extension_witnesses` computes and checks the extension
witnesses of a whole array of (U, V) mask pairs in numpy; the one-pair
`rado_extension_witness` applies it to a single pair, so the witness
contract is checked in one place. That check and `rado_adjacent` share one
edge test, `_bit`, on ints and elementwise on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    IncompatibleCodesError,
    MetricFailureError,
    MslabError,
    PreconditionError,
    SelfLoopError,
    UndeterminedMembershipError,
)
from .metric import MetricSpace
from .report import WitnessReport


def _bit(hi, lo):
    """Bit lo of hi, as 0 or 1: the BIT graph's edge test for lo < hi. It
    works on ints and elementwise on numpy arrays."""
    return (hi >> lo) & 1


def rado_adjacent(i: int, j: int) -> bool:
    """Edge relation of the BIT graph: bit min(i,j) of max(i,j)."""
    if i < 0 or j < 0:
        raise PreconditionError("vertices are non-negative integers")
    if i == j:
        raise SelfLoopError(f"no loops: both endpoints are {i}")
    lo, hi = (i, j) if i < j else (j, i)
    return _bit(hi, lo) == 1


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


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    mask = int(mask)
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _about_pair(exc: MslabError, k) -> MslabError:
    """exc, with the index of the pair it is about as `pair`."""
    exc.pair = int(k)
    return exc


def _mask_array(masks) -> np.ndarray:
    """masks as an array in their own integer dtype, or else as Python ints:
    numpy stores a list that mixes int64 and uint64 values as floats."""
    array = np.asarray(masks)
    return array if array.dtype.kind in "iuO" else np.array(masks, dtype=object)


def rado_extension_witnesses(U, V) -> np.ndarray:
    """The extension witness of every pair (U[k], V[k]) of disjoint vertex
    masks: w = U | 2^top, with top the bit length of U | V.

    Every vertex of U | V lies below top, hence below w, so w is adjacent
    to e exactly when bit e of w is set: to all of U and to nothing in V.
    That contract is re-checked with the edge test (bit min of max) on
    every bit of U | V before returning. The result, like the arithmetic,
    is int64 while every witness fits and `object` (Python ints) otherwise.

    A negative mask or an overlap raises PreconditionError; a broken
    contract raises MetricFailureError naming the witness and the vertex.
    Either error is about the first offending pair in input order, whose
    index it carries as `pair`; within a pair, U's vertices are checked in
    ascending order before V's.
    """
    U, V = _mask_array(U), _mask_array(V)
    if U.ndim != 1 or U.shape != V.shape:
        raise PreconditionError("U and V must be two equal-length 1-d arrays of masks")
    negative = np.flatnonzero((U < 0) | (V < 0))
    if negative.size:
        raise _about_pair(PreconditionError("vertices are non-negative integers"), negative[0])
    width = int(max(U.max(initial=0), V.max(initial=0))).bit_length()
    # a witness has width + 1 bits, so int64 holds it while width <= 62
    dtype = np.int64 if width <= 62 else object
    U, V = U.astype(dtype), V.astype(dtype)
    overlap = np.flatnonzero(U & V)
    if overlap.size:
        k = overlap[0]
        raise _about_pair(PreconditionError(f"U and V overlap: {mask_vertices(U[k] & V[k])}"), k)

    both, top = U | V, np.zeros_like(U)
    vertices = mask_vertices(np.bitwise_or.reduce(both))  # every vertex of some U | V
    for e in vertices:
        top[(both >> e) != 0] = e + 1
    w = U | (np.ones_like(U) << top)
    # the vertices of U that w misses and of V that it hits, as masks
    bad_u, bad_v = np.zeros_like(U), np.zeros_like(U)
    for e in vertices:
        adjacent = _bit(np.maximum(e, w), np.minimum(e, w))
        bad_u |= ((U >> e) & 1 & (1 - adjacent)) << e
        bad_v |= ((V >> e) & 1 & adjacent) << e
    breach = np.flatnonzero(bad_u | bad_v)
    if breach.size:
        k = breach[0]
        if bad_u[k]:
            u = mask_vertices(bad_u[k])[0]
            raise _about_pair(MetricFailureError(f"witness {w[k]} is not adjacent to {u} in U"), k)
        v = mask_vertices(bad_v[k])[0]
        raise _about_pair(MetricFailureError(f"witness {w[k]} is adjacent to {v} in V"), k)
    return w


def rado_extension_witness(U: Iterable[int], V: Iterable[int]) -> int:
    """A vertex adjacent to everything in U and nothing in V: the witness
    of `rado_extension_witnesses` for the one pair of masks of U and V."""
    U, V = set(U), set(V)
    if min(U | V, default=0) < 0:
        raise PreconditionError("vertices are non-negative integers")
    return int(rado_extension_witnesses([sum(1 << u for u in U)], [sum(1 << v for v in V)])[0])


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
