"""Radius-bounded coset balls of two finitely generated infinite groups.

Both graphs are grown lazily by breadth-first search from the two cosets of
the identity.  Vertices at distance exactly the radius are kept but marked
as boundary (interior=False): a truncated ball cannot certify their degrees,
while interior vertices carry their full neighborhood.

The integer matrix groups and their generators:

* SL2(Z) generated by s1 = [[0,-1],[1,0]] (order 4) and x = s1*s2 =
  [[0,-1],[1,1]] (order 6).  Cross-class coset intersections always have
  size 0 or 2 because -I lies in both cyclic subgroups.
* The affine group {[[a,b],[0,1]] : a = +-1, b integer} generated by
  s0 = (-1, 0) and s2 = (-1, -1), both of order 2; intersections have size
  0 or 1 and the graph is a two-way infinite path.

Matrix entries are plain Python integers, so there is no overflow bound.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple, Union

from .errors import InvalidParameterError, SizeLimitError
from .multigraph import Multigraph

INFINITE = math.inf

SL2Z_RADIUS_LIMIT = 12
AFFINE_RADIUS_LIMIT = 1000


class Mat2Z:
    """2x2 integer matrix; SL2(Z) elements have determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __eq__(self, other):
        if type(other) is not Mat2Z:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __mul__(self, other: "Mat2Z") -> "Mat2Z":
        return Mat2Z(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def key(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


class AffElem:
    """Element (a, b) of the affine group, i.e. the matrix [[a,b],[0,1]]."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a not in (1, -1):
            raise InvalidParameterError("a must be +1 or -1")
        self.a = a
        self.b = b

    def __eq__(self, other):
        if type(other) is not AffElem:
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __mul__(self, other: "AffElem") -> "AffElem":
        return AffElem(self.a * other.a, self.a * other.b + self.b)

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


class BallVertex(NamedTuple):
    class_id: int
    elements: tuple  # member keys, sorted; the first is the canonical key
    interior: bool
    distance: int

    @property
    def key(self):
        return self.elements[0]


class BallGraph:
    """A radius-r ball of an infinite coset graph."""

    def __init__(
        self,
        radius: int,
        vertices: list[BallVertex],
        edges: list[tuple[int, int, int]],
        kind: str,
    ):
        self.radius = radius
        self.vertices = vertices
        self.edges = edges
        self.kind = kind

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def class_members(self) -> list[list[int]]:
        """Vertex ids of class 0 and of class 1, each in id order."""
        return [
            [i for i, vert in enumerate(self.vertices) if vert.class_id == c]
            for c in (0, 1)
        ]

    def to_multigraph(self) -> Multigraph:
        return Multigraph(len(self.vertices), self.class_members(), self.edges)

    def __repr__(self) -> str:
        return (
            f"BallGraph({self.kind}, radius={self.radius}, "
            f"vertices={len(self.vertices)}, edges={len(self.edges)})"
        )


def _cyclic_subgroup(gen, identity):
    powers = [identity]
    acc = gen
    while acc != identity:
        powers.append(acc)
        acc = acc * gen
    return powers


def _grow_ball(radius: int, identity, generators, kind: str) -> BallGraph:
    """Generic coset-ball BFS for a two-generator group.

    A class-c coset through element g is {h * g : h in <s_c>}; neighbors of a
    coset are the opposite-class cosets through each of its members, with
    multiplicity the size of the member overlap.
    """
    subgroups = [_cyclic_subgroup(gen, identity) for gen in generators]

    def coset(class_id: int, through) -> tuple[tuple, tuple]:
        """The members of a class-c coset sorted by key, and their keys."""
        # keys are distinct, so the elements themselves are never compared
        pairs = sorted((e.key(), e) for e in (h * through for h in subgroups[class_id]))
        return tuple(e for _, e in pairs), tuple(key for key, _ in pairs)

    # per class, member key -> vertex id, for every member of every vertex
    owner: tuple[dict, dict] = ({}, {})
    vertices: list[tuple[int, tuple, int]] = []  # (class, member keys, dist)
    queue = deque()  # (vertex id, members) of each vertex not yet expanded

    def add(class_id: int, members: tuple, keys: tuple, dist: int) -> int:
        vid = len(vertices)
        owner[class_id].update(dict.fromkeys(keys, vid))
        vertices.append((class_id, keys, dist))
        queue.append((vid, members))
        return vid

    for class_id in (0, 1):
        add(class_id, *coset(class_id, identity), 0)

    edges: dict[tuple[int, int], int] = {}
    while queue:
        vid, members = queue.popleft()
        class_id, keys, dist = vertices[vid]
        other = 1 - class_id
        # Each member lies in one coset of the other class.  One already in
        # the ball is found through its owner; a new one is computed once and
        # named by its first key (distinct cosets are disjoint).
        known: dict[int, int] = {}
        fresh: dict[tuple, tuple[tuple, tuple]] = {}
        fresh_mult: dict[tuple, int] = {}
        first_key: dict[tuple, tuple] = {}  # member key -> its fresh coset's first key
        for elem, member in zip(members, keys):
            nid = owner[other].get(member)
            if nid is not None:
                known[nid] = known.get(nid, 0) + 1
                continue
            key = first_key.get(member)
            if key is None:
                fresh_coset = coset(other, elem)
                key = fresh_coset[1][0]
                fresh[key] = fresh_coset
                first_key.update(dict.fromkeys(fresh_coset[1], key))
            fresh_mult[key] = fresh_mult.get(key, 0) + 1
        if dist + 1 <= radius:
            for key in sorted(fresh):
                known[add(other, *fresh[key], dist + 1)] = fresh_mult[key]
        for nid, mult in known.items():
            a, b = (vid, nid) if vid < nid else (nid, vid)
            edges[(a, b)] = mult

    out_vertices = [
        BallVertex(class_id=class_id, elements=keys, interior=dist < radius, distance=dist)
        for class_id, keys, dist in vertices
    ]
    edge_list = sorted((u, v, m) for (u, v), m in edges.items())
    return BallGraph(radius, out_vertices, edge_list, kind=kind)


def sl2z_ball(radius: int) -> BallGraph:
    """Ball of the SL2(Z) coset graph for generators of order 4 and 6."""
    if not 0 <= radius <= SL2Z_RADIUS_LIMIT:
        raise SizeLimitError(f"radius must be in [0, {SL2Z_RADIUS_LIMIT}]")
    identity = Mat2Z(1, 0, 0, 1)
    s1 = Mat2Z(0, -1, 1, 0)
    x = Mat2Z(0, -1, 1, 1)
    return _grow_ball(radius, identity, (s1, x), kind="sl2z")


def affine_ball(radius: int) -> BallGraph:
    """Ball of the affine-group coset graph for the two order-2 generators."""
    if not 0 <= radius <= AFFINE_RADIUS_LIMIT:
        raise SizeLimitError(f"radius must be in [0, {AFFINE_RADIUS_LIMIT}]")
    identity = AffElem(1, 0)
    s0 = AffElem(-1, 0)
    s2 = AffElem(-1, -1)
    return _grow_ball(radius, identity, (s0, s2), kind="affine")


def is_locally_finite(gen_orders: Iterable[Union[int, float]]) -> bool:
    """True iff every generator order is finite.

    Orders are positive integers or INFINITE (math.inf); an empty sequence is
    vacuously locally finite.
    """
    for o in gen_orders:
        if o == INFINITE:
            return False
        if not (isinstance(o, int) and o >= 1):
            raise InvalidParameterError(f"not an order: {o!r}")
    return True
