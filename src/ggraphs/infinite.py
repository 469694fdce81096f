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

Elements are tuples of plain Python integers, so there is no overflow
bound: (a, b, c, d) is [[a,b],[c,d]] and (a, b) is [[a,b],[0,1]].
"""

from __future__ import annotations

import math
import operator
from collections import deque
from typing import Iterable, NamedTuple, Union

from .errors import InvalidParameterError, SizeLimitError
from .multigraph import Multigraph

INFINITE = math.inf

SL2Z_RADIUS_LIMIT = 12
AFFINE_RADIUS_LIMIT = 1000


class BallVertex(NamedTuple):
    class_id: int
    elements: tuple  # the coset's members, sorted; the first is the canonical key
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


def _mat_mul(x: tuple, y: tuple) -> tuple:
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _aff_mul(x: tuple, y: tuple) -> tuple:
    (a, b), (c, d) = x, y
    return (a * c, a * d + b)


def _cyclic_subgroup(gen, identity, mul):
    powers = [identity]
    acc = gen
    while acc != identity:
        powers.append(acc)
        acc = mul(acc, gen)
    return powers


def _grow_ball(radius: int, identity, generators, mul, kind: str) -> BallGraph:
    """Generic coset-ball BFS for a two-generator group with product ``mul``.

    A class-c coset through element g is {h * g : h in <s_c>}; neighbors of a
    coset are the opposite-class cosets through each of its members, with
    multiplicity the size of the member overlap.
    """
    subgroups = [_cyclic_subgroup(gen, identity, mul) for gen in generators]

    def coset(class_id: int, through) -> tuple:
        """The members of the class-c coset through an element, sorted."""
        return tuple(sorted(mul(h, through) for h in subgroups[class_id]))

    # per class, member -> vertex id, for every member of every vertex
    owner: tuple[dict, dict] = ({}, {})
    vertices: list[tuple[int, tuple, int]] = []  # (class, members, dist)
    queue = deque()  # ids of the vertices not yet expanded

    def add(class_id: int, members: tuple, dist: int) -> int:
        vid = len(vertices)
        owner[class_id].update(dict.fromkeys(members, vid))
        vertices.append((class_id, members, dist))
        queue.append(vid)
        return vid

    for class_id in (0, 1):
        add(class_id, coset(class_id, identity), 0)

    edges: dict[tuple[int, int], int] = {}
    while queue:
        vid = queue.popleft()
        class_id, members, dist = vertices[vid]
        other = 1 - class_id
        # Each member lies in one coset of the other class.  One already in
        # the ball is found through its owner; a new one is computed once and
        # keyed by its members, which no other coset shares.
        known: dict[int, int] = {}
        fresh: dict[tuple, int] = {}  # new coset -> multiplicity
        fresh_of: dict[tuple, tuple] = {}  # member -> its new coset
        for member in members:
            nid = owner[other].get(member)
            if nid is not None:
                known[nid] = known.get(nid, 0) + 1
                continue
            new = fresh_of.get(member)
            if new is None:
                new = coset(other, member)
                fresh_of.update(dict.fromkeys(new, new))
            fresh[new] = fresh.get(new, 0) + 1
        if dist < radius:
            # disjoint cosets sort by their first members
            for new in sorted(fresh):
                known[add(other, new, dist + 1)] = fresh[new]
        for nid, mult in known.items():
            edges[(vid, nid) if vid < nid else (nid, vid)] = mult

    out_vertices = [BallVertex(class_id, members, dist < radius, dist)
                    for class_id, members, dist in vertices]
    edge_list = sorted((u, v, m) for (u, v), m in edges.items())
    return BallGraph(radius, out_vertices, edge_list, kind=kind)


def _check_radius(radius, limit: int) -> None:
    if isinstance(radius, bool) or not isinstance(radius, int):
        raise InvalidParameterError(f"radius must be an int, not {radius!r}")
    if not 0 <= radius <= limit:
        raise SizeLimitError(f"radius must be in [0, {limit}]")


def sl2z_ball(radius: int) -> BallGraph:
    """Ball of the SL2(Z) coset graph for generators of order 4 and 6."""
    _check_radius(radius, SL2Z_RADIUS_LIMIT)
    s1, x = (0, -1, 1, 0), (0, -1, 1, 1)
    return _grow_ball(radius, (1, 0, 0, 1), (s1, x), _mat_mul, kind="sl2z")


def affine_ball(radius: int) -> BallGraph:
    """Ball of the affine-group coset graph for the two order-2 generators."""
    _check_radius(radius, AFFINE_RADIUS_LIMIT)
    s0, s2 = (-1, 0), (-1, -1)
    return _grow_ball(radius, (1, 0), (s0, s2), _aff_mul, kind="affine")


def is_locally_finite(gen_orders: Iterable[Union[int, float]]) -> bool:
    """True iff every generator order is finite.

    Orders are positive integers of any integer type (a group's ``orders``
    array included, bools excluded) or INFINITE (math.inf); an empty sequence
    is vacuously locally finite.
    """
    for o in gen_orders:
        if o == INFINITE:
            return False
        try:
            valid = not isinstance(o, bool) and operator.index(o) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise InvalidParameterError(f"not an order: {o!r}")
    return True
