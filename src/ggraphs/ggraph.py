"""Builds the loopless coset graph of a group and a generating sequence.

Vertices are the right cosets of the cyclic subgroups <s_i>, one partition
class per sequence position; two cosets in distinct classes are joined by an
edge of multiplicity equal to the size of their intersection.  Degrees and
edge counts always count multiplicity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NotAGeneratingSetError, SizeLimitError
from .multigraph import MULTIPLICITY_LIMIT, VERTEX_LIMIT, Multigraph, weighted_degrees

# groups loads numpy, so it is imported inside the functions that use a group
if TYPE_CHECKING:
    from .groups import Coset, GenSequence, GroupTable


@dataclass(frozen=True)
class PredictedStats:
    """Closed-form statistics implied by |G| and the generator orders."""

    class_vertex_counts: tuple[int, ...]
    class_degrees: tuple[int, ...]
    vertex_count: int
    edge_multiplicity_total: int


class GGraph:
    """A partitioned loopless multigraph built from right cosets.

    Vertex ids are dense, class-major, and within a class follow ascending
    canonical representative, so rebuilding from equal inputs reproduces the
    object exactly.  Instances are immutable.
    """

    __slots__ = (
        "k",
        "group_order",
        "gen_orders",
        "gen_labels",
        "partitions",
        "edges",
        "class_offsets",
        "vertex_count",
    )

    def __init__(
        self,
        k: int,
        group_order: int,
        gen_orders: tuple[int, ...],
        gen_labels: tuple[str, ...],
        partitions: tuple[tuple[Coset, ...], ...],
        edges: tuple[tuple[int, int, int], ...],
    ):
        self.k = k
        self.group_order = group_order
        self.gen_orders = gen_orders
        self.gen_labels = gen_labels
        self.partitions = partitions
        self.edges = edges
        offsets = [0]
        for part in partitions:
            offsets.append(offsets[-1] + len(part))
        self.class_offsets = tuple(offsets)
        self.vertex_count = offsets[-1]

    def class_of(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise IndexError(f"vertex {v} out of range")
        return bisect_right(self.class_offsets, v) - 1

    def coset_of(self, v: int) -> Coset:
        c = self.class_of(v)
        return self.partitions[c][v - self.class_offsets[c]]

    def weighted_degrees(self) -> list[int]:
        return weighted_degrees(self.vertex_count, self.edges)

    def natural_partition(self) -> list[list[int]]:
        return [
            list(range(self.class_offsets[c], self.class_offsets[c + 1]))
            for c in range(self.k)
        ]

    def to_multigraph(self) -> Multigraph:
        return Multigraph(self.vertex_count, self.natural_partition(), self.edges)

    def __repr__(self) -> str:
        total = sum(m for _, _, m in self.edges)
        return (
            f"GGraph(k={self.k}, vertices={self.vertex_count}, "
            f"edge_multiplicity={total})"
        )


def predicted_stats(g: GroupTable, s: GenSequence) -> PredictedStats:
    """Per-class vertex counts |G|/o(s_i), degrees o(s_i)(k-1), and totals.

    Used as an independent oracle against the explicit construction.
    """
    k = len(s)
    counts = tuple(g.order // o for o in s.orders)
    degrees = tuple(o * (k - 1) for o in s.orders)
    return PredictedStats(
        class_vertex_counts=counts,
        class_degrees=degrees,
        vertex_count=sum(counts),
        edge_multiplicity_total=k * (k - 1) // 2 * g.order,
    )


def build_ggraph(g: GroupTable, s: GenSequence | list[int]) -> GGraph:
    """Construct the coset graph of (g, s).

    Accepts a validated GenSequence or raw element indices (validated here).
    Edge multiplicities are found by mapping every group element to its coset
    in each class: element x contributes one unit between coset_i(x) and
    coset_j(x) for every class pair i < j.  The vertex count sum |G|/o(s_i)
    is checked against VERTEX_LIMIT, and the edge multiplicity total
    k(k-1)/2 * |G| against MULTIPLICITY_LIMIT, before any coset is enumerated.
    """
    from .groups import GenSequence, make_gen_sequence, right_cosets

    if not isinstance(s, GenSequence):
        s = make_gen_sequence(g, s)
    else:
        # fail fast if a stale sequence is replayed against another group
        if any(not 0 <= x < g.order for x in s.positions):
            raise NotAGeneratingSetError("sequence does not index this group")
    vertices = sum(g.order // o for o in s.orders)
    if vertices > VERTEX_LIMIT:
        raise SizeLimitError(f"vertex count {vertices} exceeds {VERTEX_LIMIT}")
    k = len(s)
    units = k * (k - 1) // 2 * g.order
    if units > MULTIPLICITY_LIMIT:
        raise SizeLimitError(f"edge multiplicity {units} exceeds {MULTIPLICITY_LIMIT}")
    partitions = []
    vertex_of = []  # per class: element -> the vertex id of its coset
    for x in s.positions:
        cosets = right_cosets(g, x)
        where = [0] * g.order
        for v, coset in enumerate(cosets, start=sum(map(len, partitions))):
            for elem in coset.elements:
                where[elem] = v
        partitions.append(tuple(cosets))
        vertex_of.append(where)

    mult: dict[tuple[int, int], int] = {}
    for i in range(k):
        for j in range(i + 1, k):
            for key in zip(vertex_of[i], vertex_of[j]):
                mult[key] = mult.get(key, 0) + 1

    edges = tuple(sorted((u, v, m) for (u, v), m in mult.items()))
    return GGraph(
        k=k,
        group_order=g.order,
        gen_orders=s.orders,
        gen_labels=tuple(g.labels[x] for x in s.positions),
        partitions=tuple(partitions),
        edges=edges,
    )
