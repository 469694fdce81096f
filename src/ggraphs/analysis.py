"""Executable structural checks for coset graphs.

Connectivity, Eulerian-ness, per-class regularity and the bipartite/biregular
summary are computed on the multigraph (degrees count multiplicity), plus the
subgroup-induced-subgraph comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .ggraph import GGraph, build_ggraph
from .multigraph import Multigraph

# groups loads numpy, so it is imported inside the functions that use a group
if TYPE_CHECKING:
    from .groups import GenSequence, GroupTable


@dataclass(frozen=True)
class StructureReport:
    connected: bool
    eulerian: bool
    bipartite: bool
    biregular: bool
    biregular_degrees: Optional[tuple[int, int]]
    # class-dependent fields; None when the graph carries no partition
    is_k_partite_valid: Optional[bool]
    per_class_degree_uniform: Optional[bool]
    class_degrees: Optional[tuple[Optional[int], ...]]


def analyze(gg: GGraph) -> StructureReport:
    """StructureReport for a built coset graph.

    Eulerian means connected with every multiplicity-weighted degree even;
    adjacency for connectivity treats any multiplicity >= 1 as an edge.
    """
    return structure_report(gg.to_multigraph())


def structure_report(mg: Multigraph) -> StructureReport:
    degrees = mg.weighted_degrees()
    connected = mg.is_connected()
    eulerian = connected and all(d % 2 == 0 for d in degrees)

    sides = mg.bipartition()
    bipartite = sides is not None
    biregular = False
    biregular_degrees = None
    if bipartite and mg.n >= 2:
        d0 = {degrees[v] for v in sides[0]}
        d1 = {degrees[v] for v in sides[1]}
        if len(d0) == 1 and len(d1) == 1:
            biregular = True
            biregular_degrees = (d0.pop(), d1.pop())

    partite_ok = None
    uniform = None
    class_degrees = None
    if mg.classes is not None:
        where = {}
        for c, cls in enumerate(mg.classes):
            for v in cls:
                where[v] = c
        partite_ok = all(where[u] != where[v] for u, v in mg.edges)
        per_class: list[Optional[int]] = []
        uniform = True
        for cls in mg.classes:
            seen = {degrees[v] for v in cls}
            if len(seen) == 1:
                per_class.append(seen.pop())
            else:
                per_class.append(None)
                uniform = False
        class_degrees = tuple(per_class)

    return StructureReport(
        connected=connected,
        eulerian=eulerian,
        bipartite=bipartite,
        biregular=biregular,
        biregular_degrees=biregular_degrees,
        is_k_partite_valid=partite_ok,
        per_class_degree_uniform=uniform,
        class_degrees=class_degrees,
    )


def check_subgroup_subgraph(
    g: GroupTable, s: GenSequence, h_positions: Sequence[int]
) -> bool:
    """Does the subgroup generated by a subsequence induce its own coset graph?

    ``h_positions`` selects positions of ``s``; H is the closure of those
    elements.  Returns True iff the subgraph of the big graph induced by the
    cosets wholly contained in H matches the coset graph of (H, selection)
    class by class with equal multiplicities.
    """
    from .groups import make_gen_sequence, subgroup_table

    h_positions = list(h_positions)
    if not h_positions:
        raise ValueError("need at least one selected position")
    if any(not 0 <= p < len(s) for p in h_positions):
        raise ValueError("selected positions must index the sequence")

    big = build_ggraph(g, s)
    sub_elements = [s.positions[p] for p in h_positions]
    h, to_sub = subgroup_table(g, sub_elements)
    from_sub = {v: k for k, v in to_sub.items()}
    h_seq = make_gen_sequence(h, [to_sub[x] for x in sub_elements])
    small = build_ggraph(h, h_seq)
    h_set = set(to_sub)

    # Vertices of the induced subgraph: big-graph cosets fully inside H,
    # restricted to the selected classes.
    contained: dict[int, dict[frozenset, int]] = {}
    for idx, p in enumerate(h_positions):
        per_class = {}
        for local, coset in enumerate(big.partitions[p]):
            if set(coset.elements) <= h_set:
                per_class[frozenset(coset.elements)] = big.class_offsets[p] + local
        contained[idx] = per_class

    # The small graph's cosets, mapped back to parent element indices.
    small_vertex: dict[int, dict[frozenset, int]] = {}
    for idx in range(len(h_positions)):
        mapped = {}
        for local, coset in enumerate(small.partitions[idx]):
            parent = frozenset(from_sub[e] for e in coset.elements)
            mapped[parent] = small.class_offsets[idx] + local
        small_vertex[idx] = mapped
        if set(mapped) != set(contained[idx]):
            return False

    # Multiplicities must agree pairwise.
    big_mult = {(u, v): m for u, v, m in big.edges}
    small_mult = {(u, v): m for u, v, m in small.edges}
    for i in range(len(h_positions)):
        for j in range(i + 1, len(h_positions)):
            for coset_i, big_u in contained[i].items():
                for coset_j, big_v in contained[j].items():
                    a, b = min(big_u, big_v), max(big_u, big_v)
                    small_u = small_vertex[i][coset_i]
                    small_v = small_vertex[j][coset_j]
                    c, d = min(small_u, small_v), max(small_u, small_v)
                    if big_mult.get((a, b), 0) != small_mult.get((c, d), 0):
                        return False
    return True
