"""Executable structural checks for coset graphs.

Connectivity, Eulerian-ness, per-class regularity and the bipartite/biregular
summary are computed on the multigraph (degrees count multiplicity), plus the
subgroup-induced-subgraph comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .multigraph import as_multigraph

# ggraph and groups (which loads numpy) are imported inside the one function
# that builds a graph, so ``analyze`` loads neither
if TYPE_CHECKING:
    from .groups import GenSequence, GroupTable


class StructureReport(NamedTuple):
    connected: bool
    eulerian: bool
    bipartite: bool
    biregular: bool
    biregular_degrees: Optional[tuple[int, int]]
    # class-dependent fields; None when the graph carries no partition
    is_k_partite_valid: Optional[bool]
    per_class_degree_uniform: Optional[bool]
    class_degrees: Optional[tuple[Optional[int], ...]]


def analyze(graph) -> StructureReport:
    """StructureReport for any graph: a Multigraph, or a view over one.

    Eulerian means connected with every multiplicity-weighted degree even;
    adjacency for connectivity treats any multiplicity >= 1 as an edge.  The
    class-dependent fields read the graph's stored partition.
    """
    mg = as_multigraph(graph)
    adj = mg.adjacency()
    # a row holds each neighbour's multiplicity once, and there are no loops
    degrees = list(map(sum, map(dict.values, adj)))
    sides, components = mg.traverse(adj)
    connected = components <= 1
    eulerian = connected and all(d % 2 == 0 for d in degrees)

    bipartite = sides is not None
    biregular = False
    biregular_degrees = None
    if bipartite and mg.n >= 2:
        side_degrees = mg.class_degrees(sides, degrees)
        if None not in side_degrees:
            biregular = True
            biregular_degrees = tuple(side_degrees)

    partite_ok = None
    uniform = None
    class_degrees = None
    if mg.classes is not None:
        partite_ok = mg.intra_class_edge() is None
        class_degrees = tuple(mg.class_degrees(degrees=degrees))
        uniform = None not in class_degrees

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
    elements.  Each vertex of the coset graph of (H, selection) is mapped to
    the vertex of the big graph with the same coset.  Returns True iff, class
    by class, those are exactly the big graph's cosets wholly contained in H,
    and the mapped edges are the edges the big graph induces on them, with
    equal multiplicities.
    """
    from .ggraph import build_ggraph
    from .groups import make_gen_sequence, subgroup_table

    h_positions = list(h_positions)
    if not h_positions:
        raise ValueError("need at least one selected position")
    if any(not 0 <= p < len(s) for p in h_positions):
        raise ValueError("selected positions must index the sequence")

    big = build_ggraph(g, s)
    sub_elements = [s.positions[p] for p in h_positions]
    h, to_sub = subgroup_table(g, sub_elements)
    small = build_ggraph(h, make_gen_sequence(h, [to_sub[x] for x in sub_elements]))
    members = list(to_sub)  # ascending, so a coset's parent indices stay sorted

    # image[v]: the big-graph vertex whose coset is that of small vertex v
    image: list[int] = []
    for idx, p in enumerate(h_positions):
        contained = {
            coset.elements: big.class_offsets[p] + local
            for local, coset in enumerate(big.partitions[p])
            if all(x in to_sub for x in coset.elements)
        }
        cosets = [tuple(members[x] for x in coset.elements) for coset in small.partitions[idx]]
        if set(cosets) != set(contained):
            return False
        image += [contained[c] for c in cosets]

    kept = set(image)
    induced = {(u, v): m for u, v, m in big.edges if u in kept and v in kept}
    # a repeated position maps two classes onto one, whose edges are not induced
    mapped = {tuple(sorted((image[u], image[v]))): m for u, v, m in small.edges}
    return mapped == induced
