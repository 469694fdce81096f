"""Multigraph canonical labeling, isomorphism, and family recognition.

Canonical forms come from iterative color refinement (multiplicities are part
of the refinement invariant) followed by individualization backtracking over
the coarsest equitable partition.  Two standard prunings keep the search
small: interchangeable vertices (identical adjacency rows) collapse to one
branch, and automorphisms discovered at leaves rule out sibling branches that
fix the current individualization prefix.

The generic machinery is bounded at SIZE_BOUND vertices; larger graphs are
meant to be validated through the structural recognizers and the closed-form
statistics instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeError
from .multigraph import (
    Multigraph,
    as_multigraph,
    hypercube_graph,
)

SIZE_BOUND = 64

COMPLETE = "complete"
CYCLE = "cycle"
COMPLETE_BIPARTITE = "complete_bipartite"
DOUBLE_EDGED_COMPLETE_BIPARTITE = "double_edged_complete_bipartite"
TURAN = "turan"
HYPERCUBE = "hypercube"
OCTAHEDRON = "octahedron"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class CanonicalForm:
    n: int
    edges: tuple[tuple[int, int, int], ...]
    certificate: str


@dataclass(frozen=True)
class FamilyTag:
    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"


def canonical_form(graph) -> CanonicalForm:
    """Canonical form invariant under any relabeling of the input vertices."""
    mg = as_multigraph(graph)
    if mg.n > SIZE_BOUND:
        raise TooLargeError(
            f"{mg.n} vertices exceeds the canonical-form bound {SIZE_BOUND}"
        )
    if mg.n == 0:
        return CanonicalForm(0, (), "n=0")
    edges = _Canonicalizer(mg).run()
    cert = f"n={mg.n};m={sum(m for _, _, m in edges)};" + ";".join(
        f"{u},{v},{m}" for u, v, m in edges
    )
    return CanonicalForm(mg.n, edges, cert)


def are_isomorphic(a, b) -> bool:
    """Multiplicity-preserving isomorphism test via canonical forms."""
    ma, mb = as_multigraph(a), as_multigraph(b)
    if ma.n != mb.n or ma.edge_multiplicity_total() != mb.edge_multiplicity_total():
        return False
    if sorted(ma.weighted_degrees()) != sorted(mb.weighted_degrees()):
        return False
    return canonical_form(ma).edges == canonical_form(mb).edges


class _Canonicalizer:
    def __init__(self, mg: Multigraph):
        self.n = mg.n
        self.edges = mg.edges
        self.adj = mg.adjacency()
        self.best: tuple | None = None
        self.best_labeling: list[int] | None = None
        self.automorphisms: list[tuple[int, ...]] = []

    def run(self) -> tuple[tuple[int, int, int], ...]:
        colors = self._refine(self._initial_colors())
        self._descend(colors, [])
        return self.best

    def _initial_colors(self) -> list[int]:
        keys = [tuple(sorted(row.values())) for row in self.adj]
        ranked = {k: i for i, k in enumerate(sorted(set(keys)))}
        return [ranked[k] for k in keys]

    def _refine(self, colors: list[int]) -> list[int]:
        # Signatures embed the old color, so each pass refines the partition;
        # assigning new ids by sorted signature keeps the result invariant
        # under vertex relabeling.
        while True:
            sigs = [
                (colors[v], tuple(sorted((colors[w], m) for w, m in row.items())))
                for v, row in enumerate(self.adj)
            ]
            ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [ranked[s] for s in sigs]
            if len(ranked) == len(set(colors)):
                return new
            colors = new

    def _cells(self, colors: list[int]) -> list[list[int]]:
        buckets: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            buckets.setdefault(c, []).append(v)
        return [buckets[c] for c in sorted(buckets)]

    def _descend(self, colors: list[int], prefix: list[int]) -> None:
        cells = self._cells(colors)
        target = None
        for cell in cells:
            if len(cell) > 1 and (target is None or len(cell) < len(target)):
                target = cell
        if target is None:
            self._leaf(colors)
            return
        tried: list[int] = []
        for v in target:
            if self._twin_of_tried(v, tried) or self._automorphic_to_tried(
                v, tried, prefix
            ):
                continue
            tried.append(v)
            branched = [2 * c for c in colors]
            branched[v] += 1
            self._descend(self._refine(branched), prefix + [v])

    def _twin_of_tried(self, v: int, tried: list[int]) -> bool:
        row_v = self.adj[v]
        for u in tried:
            row_u = self.adj[u]
            if {w: m for w, m in row_u.items() if w != v} == {
                w: m for w, m in row_v.items() if w != u
            }:
                return True
        return False

    def _automorphic_to_tried(
        self, v: int, tried: list[int], prefix: list[int]
    ) -> bool:
        tried_set = set(tried)
        for pi in self.automorphisms:
            if pi[v] in tried_set and all(pi[p] == p for p in prefix):
                return True
        return False

    def _leaf(self, colors: list[int]) -> None:
        order = sorted(range(self.n), key=colors.__getitem__)
        position = [0] * self.n
        for pos, v in enumerate(order):
            position[v] = pos
        relabeled = []
        for (u, w), m in self.edges.items():
            a, b = position[u], position[w]
            relabeled.append((a, b, m) if a < b else (b, a, m))
        enc = tuple(sorted(relabeled))
        if self.best is None or enc < self.best:
            self.best = enc
            self.best_labeling = position
        elif enc == self.best:
            # Equal encodings certify an automorphism: send each vertex to
            # the one holding the same canonical position in the best leaf.
            inverse_best = [0] * self.n
            for v, pos in enumerate(self.best_labeling):
                inverse_best[pos] = v
            pi = tuple(inverse_best[position[v]] for v in range(self.n))
            if pi not in self.automorphisms:
                self.automorphisms.append(pi)


# ---------------------------------------------------------------------------
# family recognition
# ---------------------------------------------------------------------------


def recognize_family(graph) -> FamilyTag:
    """Structural fast-path identification of the named reference families."""
    mg = as_multigraph(graph)
    n = mg.n
    if n == 0:
        return FamilyTag(UNKNOWN)

    mults = set(mg.edges.values())
    all_simple = mults <= {1}

    if all_simple and mg.distinct_edge_count() == n * (n - 1) // 2:
        return FamilyTag(COMPLETE, (n,))

    degrees = mg.weighted_degrees()
    sides, components = mg.traverse()
    connected = components == 1
    if all_simple and n >= 3 and all(d == 2 for d in degrees) and connected:
        return FamilyTag(CYCLE, (n,))

    if connected and len(mults) == 1 and sides is not None and sides[1]:
        a, b = len(sides[0]), len(sides[1])
        mult = next(iter(mults))
        if mg.distinct_edge_count() == a * b and mult in (1, 2):
            kind = COMPLETE_BIPARTITE if mult == 1 else DOUBLE_EDGED_COMPLETE_BIPARTITE
            return FamilyTag(kind, (min(a, b), max(a, b)))

    multipartite = _complete_multipartite_sizes(mg)
    if multipartite is not None:
        sizes = sorted(multipartite, reverse=True)
        if n == 6 and sizes == [2, 2, 2]:
            return FamilyTag(OCTAHEDRON)
        if max(sizes) - min(sizes) <= 1:
            return FamilyTag(TURAN, (n, len(sizes)))

    d = n.bit_length() - 1
    if (
        all_simple
        and n == 1 << d
        and 3 <= d <= 6
        and all(deg == d for deg in degrees)
        and mg.distinct_edge_count() == d * (1 << (d - 1))
        and sides is not None
        and canonical_form(mg).edges == canonical_form(hypercube_graph(d)).edges
    ):
        return FamilyTag(HYPERCUBE, (d,))

    return FamilyTag(UNKNOWN)


def _complete_multipartite_sizes(mg: Multigraph) -> list[int] | None:
    """Class sizes if the graph is complete multipartite (all mult 1), else None."""
    if set(mg.edges.values()) - {1}:
        return None
    n = mg.n
    adjacency = mg.adjacency()
    assigned = [-1] * n
    classes: list[list[int]] = []
    for v in range(n):
        if assigned[v] != -1:
            continue
        group = [v]
        assigned[v] = len(classes)
        for w in range(v + 1, n):
            # candidate classmates: the non-neighbors of v; validated below
            if assigned[w] == -1 and w not in adjacency[v]:
                group.append(w)
                assigned[w] = len(classes)
        classes.append(group)
    sizes = []
    for idx, group in enumerate(classes):
        for u in group:
            for w in group:
                if u < w and w in adjacency[u]:
                    return None
            expected = n - len(group)
            if len(adjacency[u]) != expected:
                return None
        sizes.append(len(group))
    if len(sizes) < 2:
        return None
    return sizes
