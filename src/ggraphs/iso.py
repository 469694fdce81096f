"""Multigraph canonical labeling, isomorphism, and family recognition.

Canonical forms come from color refinement (multiplicities are part of the
refinement invariant) followed by individualization backtracking over the
coarsest equitable partition: the canonical form is the least leaf encoding.
The search follows McKay and Piperno, "Practical graph isomorphism, II"
(J. Symbolic Comput. 60, 2014), in three ways:

* incremental refinement: a round re-sorts only the cells that hold a
  neighbour of a vertex whose color changed in the round before, which at
  the root is every cell and after individualizing v is the cells of v's
  neighbours.  Each other cell cannot split and keeps its id, so the ordered
  partition is the one a global re-ranking by (old color, sorted neighbour
  colors and multiplicities) gives;
* orbit pruning: a node branches on one vertex per orbit of its target
  cell.  The orbits join twins (vertices whose rows agree apart from each
  other, so that swapping them is an automorphism) and the images under the
  automorphisms found so far that fix the node's prefix.  Each leaf whose
  encoding equals the best one gives such an automorphism;
* backjumping: such a leaf and the best leaf first differ at some depth k,
  and the automorphism maps the best leaf's subtree at depth k onto the
  current one, so the search goes straight back to depth k.

The twin transpositions and the found automorphisms generate the
automorphism group; ``CanonicalForm.generators`` lists them.

An isomorphism test labels neither graph canonically.  It follows one path
of the first graph's tree to a leaf (``_first_leaf``), then runs the same
search on the second graph and stops at the first leaf with that leaf's
encoding (``_reaches``); only when there is none does the search end.

The generic machinery is bounded at SIZE_BOUND vertices and NODE_BUDGET
search nodes, and raises TooLargeError beyond either; larger graphs are
meant to be validated through the structural recognizers and the
closed-form statistics instead.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import TooLargeError
from .multigraph import (
    SIZE_BOUND,
    Multigraph,
    as_multigraph,
    hypercube_graph,
)

# Search nodes (leaves included) one search may visit.  A search in the test
# suite needs at most 560 and one in the recognize benchmark at most 24 (seeds
# 1-10), where a path to a first leaf is at most 13 nodes deep; graphs of
# random Latin squares of order 8 (64 vertices, strongly regular, few
# automorphisms), the hardest inputs found so far, about 5,300.
NODE_BUDGET = 10_000

COMPLETE = "complete"
CYCLE = "cycle"
COMPLETE_BIPARTITE = "complete_bipartite"
DOUBLE_EDGED_COMPLETE_BIPARTITE = "double_edged_complete_bipartite"
TURAN = "turan"
HYPERCUBE = "hypercube"
OCTAHEDRON = "octahedron"
UNKNOWN = "unknown"


class CanonicalForm:
    """The canonical ``edges`` of an n-vertex graph; two forms are equal when
    n and the edges are, whatever their ``generators``."""

    __slots__ = ("n", "edges", "generators")

    def __init__(
        self,
        n: int,
        edges: tuple[tuple[int, int, int], ...],
        # generators of the input graph's automorphism group, as vertex maps
        generators: tuple[tuple[int, ...], ...] = (),
    ):
        self.n = n
        self.edges = edges
        self.generators = generators

    def __eq__(self, other):
        if type(other) is not CanonicalForm:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))


class FamilyTag(NamedTuple):
    kind: str
    params: tuple[int, ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"


def canonical_form(graph) -> CanonicalForm:
    """Canonical form invariant under any relabeling of the input vertices."""
    mg = as_multigraph(graph)
    if mg.n == 0:
        return CanonicalForm(0, ())
    search = _Canonicalizer(mg)
    edges = search.run()
    return CanonicalForm(mg.n, edges, tuple(search.automorphisms()))


def are_isomorphic(a, b) -> bool:
    """Multiplicity-preserving isomorphism test: whether b's search tree has
    a leaf with the encoding of a's first leaf (``_first_leaf``)."""
    ma, mb = as_multigraph(a), as_multigraph(b)
    if ma.n != mb.n or ma.edge_multiplicity_total() != mb.edge_multiplicity_total():
        return False
    if sorted(ma.weighted_degrees()) != sorted(mb.weighted_degrees()):
        return False
    return _reaches(mb, _first_leaf(ma))


def _first_leaf(mg: Multigraph, adj: list[dict[int, int]] | None = None) -> tuple:
    """The encoding of the first leaf ``_descend`` visits: the path that
    individualizes the first vertex of each target cell.  Its nodes are
    charged to a budget of NODE_BUDGET, like any search."""
    search = _Canonicalizer(mg, adj=adj)
    search.what = "isomorphism search"
    colors, cells = search._root()
    search._visit()
    while len(cells) < search.n:
        colors, cells = search._branch(colors, cells, search._target(cells)[0])
        search._visit()
    return search._encode(colors)


def _reaches(mg: Multigraph, goal: tuple, adj: list[dict[int, int]] | None = None) -> bool:
    """Whether some leaf of mg's search tree has the encoding ``goal``.

    The search is the canonical labeling's, stopped at the first such leaf.
    Refinement, cell choice and encodings ignore vertex names, so an
    isomorphism maps the path that gave ``goal`` onto a leaf of mg with that
    encoding; pruning skips only automorphic images of subtrees already
    searched, so the search meets that leaf or an image of it.  A caller
    that holds ``mg.adjacency()`` passes it as ``adj``.
    """
    return _Canonicalizer(mg, goal, adj).run() == goal


class _Canonicalizer:
    """One canonical-labeling search; ``run`` returns the best leaf encoding,
    or ``goal`` once a leaf has that encoding.

    A coloring gives each vertex the start position of its cell in the
    ordered partition, so splitting a cell leaves every other id unchanged
    and a discrete coloring is the leaf's labeling itself.
    """

    def __init__(
        self,
        mg: Multigraph,
        goal: tuple | None = None,
        adj: list[dict[int, int]] | None = None,
    ):
        if mg.n > SIZE_BOUND:
            raise TooLargeError(
                f"{mg.n} vertices exceeds the canonical-form bound {SIZE_BOUND}"
            )
        self.n = mg.n
        self.edges = mg.edges
        self.goal = goal
        # the search a budget overrun names; _first_leaf's path is one too
        self.what = "canonical labeling" if goal is None else "isomorphism search"
        self.adj = adj or mg.adjacency()
        self.rows = [tuple(row.items()) for row in self.adj]
        # a (color, multiplicity) pair packed as color * scale + m sorts
        # like the pair itself
        self.scale = max(mg.edges.values(), default=0) + 1
        self.nodes_left = NODE_BUDGET
        self.best: tuple | None = None
        self.best_path: list[int] = []
        self.best_labeling: list[int] = []
        self.twin: list[int] = []
        self.found: list[tuple[int, ...]] = []
        self._known: set[tuple[int, ...]] = set()

    def run(self) -> tuple[tuple[int, int, int], ...]:
        self.twin = self._twin_classes()
        self._descend(*self._root(), [])
        return self.best

    def _root(self) -> tuple[list[int], dict[int, list[int]]]:
        colors = self._initial_colors()
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        self._refine(colors, cells, range(self.n))
        return colors, cells

    def _branch(
        self, colors: list[int], cells: dict[int, list[int]], v: int
    ) -> tuple[list[int], dict[int, list[int]]]:
        """The refined child that individualizes v, after the rest of its cell."""
        start = colors[v]
        last = start + len(cells[start]) - 1
        child_colors = colors[:]
        child_colors[v] = last
        child_cells = dict(cells)
        child_cells[start] = [u for u in cells[start] if u != v]
        child_cells[last] = [v]
        self._refine(child_colors, child_cells, (v,))
        return child_colors, child_cells

    def _initial_colors(self) -> list[int]:
        keys = [tuple(sorted(row.values())) for row in self.adj]
        counts = Counter(keys)
        start: dict[tuple, int] = {}
        at = 0
        for k in sorted(counts):
            start[k] = at
            at += counts[k]
        return [start[k] for k in keys]

    def _twin_classes(self) -> list[int]:
        """For each vertex, the first vertex of its twin class.

        u and v are twins when their rows agree apart from each other.
        Twins form classes, and within one all multiplicities are equal (k,
        or 0 for non-adjacent twins): the rows of a class agree once each
        vertex is added to its own row with multiplicity k.  Any permutation
        of a class is an automorphism.
        """
        classes: dict[tuple, int] = {}
        first = list(range(self.n))
        for v, row in enumerate(self.adj):
            for k in {0, *row.values()}:
                closed = row.items() | {(v, k)} if k else row.items()
                first[v] = min(first[v], classes.setdefault((k, frozenset(closed)), v))
        return first

    def automorphisms(self) -> list[tuple[int, ...]]:
        """Generators of the automorphism group, once ``run`` has ended.

        A transposition of each vertex with the first of its twin class, then
        the automorphisms the leaves found.
        """
        swaps = []
        for v, u in enumerate(self.twin):
            if u != v:
                g = list(range(self.n))
                g[u], g[v] = v, u
                swaps.append(tuple(g))
        return swaps + self.found

    def _refine(self, colors: list[int], cells: dict[int, list[int]], touched) -> None:
        """Refine ``colors`` and ``cells`` in place to an equitable partition.

        ``cells`` maps each color to its members in increasing order, and
        ``touched`` holds the vertices whose color changed last.  A round
        re-sorts only the cells that hold a neighbour of one of them; every
        other cell keeps its members' signatures and so its id.  A split
        cell is ordered by signature and keeps its start, so the ordered
        partition equals a global re-ranking by (old color, signature).
        Member lists are replaced, never changed, so callers may share them.
        """
        adj, rows, scale = self.adj, self.rows, self.scale
        while touched:
            splits = []
            for c in {colors[w] for v in touched for w in adj[v]}:
                cell = cells[c]
                if len(cell) == 1:
                    continue
                parts: dict[tuple, list[int]] = {}
                for v in cell:
                    sig = tuple(sorted([colors[w] * scale + m for w, m in rows[v]]))
                    parts.setdefault(sig, []).append(v)
                if len(parts) > 1:
                    splits.append((c, parts))
            touched = []
            for start, parts in splits:
                for sig in sorted(parts):
                    part = parts[sig]
                    cells[start] = part
                    if colors[part[0]] != start:
                        for v in part:
                            colors[v] = start
                        touched.extend(part)
                    start += len(part)

    def _visit(self) -> None:
        """Charge one search node to the budget."""
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise TooLargeError(
                f"{self.what} exceeds its budget of {NODE_BUDGET} search nodes"
            )

    @staticmethod
    def _target(cells: dict[int, list[int]]) -> list[int]:
        """The first of the smallest non-singleton cells."""
        _, start = min((len(cell), c) for c, cell in cells.items() if len(cell) > 1)
        return cells[start]

    def _descend(
        self, colors: list[int], cells: dict[int, list[int]], prefix: list[int]
    ) -> int | None:
        """Search below one node; the depth of a node to return to, if any."""
        self._visit()
        if len(cells) == self.n:
            return self._leaf(colors, prefix)
        target = self._target(cells)
        depth = len(prefix)
        # Union-find orbits of the target cell under its twin classes and the
        # automorphisms found so far that fix the prefix (they map the cell
        # onto itself); a child in the orbit of one tried before is its
        # image, and is skipped.
        first: dict[int, int] = {}
        parent = {v: first.setdefault(self.twin[v], v) for v in target}

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            return v

        generators = self.found
        applied = 0
        tried: list[int] = []
        done: set[int] = set()
        for v in target:
            if tried and applied < len(generators):
                for g in generators[applied:]:
                    if all(g[p] == p for p in prefix):
                        for u in target:
                            a, b = find(u), find(g[u])
                            if a != b:
                                parent[max(a, b)] = min(a, b)
                applied = len(generators)
                done = {find(u) for u in tried}
            root = find(v)
            if root in done:
                continue
            done.add(root)
            tried.append(v)
            jump = self._descend(*self._branch(colors, cells, v), prefix + [v])
            if jump is not None and jump < depth:
                return jump
        return None

    def _encode(self, position: list[int]) -> tuple[tuple[int, int, int], ...]:
        """The sorted edges of the graph relabeled by a leaf's positions."""
        relabeled = []
        for (u, w), m in self.edges.items():
            a, b = position[u], position[w]
            relabeled.append((a, b, m) if a < b else (b, a, m))
        return tuple(sorted(relabeled))

    def _leaf(self, position: list[int], path: list[int]) -> int | None:
        enc = self._encode(position)
        if enc == self.goal:
            # -1 is above the root, so every caller returns at once
            self.best, self.best_labeling = enc, position
            return -1
        if self.best is None or enc < self.best:
            self.best, self.best_path, self.best_labeling = enc, path, position
            return None
        if enc != self.best:
            return None
        # Equal encodings certify an automorphism: send each vertex to the
        # one holding the same position in the best leaf.  It maps this path
        # onto the best path, which agrees with it above depth k, so the
        # subtree below depth k here is the image of one already searched.
        inverse = [0] * self.n
        for v, pos in enumerate(self.best_labeling):
            inverse[pos] = v
        g = tuple(inverse[pos] for pos in position)
        if g not in self._known:
            self._known.add(g)
            self.found.append(g)
        k = 0
        while path[k] == self.best_path[k]:
            k += 1
        return k


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

    if all_simple and len(mg.edges) == n * (n - 1) // 2:
        return FamilyTag(COMPLETE, (n,))

    degrees = mg.weighted_degrees()
    adj = mg.adjacency()
    sides, components = mg.traverse(adj)
    connected = components == 1
    if all_simple and n >= 3 and all(d == 2 for d in degrees) and connected:
        return FamilyTag(CYCLE, (n,))

    if connected and len(mults) == 1 and sides is not None and sides[1]:
        a, b = len(sides[0]), len(sides[1])
        mult = next(iter(mults))
        if len(mg.edges) == a * b and mult in (1, 2):
            kind = COMPLETE_BIPARTITE if mult == 1 else DOUBLE_EDGED_COMPLETE_BIPARTITE
            return FamilyTag(kind, (min(a, b), max(a, b)))

    multipartite = _complete_multipartite_sizes(mg, adj)
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
        and len(mg.edges) == d * (1 << (d - 1))
        and sides is not None
        and _reaches(mg, _first_leaf(hypercube_graph(d)), adj)
    ):
        return FamilyTag(HYPERCUBE, (d,))

    return FamilyTag(UNKNOWN)


def _complete_multipartite_sizes(
    mg: Multigraph, adj: list[dict[int, int]] | None = None
) -> list[int] | None:
    """Class sizes if the graph is complete multipartite (all mult 1), else
    None.  A caller that already holds ``mg.adjacency()`` passes it as ``adj``.

    The vertices with one neighbour set N form a class C.  A member of C in N
    would be its own neighbour, so C and N are disjoint, and |C| + |N| = n
    holds for every class exactly when each vertex meets every vertex outside
    its class.
    """
    if set(mg.edges.values()) - {1}:
        return None
    classes = Counter(frozenset(row) for row in adj or mg.adjacency())
    if len(classes) < 2 or any(len(nbrs) + size != mg.n for nbrs, size in classes.items()):
        return None
    return list(classes.values())
