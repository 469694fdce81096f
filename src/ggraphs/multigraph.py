"""Plain undirected multigraphs and generators for reference families."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .errors import InvalidParameterError, InvalidPartitionError, SizeLimitError

VERTEX_LIMIT = 100_000
# most edge units (the sum of multiplicities) a coset graph or DOT export holds
MULTIPLICITY_LIMIT = 1_000_000


def weighted_degrees(n: int, triples: Iterable[tuple[int, int, int]]) -> list[int]:
    """Multiplicity-weighted degrees of vertices ``0..n-1`` from (u, v, m) edges."""
    deg = [0] * n
    for u, v, m in triples:
        deg[u] += m
        deg[v] += m
    return deg


def check_partition(n: int, classes: Sequence[Sequence[int]]) -> None:
    """Refuse classes that are empty or do not cover ``0..n-1`` exactly once."""
    if any(len(cls) == 0 for cls in classes):
        raise InvalidPartitionError("partition has an empty class")
    if sorted(v for cls in classes for v in cls) != list(range(n)):
        raise InvalidPartitionError("partition must cover every vertex exactly once")


class Multigraph:
    """Undirected multigraph on vertices ``0..n-1`` with integer multiplicities.

    ``classes`` optionally records a vertex partition (used when the graph
    came from a coset construction or an annotated edge list), refused by
    ``check_partition`` unless it covers every vertex exactly once.  ``edges``
    are ``(u, v, m)`` triples, checked and added as add_edge does.  ``n``,
    the ids and the multiplicities are ints (bools are refused), and ``n`` is
    bounded at VERTEX_LIMIT, so no input can size a graph past it.
    """

    def __init__(
        self,
        n: int,
        classes: Optional[list[list[int]]] = None,
        edges: Iterable[tuple[int, int, int]] = (),
    ):
        if type(n) is not int or n < 0:
            raise InvalidParameterError(f"vertex count must be an int >= 0, not {n!r}")
        if n > VERTEX_LIMIT:
            raise SizeLimitError(f"vertex count {n} exceeds {VERTEX_LIMIT}")
        if classes is not None:
            check_partition(n, classes)
        self.n = n
        self.edges: dict[tuple[int, int], int] = {}
        self.classes = classes
        self._add_edges(edges)

    def add_edge(self, u: int, v: int, mult: int = 1) -> None:
        self._add_edges(((u, v, mult),))

    def _add_edges(self, triples: Iterable[tuple[int, int, int]]) -> None:
        """Check and store each (u, v, m) in turn, adding to the multiplicity
        of an edge already present."""
        n = self.n
        stored = self.edges
        for u, v, mult in triples:
            if not (type(u) is int and type(v) is int and type(mult) is int):
                raise InvalidParameterError(
                    f"edge {(u, v, mult)!r}: ids and multiplicity must be ints"
                )
            if u == v:
                raise InvalidParameterError("loops are not supported")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u},{v}) out of range")
            if mult < 1:
                raise InvalidParameterError("multiplicity must be >= 1")
            key = (u, v) if u < v else (v, u)
            stored[key] = stored.get(key, 0) + mult

    def edge_multiplicity_total(self) -> int:
        return sum(self.edges.values())

    def weighted_degrees(self) -> list[int]:
        return weighted_degrees(self.n, ((u, v, m) for (u, v), m in self.edges.items()))

    def class_degrees(
        self,
        classes: Optional[Sequence[Sequence[int]]] = None,
        degrees: Optional[list[int]] = None,
    ) -> list[Optional[int]]:
        """The one weighted degree of each class, or None where it varies.

        ``classes`` defaults to the stored partition and ``degrees`` to
        weighted_degrees(); a caller that already has the degrees passes them.
        """
        if classes is None:
            classes = self.classes
        if degrees is None:
            degrees = self.weighted_degrees()
        out: list[Optional[int]] = []
        for cls in classes:
            seen = {degrees[v] for v in cls}
            out.append(seen.pop() if len(seen) == 1 else None)
        return out

    def intra_class_edge(
        self, classes: Optional[Sequence[Sequence[int]]] = None
    ) -> Optional[tuple[int, int, int]]:
        """The first edge ``(u, v, class)`` inside one class, or None.

        ``classes`` defaults to the stored partition and must cover every
        endpoint.
        """
        if classes is None:
            classes = self.classes
        where = {}
        for c, cls in enumerate(classes):
            for v in cls:
                where[v] = c
        for u, v in self.edges:
            if where[u] == where[v]:
                return u, v, where[u]
        return None

    def adjacency(self) -> list[dict[int, int]]:
        """Per vertex, a dict from each neighbour to the edge multiplicity.

        Built from ``edges`` on every call, since callers may change it.
        """
        adj: list[dict[int, int]] = [{} for _ in range(self.n)]
        for (u, v), m in self.edges.items():
            adj[u][v] = m
            adj[v][u] = m
        return adj

    def traverse(
        self, adj: Optional[list[dict[int, int]]] = None
    ) -> tuple[Optional[tuple[list[int], list[int]]], int]:
        """One breadth-first search: the two sides and the component count.

        Each component is searched from its lowest vertex, in id order, and
        a vertex's side is the parity of its distance from that vertex.  The
        sides are None when an edge joins one side to itself (an odd cycle).
        A caller that already holds ``adjacency()`` passes it as ``adj``.
        """
        if adj is None:
            adj = self.adjacency()
        side = [-1] * self.n
        components = 0
        two_sided = True
        for start in range(self.n):
            if side[start] != -1:
                continue
            components += 1
            side[start] = 0
            queue = deque([start])
            while queue:
                u = queue.popleft()
                other = 1 - side[u]
                for v in adj[u]:
                    if side[v] == -1:
                        side[v] = other
                        queue.append(v)
                    elif side[v] != other:
                        two_sided = False
        if not two_sided:
            return None, components
        side0 = [v for v in range(self.n) if side[v] == 0]
        side1 = [v for v in range(self.n) if side[v] == 1]
        return (side0, side1), components

    def to_multigraph(self) -> "Multigraph":
        return self

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, edges={self.edge_multiplicity_total()})"


def as_multigraph(obj) -> Multigraph:
    """Coerce a Multigraph or anything exposing to_multigraph()."""
    if isinstance(obj, Multigraph):
        return obj
    convert = getattr(obj, "to_multigraph", None)
    if convert is None:
        raise InvalidParameterError(f"cannot interpret {type(obj).__name__} as a graph")
    return convert()


# ---------------------------------------------------------------------------
# reference families
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Multigraph:
    g = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v)
    return g


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise InvalidParameterError("cycle needs >= 3 vertices")
    g = Multigraph(n)
    for u in range(n):
        g.add_edge(u, (u + 1) % n)
    return g


def path_graph(n: int) -> Multigraph:
    g = Multigraph(n)
    for u in range(n - 1):
        g.add_edge(u, u + 1)
    return g


def star_graph(leaves: int) -> Multigraph:
    g = Multigraph(leaves + 1)
    for v in range(1, leaves + 1):
        g.add_edge(0, v)
    return g


def complete_multipartite(sizes: Iterable[int], mult: int = 1) -> Multigraph:
    classes = []
    start = 0
    for size in sizes:
        classes.append(list(range(start, start + size)))
        start += size
    g = Multigraph(start, classes)
    for i, ci in enumerate(classes):
        for cj in classes[i + 1:]:
            for u in ci:
                for v in cj:
                    g.add_edge(u, v, mult)
    return g


def complete_bipartite(m: int, n: int, mult: int = 1) -> Multigraph:
    return complete_multipartite([m, n], mult)


def turan_sizes(n: int, r: int) -> list[int]:
    """Class sizes of T(n, r): the (n mod r) classes of size ceil(n/r) first.

    n above VERTEX_LIMIT, the bound of the graph, is refused before any list
    is built.
    """
    if not 1 <= r <= n:
        raise InvalidParameterError("need 1 <= r <= n")
    if n > VERTEX_LIMIT:
        raise SizeLimitError(f"vertex count {n} exceeds {VERTEX_LIMIT}")
    big, small = -(-n // r), n // r
    return [big] * (n % r) + [small] * (r - n % r)


def turan_graph(n: int, r: int) -> Multigraph:
    """Complete r-partite graph on n vertices with the sizes of ``turan_sizes``."""
    return complete_multipartite(turan_sizes(n, r))


def octahedron_graph() -> Multigraph:
    return complete_multipartite([2, 2, 2])


def hypercube_graph(d: int) -> Multigraph:
    if d < 1:
        raise InvalidParameterError("dimension must be >= 1")
    g = Multigraph(1 << d)
    for u in range(1 << d):
        for bit in range(d):
            v = u ^ (1 << bit)
            if u < v:
                g.add_edge(u, v)
    return g


def cube_graph() -> Multigraph:
    return hypercube_graph(3)


def icosahedron_graph() -> Multigraph:
    """Icosahedron skeleton from exact coordinates over Z[phi].

    Vertices are the cyclic shifts of (0, +-1, +-phi); an edge joins points
    at the minimal squared distance 4 (computing in a+b*phi form keeps the
    comparison exact).
    """
    coords = []
    for shift in range(3):
        for s1 in (1, -1):
            for s2 in (1, -1):
                base = [(0, 0), (s1, 0), (0, s2)]  # (a, b) meaning a + b*phi
                coords.append(tuple(base[(i - shift) % 3] for i in range(3)))

    def dist2(p, q):
        # phi^2 = phi + 1, so (a + b*phi)^2 = a^2 + b^2 + (2ab + b^2) phi
        a_tot, b_tot = 0, 0
        for (pa, pb), (qa, qb) in zip(p, q):
            da, db = pa - qa, pb - qb
            a_tot += da * da + db * db
            b_tot += 2 * da * db + db * db
        return a_tot, b_tot

    g = Multigraph(12)
    for u in range(12):
        for v in range(u + 1, 12):
            if dist2(coords[u], coords[v]) == (4, 0):
                g.add_edge(u, v)
    return g


def dodecahedron_graph() -> Multigraph:
    """Dodecahedron skeleton as the generalized Petersen graph GP(10, 2)."""
    g = Multigraph(20)
    for i in range(10):
        g.add_edge(i, (i + 1) % 10)          # outer cycle
        g.add_edge(i, 10 + i)                # spokes
        g.add_edge(10 + i, 10 + (i + 2) % 10)  # inner pentagram pair
    return g


def rhombic_dodecahedron_graph() -> Multigraph:
    """Rhombic dodecahedron skeleton: cube corners joined to face centers.

    Vertices 0..7 are cube corners (degree 3), 8..13 the six face centers
    (degree 4); a corner meets the centers of the three faces it lies on.
    """
    g = Multigraph(14)
    faces = [(axis, val) for axis in range(3) for val in (0, 1)]
    for corner in range(8):
        bits = [(corner >> axis) & 1 for axis in range(3)]
        for f, (axis, val) in enumerate(faces):
            if bits[axis] == val:
                g.add_edge(corner, 8 + f)
    return g
