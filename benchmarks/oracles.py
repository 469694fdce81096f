"""Facts the benchmark checks ggraphs against, computed without ggraphs.

Element orders come from the benchmark's own permutation arithmetic and its
own normal-form arithmetic for the dihedral, generalized quaternion and
semi-dihedral presentations.  Spectra are checked against LAPACK and against
exact integer traces; witnesses against networkx VF2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# -- permutations ------------------------------------------------------------


def parse_cycles(text: str) -> list[list[int]]:
    """``"(1 2)(3 4 5)"`` or ``"(12)(345)"`` as lists of 1-based points."""
    cycles = []
    for chunk in text.strip()[1:-1].split(")("):
        tokens = chunk.split() if " " in chunk.strip() else list(chunk.strip())
        cycles.append([int(tok) for tok in tokens])
    return cycles


def perm_order(text: str) -> int:
    return math.lcm(*(len(c) for c in parse_cycles(text)))


def perm_label(text: str) -> str:
    """The compact cycle label ggraphs prints for points below 10, e.g. ``(12)``."""
    return "".join("(" + "".join(str(p) for p in c) + ")" for c in parse_cycles(text))


# -- normal forms a^i b^j ------------------------------------------------------


@dataclass(frozen=True)
class NormalFormFamily:
    """Elements a^i b^j, 0 <= i < m, j in {0, 1}, with b a^i = a^(twist*i) b^1
    and b^2 = a^square."""

    m: int
    twist: int
    square: int
    order: int

    def mul(self, x, y):
        (i1, j1), (i2, j2) = x, y
        if j1 == 0:
            return ((i1 + i2) % self.m, j2)
        i = (i1 + self.twist * i2) % self.m
        if j2 == 0:
            return (i, 1)
        return ((i + self.square) % self.m, 0)

    def element_order(self, x) -> int:
        acc, t = x, 1
        while acc != (0, 0):
            acc = self.mul(acc, x)
            t += 1
        return t


def dihedral(n: int) -> NormalFormFamily:
    """D_2n: r = a, s = b, s r s = r^-1, s^2 = e."""
    return NormalFormFamily(m=n, twist=-1, square=0, order=2 * n)


def quaternion(n: int) -> NormalFormFamily:
    """Q_4n: a^2n = e, b^2 = a^n, b a b^-1 = a^-1."""
    return NormalFormFamily(m=2 * n, twist=-1, square=n, order=4 * n)


def semidihedral(k: int) -> NormalFormFamily:
    """SD_8k: a^4k = b^2 = e, b a = a^(2k-1) b."""
    return NormalFormFamily(m=4 * k, twist=2 * k - 1, square=0, order=8 * k)


NAMED = {"a": (1, 0), "r": (1, 0), "b": (0, 1), "s": (0, 1)}


def named_element(family: NormalFormFamily, name: str):
    if name == "t":  # the second reflection r*s of the dihedral group
        return family.mul(NAMED["r"], NAMED["s"])
    return NAMED[name]


# -- coset-graph closed forms ------------------------------------------------


def coset_graph_stats(group_order: int, orders) -> dict:
    """Vertex counts |G|/o(s_i), class degrees o(s_i)(k-1), total k(k-1)/2 |G|."""
    k = len(orders)
    return {
        "class_sizes": [group_order // o for o in orders],
        "class_degrees": [o * (k - 1) for o in orders],
        "total": k * (k - 1) // 2 * group_order,
    }


def tree_ball_sizes(radius: int, neighbours) -> list[int]:
    """Vertices per class in a radius ball of a biregular coset tree.

    The ball grows from the two cosets through the identity; each coset of
    class c has ``neighbours[c]`` neighbours, one of which is nearer the
    centre, so every step multiplies a class by the other's branching.
    """
    layer = [1, 1]
    total = [0, 0]
    for _ in range(radius + 1):
        total = [total[0] + layer[0], total[1] + layer[1]]
        layer = [layer[1] * (neighbours[1] - 1), layer[0] * (neighbours[0] - 1)]
    return total


# -- spectra -------------------------------------------------------------------


GROUP_TOL = 1e-6  # the merge tolerance ggraphs documents for its spectra


def spectrum_problems(matrix: np.ndarray, grouped) -> list[str]:
    """Compare (value, multiplicity) pairs with eigvalsh and exact traces."""
    problems = []
    reference = np.sort(np.linalg.eigvalsh(matrix.astype(np.float64)))[::-1]
    flat = [value for value, mult in grouped for _ in range(mult)]
    if len(flat) != len(reference):
        return [f"{len(flat)} eigenvalues for dimension {len(reference)}"]
    worst = float(np.max(np.abs(np.array(flat) - reference))) if flat else 0.0
    if worst > GROUP_TOL:
        problems.append(f"eigenvalues differ from eigvalsh by {worst:.2e}")
    # Entries of A^j are at most (largest row sum)^j, so int64 is exact
    # unless that bound passes 2^62; then fall back to Python integers.
    largest_row = int(np.abs(matrix).sum(axis=1).max()) if matrix.size else 0
    exact_type = np.int64 if largest_row**4 < 2**62 else object
    a = matrix.astype(exact_type)
    power = a
    for j in range(1, 5):
        trace = int(np.trace(power))
        total = sum(value**j * mult for value, mult in grouped)
        scale = max(1.0, sum(abs(value) ** j * mult for value, mult in grouped))
        if abs(total - trace) > 1e-7 * scale:
            problems.append(f"sum of eigenvalues^{j} = {total:.6f}, trace = {trace}")
        power = power.dot(a)
    return problems


def complete_bipartite_spectrum(a: int, b: int, mult: int = 1) -> list[tuple[float, int]]:
    """K_{a,b} with every edge of multiplicity ``mult``: ±mult·√(ab), zeros."""
    top = mult * math.sqrt(a * b)
    out = [(top, 1)]
    if a + b > 2:
        out.append((0.0, a + b - 2))
    out.append((-top, 1))
    return out


OCTAHEDRON_SPECTRUM = [(4.0, 1), (0.0, 3), (-2.0, 2)]


def same_spectrum(grouped, expected) -> bool:
    if len(grouped) != len(expected):
        return False
    return all(
        m1 == m2 and abs(v1 - v2) <= GROUP_TOL for (v1, m1), (v2, m2) in zip(grouped, expected)
    )


# -- witnesses -----------------------------------------------------------------


def vf2_isomorphic(edges_a, n_a: int, edges_b, n_b: int) -> bool:
    """Multiplicity-preserving isomorphism by networkx VF2.

    ``edges_*`` iterate (u, v, multiplicity).
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    def graph(edges, n):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, m in edges:
            g.add_edge(u, v, m=m)
        return g

    matcher = GraphMatcher(
        graph(edges_a, n_a), graph(edges_b, n_b), edge_match=lambda x, y: x["m"] == y["m"]
    )
    return matcher.is_isomorphic()
