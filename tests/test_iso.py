import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

import fixture_catalog as cat
from ggraphs import (
    TooLargeError,
    are_isomorphic,
    canonical_form,
    recognize_family,
)
from ggraphs.cli import main
from ggraphs.groups import _stabilizer_chain
from ggraphs.io import read_edge_list
from ggraphs.iso import (
    COMPLETE,
    COMPLETE_BIPARTITE,
    CYCLE,
    DOUBLE_EDGED_COMPLETE_BIPARTITE,
    HYPERCUBE,
    OCTAHEDRON,
    TURAN,
    SIZE_BOUND,
    UNKNOWN,
    _Canonicalizer,
    _complete_multipartite_sizes,
    _first_leaf,
)
from ggraphs.multigraph import (
    Multigraph,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    dodecahedron_graph,
    hypercube_graph,
    icosahedron_graph,
    octahedron_graph,
    path_graph,
    star_graph,
    turan_graph,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # Hypothesis is optional; without it the property test is left out
    st = None


def relabel(graph, perm):
    """A copy of ``graph`` with vertex v renamed perm[v] and no classes."""
    return Multigraph(
        graph.n, edges=((perm[u], perm[v], m) for (u, v), m in graph.edges.items())
    )


FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

INVARIANCE_FIXTURES = [
    ("c6", lambda: cycle_graph(6)),
    ("c16", lambda: cycle_graph(16)),
    ("k4", lambda: complete_graph(4)),
    ("k5", lambda: complete_graph(5)),
    ("k23", lambda: complete_bipartite(2, 3)),
    ("k25", lambda: complete_bipartite(2, 5)),
    ("k28", lambda: complete_bipartite(2, 8)),
    ("k33", lambda: complete_bipartite(3, 3)),
    ("k2_2_double", lambda: complete_bipartite(2, 2, mult=2)),
    ("k2_3_double", lambda: complete_bipartite(2, 3, mult=2)),
    ("octahedron", octahedron_graph),
    ("cube", lambda: hypercube_graph(3)),
    ("q4", lambda: hypercube_graph(4)),
    ("icosahedron", icosahedron_graph),
    ("dodecahedron", dodecahedron_graph),
    ("turan_13_4", lambda: turan_graph(13, 4)),
    ("star4", lambda: star_graph(4)),
    ("path4", lambda: path_graph(4)),
    ("s3_transpositions", lambda: cat.ggraph_of("sym3_all_transpositions").to_multigraph()),
    ("s4_12_234", lambda: cat.ggraph_of("sym4_12_tailcycle").to_multigraph()),
]


@pytest.mark.parametrize("name,build", INVARIANCE_FIXTURES)
def test_canonical_form_relabeling_invariance(name, build):
    graph = build()
    base = canonical_form(graph)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(100):
        perm = list(range(graph.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(graph, perm)).edges == base.edges


def test_canonical_form_distinguishes():
    assert canonical_form(complete_bipartite(2, 3)).edges != canonical_form(
        cycle_graph(5)
    ).edges
    assert canonical_form(complete_bipartite(2, 2)).edges == canonical_form(
        cycle_graph(4)
    ).edges  # C4 is K_{2,2}
    # multiplicity is part of the invariant
    assert canonical_form(complete_bipartite(2, 2)).edges != canonical_form(
        complete_bipartite(2, 2, mult=2)
    ).edges


def test_size_bound():
    with pytest.raises(TooLargeError):
        canonical_form(Multigraph(65))
    with pytest.raises(TooLargeError):
        are_isomorphic(Multigraph(65), Multigraph(65))


def test_generating_set_order_multiset_determines_graph():
    # equal-length sequences with matching order multisets give isomorphic graphs
    triples = [
        ("z3z3_s1", "z3z3_s2", "z3z3_s3"),
        ("alt4_12i", "alt4_consecutive3", None),
        ("z6_23", "z6_34", None),
    ]
    for group_cases in triples:
        graphs = [cat.ggraph_of(n) for n in group_cases if n]
        for a in graphs:
            for b in graphs:
                assert are_isomorphic(a, b)


def test_different_class_counts_never_isomorphic():
    two = cat.ggraph_of("klein_ab")        # |S| = 2
    three = cat.ggraph_of("klein_ab_ab")   # |S| = 3
    assert not are_isomorphic(two, three)


def test_isomorphism_is_equivalence_on_fixture_set():
    graphs = [build() for _, build in INVARIANCE_FIXTURES[:10]]
    forms = [canonical_form(g).edges for g in graphs]
    for i, a in enumerate(graphs):
        assert are_isomorphic(a, a)
        for j in range(i + 1, len(graphs)):
            ab = are_isomorphic(a, graphs[j])
            assert ab == are_isomorphic(graphs[j], a)
            assert ab == (forms[i] == forms[j])


def test_named_identifications():
    assert are_isomorphic(cat.ggraph_of("dihedral10_rs"), complete_bipartite(2, 5))
    assert are_isomorphic(cat.ggraph_of("dihedral16_st"), cycle_graph(16))
    assert are_isomorphic(
        cat.ggraph_of("quaternion_ab"), complete_bipartite(2, 2, mult=2)
    )
    assert are_isomorphic(cat.ggraph_of("sd16_ab"), complete_bipartite(2, 8))
    assert are_isomorphic(cat.ggraph_of("klein_ab_ab"), octahedron_graph())
    assert are_isomorphic(cat.ggraph_of("klein_ab"), cycle_graph(4))
    assert are_isomorphic(cat.ggraph_of("genq3_ab"), complete_bipartite(2, 3, mult=2))
    assert are_isomorphic(cat.ggraph_of("alt4_12i"), hypercube_graph(3))


def test_recognize_families():
    tag = recognize_family(cat.ggraph_of("dihedral10_rs"))
    assert (tag.kind, tag.params) == (COMPLETE_BIPARTITE, (2, 5))
    tag = recognize_family(cat.ggraph_of("genq3_ab"))
    assert (tag.kind, tag.params) == (DOUBLE_EDGED_COMPLETE_BIPARTITE, (2, 3))
    tag = recognize_family(cat.ggraph_of("klein_ab_ab"))
    assert tag.kind == OCTAHEDRON
    tag = recognize_family(complete_graph(5))
    assert (tag.kind, tag.params) == (COMPLETE, (5,))
    tag = recognize_family(cycle_graph(8))
    assert (tag.kind, tag.params) == (CYCLE, (8,))
    tag = recognize_family(turan_graph(13, 4))
    assert (tag.kind, tag.params) == (TURAN, (13, 4))
    tag = recognize_family(hypercube_graph(4))
    assert (tag.kind, tag.params) == (HYPERCUBE, (4,))
    tag = recognize_family(icosahedron_graph())
    assert tag.kind == UNKNOWN


def test_recognize_family_builds_its_input_adjacency_once(monkeypatch):
    # the traversal, the multipartite check and the input's search for the
    # reference Q4's first leaf share one adjacency; the other is Q4's own
    calls = []
    build = Multigraph.adjacency

    def counted(self):
        calls.append(self.n)
        return build(self)

    monkeypatch.setattr(Multigraph, "adjacency", counted)
    tag = recognize_family(hypercube_graph(4))
    assert (tag.kind, tag.params) == (HYPERCUBE, (4,))
    assert len(calls) == 2


def test_recognize_family_params_consistent():
    tag = recognize_family(complete_bipartite(3, 7))
    assert (tag.kind, tag.params) == (COMPLETE_BIPARTITE, (3, 7))
    assert str(tag) == "complete_bipartite(3, 7)"


def _multipartite_reference(graph):
    """Sorted class sizes when the complement is a disjoint union of at least
    two cliques and every multiplicity is 1, else None."""
    if set(graph.edges.values()) - {1}:
        return None
    part = list(range(graph.n))  # the lowest vertex of each complement component
    for u in range(graph.n):
        for v in range(u + 1, graph.n):
            if (u, v) not in graph.edges:
                old, new = max(part[u], part[v]), min(part[u], part[v])
                part = [new if p == old else p for p in part]
    classes = {}
    for v, p in enumerate(part):
        classes.setdefault(p, []).append(v)
    for cls in classes.values():
        if any((u, v) in graph.edges for u in cls for v in cls if u < v):
            return None
    return sorted(map(len, classes.values())) if len(classes) >= 2 else None


def _sorted_sizes(graph):
    sizes = _complete_multipartite_sizes(graph)
    return None if sizes is None else sorted(sizes)


def test_multipartite_sizes_on_every_5_vertex_graph():
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    found = 0
    for bits in range(1 << len(pairs)):
        edges = [(u, v, 1) for i, (u, v) in enumerate(pairs) if bits >> i & 1]
        graph = Multigraph(5, edges=edges)
        want = _multipartite_reference(graph)
        assert _sorted_sizes(graph) == want, sorted(graph.edges)
        found += want is not None
    # one labelled complete multipartite graph per partition of 5 points
    # into at least two classes: Bell(5) - 1
    assert found == 51


def test_multipartite_sizes_on_shuffled_complete_multipartite_graphs():
    rng = random.Random(7)
    for _ in range(200):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
        base = complete_multipartite(sizes)
        perm = list(range(base.n))
        rng.shuffle(perm)
        graph = relabel(base, perm)
        want = sorted(sizes) if len(sizes) >= 2 else None
        assert _multipartite_reference(graph) == want
        assert _sorted_sizes(graph) == want
        if len(sizes) >= 3 and max(sizes) - min(sizes) <= 1 and max(sizes) > 1:
            tag = recognize_family(graph)
            if sorted(sizes) == [2, 2, 2]:
                assert tag.kind == OCTAHEDRON
            else:
                assert (tag.kind, tag.params) == (TURAN, (base.n, len(sizes)))
        if not graph.edges:
            continue
        # a doubled edge is refused; with one edge removed, two singleton
        # classes merge and the graph stays complete multipartite
        u, v = next(iter(graph.edges))
        doubled = relabel(graph, list(range(graph.n)))
        doubled.edges[u, v] = 2
        assert _sorted_sizes(doubled) is None
        missing = relabel(graph, list(range(graph.n)))
        del missing.edges[u, v]
        assert _sorted_sizes(missing) == _multipartite_reference(missing)


def _vf2(a, b):
    """networkx's VF2 verdict on a and b, or None without networkx."""
    try:
        import networkx as nx
        from networkx.algorithms.isomorphism import GraphMatcher, numerical_edge_match
    except ImportError:
        return None

    def to_nx(mg):
        g = nx.Graph()
        g.add_nodes_from(range(mg.n))
        g.add_edges_from((u, v, {"mult": m}) for (u, v), m in mg.edges.items())
        return g

    return GraphMatcher(
        to_nx(a), to_nx(b), edge_match=numerical_edge_match("mult", 1)
    ).is_isomorphic()


def test_isomorphism_agrees_with_vf2_oracle():
    pytest.importorskip("networkx")
    rng = random.Random(7)

    def random_multigraph(n, p, max_mult):
        g = Multigraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    g.add_edge(u, v, rng.randint(1, max_mult))
        return g

    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_multigraph(n, rng.choice([0.2, 0.4, 0.7]), rng.choice([1, 2, 3]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabel(g, perm))
        # perturb one multiplicity, then compare both deciders
        h = relabel(g, list(range(n)))
        u, v = rng.sample(range(n), 2)
        key = (min(u, v), max(u, v))
        h.edges[key] = h.edges.get(key, 0) + 1
        assert are_isomorphic(g, h) == _vf2(g, h)
        other = random_multigraph(n, rng.choice([0.2, 0.5]), rng.choice([1, 2]))
        assert are_isomorphic(g, other) == _vf2(g, other)


# ---------------------------------------------------------------------------
# the canonical-labeling search
# ---------------------------------------------------------------------------


def _full_refine(adj, colors):
    """Reference refinement: every round re-ranks every vertex by its
    (color, sorted neighbour (color, multiplicity) pairs) signature."""
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[w], m) for w, m in row.items())))
            for v, row in enumerate(adj)
        ]
        ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranked[s] for s in sigs]
        if len(ranked) == len(set(colors)):
            return new
        colors = new


def _ranks(colors):
    ranked = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [ranked[c] for c in colors]


def _assert_cells(colors, cells):
    # each id is the start of its cell, and cells list their members in order
    at = 0
    for c in sorted(cells):
        assert c == at
        assert cells[c] == [v for v, d in enumerate(colors) if d == c]
        at += len(cells[c])
    assert at == len(colors)


if st is not None:

    @st.composite
    def _multigraphs(draw):
        # a circulant keeps the root partition coarse, so refinement takes
        # several rounds; a few extra edges then break its symmetry
        n = draw(st.integers(1, 40))
        g = Multigraph(n)
        for jump in draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3)):
            m = draw(st.integers(1, 3))
            for u in range(n):
                w = (u + jump) % n
                if u != w:
                    g.edges[(min(u, w), max(u, w))] = m
        vertex = st.integers(0, n - 1)
        extra = st.tuples(vertex, vertex, st.integers(1, 3))
        for u, w, m in draw(st.lists(extra, max_size=4)):
            if u != w:
                g.edges[(min(u, w), max(u, w))] = m
        return g

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_multigraphs())
    def test_refinement_matches_full_reranking(graph):
        search = _Canonicalizer(graph)
        adj = graph.adjacency()
        want = _full_refine(adj, search._initial_colors())
        colors, cells = search._root()
        assert _ranks(colors) == want
        _assert_cells(colors, cells)
        for v in range(graph.n):
            if len(cells[colors[v]]) == 1:
                continue
            # the old search gave v the odd color just above its cell's
            branched = [2 * c for c in want]
            branched[v] += 1
            child, child_cells = search._branch(colors, cells, v)
            assert _ranks(child) == _full_refine(adj, branched)
            _assert_cells(child, child_cells)
        # branching left the parent partition as it was
        assert _ranks(colors) == want
        _assert_cells(colors, cells)


def _copies(graph, k):
    out = Multigraph(graph.n * k)
    for c in range(k):
        for (u, v), m in graph.edges.items():
            out.add_edge(u + c * graph.n, v + c * graph.n, m)
    return out


def _rook(k):
    """K_k x K_k: (a, b) ~ (c, d) when a == c or b == d."""
    g = Multigraph(k * k)
    for x in range(k * k):
        for y in range(x + 1, k * k):
            if x // k == y // k or x % k == y % k:
                g.add_edge(x, y)
    return g


SYMMETRIC_64 = [
    ("32K2", lambda: _copies(complete_graph(2), 32)),
    ("8C8", lambda: _copies(cycle_graph(8), 8)),
    ("K8xK8", lambda: _rook(8)),
    ("Q6", lambda: hypercube_graph(6)),
]


@pytest.mark.parametrize("name,build", SYMMETRIC_64)
def test_symmetric_64_vertex_graphs_need_few_search_nodes(name, build, monkeypatch):
    # Without orbit pruning and backjumps the first three never ended.  Over
    # 30 relabelings the search takes at most 560, 187, 117 and 40 nodes.
    monkeypatch.setattr("ggraphs.iso.NODE_BUDGET", 1_000)
    graph = build()
    base = canonical_form(graph).edges
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(graph.n))
        rng.shuffle(perm)
        assert canonical_form(relabel(graph, perm)).edges == base


def _heawood():
    """The Levi graph of the Fano plane, whose lines are {i, i+1, i+3} mod 7:
    points 0..6, lines 7..13."""
    g = Multigraph(14)
    for line in range(7):
        for point in (line, line + 1, line + 3):
            g.add_edge(point % 7, 7 + line)
    return g


@pytest.mark.parametrize("name,build,order", [
    ("Q6", lambda: hypercube_graph(6), 2**6 * math.factorial(6)),
    ("heawood", _heawood, 336),
    ("8C8", lambda: _copies(cycle_graph(8), 8), 16**8 * math.factorial(8)),
    ("K8xK8", lambda: _rook(8), 2 * math.factorial(8) ** 2),
])
def test_automorphism_group_order_from_the_stabilizer_chain(name, build, order):
    # all but the Heawood graph's group are far past the closure cap
    graph = build()
    start = time.perf_counter()
    chain = _stabilizer_chain(np.array(canonical_form(graph).generators))
    assert math.prod(len(level.orbit) for level in chain) == order
    assert time.perf_counter() - start < 1.0


def _orbits(n, generators):
    orbit = list(range(n))

    def find(v):
        while orbit[v] != v:
            v = orbit[v]
        return v

    for g in generators:
        for v in range(n):
            a, b = find(v), find(g[v])
            orbit[max(a, b)] = min(a, b)
    classes = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return list(classes.values())


_ORBIT_GRAPHS = list(cat.CATALOG_NAMES) + sorted(p.name for p in FIXDIR.glob("*.edges"))


@pytest.mark.parametrize("name", _ORBIT_GRAPHS)
def test_generator_orbits_are_the_vf2_automorphism_orbits(name):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher, numerical_edge_match

    if name.endswith(".edges"):
        graph = read_edge_list(FIXDIR / name)
    else:
        graph = cat.ggraph_of(name).to_multigraph()
    if graph.n > SIZE_BOUND:
        pytest.skip("above the canonical-form bound")
    generators = canonical_form(graph).generators
    # every generator is an automorphism, so its orbits lie inside Aut's ...
    for g in generators:
        assert sorted(g) == list(range(graph.n))
        for (u, v), m in graph.edges.items():
            assert graph.edges[min(g[u], g[v]), max(g[u], g[v])] == m

    def marked(v):
        # v first, so VF2 starts its match there
        out = nx.Graph()
        out.add_node(v, mark=True)
        out.add_nodes_from((u for u in range(graph.n) if u != v), mark=False)
        for (a, b), m in graph.edges.items():
            out.add_edge(a, b, mult=m)
        return out

    # ... and VF2 finds no automorphism joining two of them
    reps = [orbit[0] for orbit in _orbits(graph.n, generators)]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not GraphMatcher(
                marked(a), marked(b),
                node_match=lambda x, y: x["mark"] == y["mark"],
                edge_match=numerical_edge_match("mult", 1),
            ).is_isomorphic()


def test_node_budget_raises_too_large(monkeypatch):
    monkeypatch.setattr("ggraphs.iso.NODE_BUDGET", 5)
    with pytest.raises(TooLargeError, match="budget of 5 search nodes"):
        canonical_form(hypercube_graph(4))


def test_analyze_exits_2_when_the_node_budget_runs_out(monkeypatch, capsys):
    # analyze names the cube through recognize_family, whose path to the
    # reference Q3's first leaf takes more than one node
    monkeypatch.setattr("ggraphs.iso.NODE_BUDGET", 1)
    assert main(["analyze", str(FIXDIR / "cube.edges")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: canonical labeling exceeds its budget")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# isomorphism by one leaf
# ---------------------------------------------------------------------------


def _small_graphs():
    """Every catalog coset graph and fixture of at most 64 vertices, by name."""
    graphs = [(name, cat.ggraph_of(name).to_multigraph()) for name in cat.CATALOG_NAMES]
    graphs += [(p.name, read_edge_list(p)) for p in sorted(FIXDIR.glob("*.edges"))]
    return [(name, g) for name, g in graphs if g.n <= SIZE_BOUND]


def _swapped(graph, rng, swaps):
    """``graph`` after ``swaps`` random double-edge swaps a-b, c-d -> a-d, c-b
    of equal multiplicity, with a, c in one class and b, d in another; each
    keeps every class and weighted degree."""
    side = {v: i for i, cls in enumerate(graph.classes or [range(graph.n)]) for v in cls}
    edges = dict(graph.edges)
    done = 0
    for _ in range(100 * swaps):
        if done == swaps:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        new = [(min(a, d), max(a, d)), (min(c, b), max(c, b))]
        if (
            side[a] != side[c] or side[b] != side[d] or edges[a, b] != edges[min(c, d), max(c, d)]
            or a == d or c == b or new[0] == new[1] or any(e in edges for e in new)
        ):
            continue
        m = edges.pop((a, b))
        del edges[min(c, d), max(c, d)]
        edges.update(dict.fromkeys(new, m))
        done += 1
    return Multigraph(graph.n, edges=((u, v, m) for (u, v), m in edges.items()))


def _assert_decides_like_the_forms(a, b, vf2=True):
    same = are_isomorphic(a, b)
    assert same == (canonical_form(a) == canonical_form(b))
    assert not vf2 or _vf2(a, b) in (None, same)
    return same


def test_one_leaf_isomorphism_on_relabelings():
    rng = random.Random(27)
    for _, graph in _small_graphs():
        for _ in range(3):
            perm = list(range(graph.n))
            rng.shuffle(perm)
            assert _assert_decides_like_the_forms(graph, relabel(graph, perm))


def test_one_leaf_isomorphism_on_equal_degree_sequences():
    rng = random.Random(27)
    graphs = _small_graphs()
    pairs = [
        (a, b) for i, (_, a) in enumerate(graphs) for _, b in graphs[i + 1:]
        if sorted(a.weighted_degrees()) == sorted(b.weighted_degrees())
    ]
    for _, graph in graphs:
        if graph.edges and graph.classes:
            pairs += [(graph, _swapped(graph, rng, swaps)) for swaps in (1, 2, 5, 20)]
    distinct = 0
    for a, b in pairs:
        perm = list(range(b.n))
        rng.shuffle(perm)
        # VF2 takes up to seconds on a non-isomorphic pair of A5's graphs
        # (32 and 60 vertices), so it checks the smaller pairs
        distinct += not _assert_decides_like_the_forms(a, relabel(b, perm), a.n < 32)
    assert distinct >= 30


def test_the_matched_leaf_maps_edges_onto_edges():
    rng = random.Random(27)
    for _, a in _small_graphs():
        perm = list(range(a.n))
        rng.shuffle(perm)
        b = relabel(a, perm)
        goal = _first_leaf(a)
        # a's own search stops at once, at the leaf _first_leaf followed
        first, match = _Canonicalizer(a, goal), _Canonicalizer(b, goal)
        assert first.run() == match.run() == goal
        vertex_at = {pos: v for v, pos in enumerate(match.best_labeling)}
        f = [vertex_at[pos] for pos in first.best_labeling]
        assert sorted(f) == list(range(a.n))
        for (u, v), m in a.edges.items():
            assert b.edges.get((min(f[u], f[v]), max(f[u], f[v]))) == m


@pytest.mark.parametrize("name,build", SYMMETRIC_64)
def test_isomorphism_visits_no_more_nodes_than_one_labeling(name, build, monkeypatch):
    visits = []
    descend = _Canonicalizer._descend

    def counted(self, *args):
        visits.append(self)
        return descend(self, *args)

    monkeypatch.setattr(_Canonicalizer, "_descend", counted)
    graph = build()
    rng = random.Random(name)
    for _ in range(3):
        perm = list(range(graph.n))
        rng.shuffle(perm)
        relabeled = relabel(graph, perm)
        visits.clear()
        canonical_form(relabeled)
        labeling = len(visits)
        visits.clear()
        assert are_isomorphic(graph, relabeled)
        assert len(visits) <= labeling


def test_goal_search_keeps_the_node_budget(monkeypatch):
    monkeypatch.setattr("ggraphs.iso.NODE_BUDGET", 50)
    c64, c8s = cycle_graph(64), _copies(cycle_graph(8), 8)
    # C64's first leaf is 3 nodes deep, but the whole search of 8·C8 takes
    # about 200 nodes and meets no leaf of that encoding
    with pytest.raises(TooLargeError, match="budget of 50 search nodes"):
        are_isomorphic(c64, c8s)
    # 8·C8's own labeling takes about 200 nodes too, its first leaf 17: the
    # pair gets an answer, since only C64 is searched in full
    assert not are_isomorphic(c8s, c64)
    with pytest.raises(TooLargeError):
        canonical_form(c8s)
