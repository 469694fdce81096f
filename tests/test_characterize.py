import pytest

import fixture_catalog as cat
from ggraphs import (
    ACCEPT,
    REFUSE,
    UNDETERMINED,
    CharacterizationVerdict,
    InvalidInputError,
    InvalidPartitionError,
    are_isomorphic,
    build_ggraph,
    characterize,
    characterize_bipartite,
    turan_verdict,
    witness_search,
)
from ggraphs.multigraph import (
    Multigraph,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    dodecahedron_graph,
    icosahedron_graph,
    octahedron_graph,
    path_graph,
    rhombic_dodecahedron_graph,
    star_graph,
    turan_graph,
)


def _equal_partition_4x3(graph):
    """A proper 4-coloring of the icosahedron with classes of size 3."""
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    classes = [[] for _ in range(4)]

    def place(v):
        if v == graph.n:
            return True
        for c in range(4):
            if len(classes[c]) < 3 and not any(w in adj[v] for w in classes[c]):
                classes[c].append(v)
                if place(v + 1):
                    return True
                classes[c].pop()
        return False

    assert place(0)
    return classes


def test_icosahedron_refused_with_explicit_partition():
    graph = icosahedron_graph()
    verdict = characterize(graph, _equal_partition_4x3(graph))
    assert verdict.status == REFUSE
    assert "5/3" in verdict.refusal_reason


def test_icosahedron_refused_by_search():
    verdict = characterize(icosahedron_graph())
    assert verdict.status == REFUSE
    assert "5/3" in verdict.refusal_reason


def test_dodecahedron_refused():
    verdict = characterize(dodecahedron_graph())
    assert verdict.status == REFUSE
    assert "3/2" in verdict.refusal_reason


def test_cube_accepted():
    verdict = characterize(cube_graph())
    assert verdict.status == ACCEPT
    assert verdict.group_order == 12
    assert sorted(verdict.gen_orders) == [3, 3]
    assert verdict.presentation == "⟨s1, s2 | s1^3 = s2^3 = e⟩"


def test_turan_13_4_refused():
    assert characterize(turan_graph(13, 4)).status == REFUSE


def test_turan_6_3_accepted():
    verdict = characterize(turan_graph(6, 3))
    assert verdict.status == ACCEPT
    assert verdict.group_order == 4
    assert sorted(verdict.gen_orders) == [2, 2, 2]


def test_disconnected_graph_refused():
    g = Multigraph(4)
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    verdict = characterize(g)
    assert verdict.status == REFUSE
    assert verdict.refusal_reason == "disconnected"


def test_invalid_partitions_raise():
    g = cycle_graph(4)
    with pytest.raises(InvalidPartitionError):
        characterize(g, [[0, 1], [2]])  # does not cover vertex 3
    with pytest.raises(InvalidPartitionError):
        characterize(g, [[0, 1], [2, 3]])  # edge (0,1) inside a class


def test_oversize_partition_rejected_as_not_chromatic():
    # an antipodal 6-partition of the icosahedron satisfies the counting
    # conditions but the graph is 4-chromatic, so it must still refuse
    from collections import deque

    graph = icosahedron_graph()
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    def antipode(v):
        dist = {v: 0}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        far = [w for w, d in dist.items() if d == 3]
        assert len(far) == 1
        return far[0]

    classes = []
    seen = set()
    for v in range(graph.n):
        if v not in seen:
            classes.append([v, antipode(v)])
            seen.update(classes[-1])
    assert len(classes) == 6
    verdict = characterize(graph, classes)
    assert verdict.status == REFUSE
    # six orders of 1 generate the trivial group, not one of order 2, so the
    # rule refuses before the chromatic check runs
    assert verdict.refusal_reason == (
        "orders (1, 1, 1, 1, 1, 1) generate a group of order 1, not 2"
    )
    # K_{6,6} in four classes of 3 passes the rule, with orders (2, 2, 2, 2)
    # and |G| = 6, but is 2-chromatic
    four = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    verdict = characterize(complete_bipartite(6, 6), four)
    assert verdict.status == REFUSE
    assert verdict.refusal_reason == "graph is 3-colorable, so it is not exactly 4-chromatic"


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_round_trip_on_catalog(name):
    group, seq, gg = cat.fixture(name)
    verdict = characterize(gg, gg.natural_partition())
    assert verdict.status == ACCEPT
    assert verdict.group_order == group.order
    assert sorted(verdict.gen_orders) == sorted(seq.orders)


def test_all_icosahedron_chromatic_partitions_refuse():
    # every proper 4-coloring fails the order-integrality condition
    graph = icosahedron_graph()
    verdict = characterize(graph, _equal_partition_4x3(graph))
    assert verdict.status == REFUSE
    # the refusal is partition-independent: degree 5 with k-1 = 3
    assert "5/3" in verdict.refusal_reason


def _proper_colorings(graph, k, limit):
    """Up to ``limit`` proper k-colorings with all classes nonempty."""
    adj = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    classes = [[] for _ in range(k)]
    found = []

    def place(v, opened):
        if len(found) >= limit:
            return
        if v == graph.n:
            if opened == k:
                found.append([list(c) for c in classes])
            return
        for c in range(min(opened + 1, k)):
            if any(w in adj[v] for w in classes[c]):
                continue
            classes[c].append(v)
            place(v + 1, max(opened, c + 1))
            classes[c].pop()

    place(0, 0)
    return found


@pytest.mark.parametrize(
    "graph,k",
    [
        (icosahedron_graph(), 4),
        (dodecahedron_graph(), 3),
    ],
)
def test_refusals_stable_over_chromatic_partitions(graph, k):
    # unbalanced colorings refuse on class sizes, balanced ones on order
    # integrality; either way no partition is accepted
    colorings = _proper_colorings(graph, k, limit=60)
    assert colorings
    for classes in colorings:
        assert characterize(graph, classes).status == REFUSE


def test_complete_graph_above_search_bound_is_undetermined():
    # K_8 is 8-chromatic, past the automatic k <= 6 bound: no guessing
    k8 = complete_graph(8)
    assert characterize(k8).status == UNDETERMINED
    # with the explicit singleton partition the verdict is decidable
    verdict = characterize(k8, [[v] for v in range(8)])
    assert verdict.status == ACCEPT
    assert verdict.group_order == 1
    assert set(verdict.gen_orders) == {1}


def test_characterize_undetermined_above_vertex_bound():
    gg = cat.ggraph_of("sym5_all_transpositions")  # 600 vertices
    verdict = characterize(gg)  # no partition: search path refuses to guess
    assert verdict.status == UNDETERMINED


def test_search_path_handles_multiplicities():
    # the double-edged K_{2,2}: searched without a partition, edge counts
    # include multiplicity so |G| = 8 with both orders 4
    verdict = characterize(complete_bipartite(2, 2, mult=2))
    assert verdict.status == ACCEPT
    assert verdict.group_order == 8
    assert sorted(verdict.gen_orders) == [4, 4]


def test_odd_cycles_but_the_triangle_are_refused():
    # with k = 3 every order is 1, so |G| must be 1; only C3 has 2|E|/6 = 1
    for n in range(3, 22):
        verdict = characterize(cycle_graph(n))
        assert (verdict.status == ACCEPT) == (n == 3 or n % 2 == 0), n
        assert verdict.status in (ACCEPT, REFUSE), n
    assert characterize(cycle_graph(9)).refusal_reason == (
        "orders (1, 1, 1) generate a group of order 1, not 3"
    )


def _circulant(n, jumps):
    graph = Multigraph(n)
    for u, v in sorted({tuple(sorted((u, (u + j) % n))) for u in range(n) for j in jumps}):
        graph.add_edge(u, v)
    return graph


# (graph, use its own classes as the partition, verdict, nodes it takes); the
# cycles and the circulant reach the size-conditioned search, where the class
# size caps prune
_NODE_COUNTS = [
    ("icosahedron", icosahedron_graph, False, REFUSE, 19),
    ("dodecahedron", dodecahedron_graph, False, REFUSE, 92),
    ("octahedron", octahedron_graph, False, ACCEPT, 14),
    ("cube", cube_graph, False, ACCEPT, 9),
    ("rhombic_dodecahedron", rhombic_dodecahedron_graph, False, ACCEPT, 15),
    ("turan_9_3", lambda: turan_graph(9, 3), False, ACCEPT, 20),
    ("turan_8_4", lambda: turan_graph(8, 4), False, ACCEPT, 18),
    ("turan_13_4", lambda: turan_graph(13, 4), False, REFUSE, 14),
    ("k22_mult2", lambda: complete_bipartite(2, 2, mult=2), False, ACCEPT, 5),
    ("turan_8_4_classes", lambda: turan_graph(8, 4), True, ACCEPT, 4),
    ("turan_12_4_classes", lambda: turan_graph(12, 4), True, ACCEPT, 4),
    ("cycle_9", lambda: cycle_graph(9), False, REFUSE, 28),
    ("cycle_15", lambda: cycle_graph(15), False, REFUSE, 108),
    ("circulant_15_1_4_6", lambda: _circulant(15, (1, 4, 6)), False, REFUSE, 84),
]


@pytest.mark.parametrize(
    "make,own_classes,status,nodes",
    [case[1:] for case in _NODE_COUNTS],
    ids=[case[0] for case in _NODE_COUNTS],
)
def test_node_budget_is_spent_exactly(make, own_classes, status, nodes):
    # the coloring search spends exactly `nodes` search-tree nodes: that many
    # reach the verdict, one fewer leaves it undetermined
    graph = make()
    partition = graph.classes if own_classes else None
    verdict = characterize(graph, partition, node_budget=nodes)
    assert verdict.status == status
    assert verdict == characterize(graph, partition)
    short = characterize(graph, partition, node_budget=nodes - 1)
    assert short.status == UNDETERMINED
    assert short.refusal_reason == "search budget exhausted"


def _gnp(n, p, draw):
    import random

    rng = random.Random(draw)
    graph = Multigraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


# G(60, 0.2) draw -> (k, refusal reason); draws 2, 3, 9 and 10 were decided
# the same way by the static-order search, the others used up its budget
_GNP_VERDICTS = {
    1: (5, "generator order 5/4 not integral"),
    2: (5, "generator order 5/4 not integral"),
    3: (6, "generator order 7/5 not integral"),
    4: (5, "generator order 5/4 not integral"),
    5: (6, "generator order 6/5 not integral"),
    6: (6, "generator order 6/5 not integral"),
    7: (6, "generator order 4/5 not integral"),
    8: (5, "generator order 5/4 not integral"),
    9: (6, "generator order 6/5 not integral"),
    10: (5, "generator order 5/4 not integral"),
}


@pytest.mark.parametrize("draw", sorted(_GNP_VERDICTS))
def test_random_graphs_decided_within_budget(draw):
    # the most spent by any of these draws is 9,431 nodes
    verdict = characterize(_gnp(60, 0.2, draw), node_budget=10_000)
    k, reason = _GNP_VERDICTS[draw]
    assert verdict == CharacterizationVerdict(status=REFUSE, k=k, refusal_reason=reason)


def _coloring_holds(graph, classes, k, required_size):
    """Whether ``classes`` is a proper k-coloring of ``graph`` that meets
    ``required_size`` (when given): all k classes used, each of one degree d
    and with exactly required_size[d] vertices."""
    if len(classes) != k or sorted(v for cls in classes for v in cls) != list(range(graph.n)):
        return False
    where = {v: c for c, cls in enumerate(classes) for v in cls}
    if any(where[u] == where[v] for u, v in graph.edges):
        return False
    if required_size is None:
        return True
    degrees = graph.weighted_degrees()
    for cls in classes:
        degs = {degrees[v] for v in cls}
        if len(degs) != 1 or len(cls) != required_size[degs.pop()]:
            return False
    return True


def test_proper_coloring_matches_brute_force():
    import random
    from itertools import product

    from ggraphs.characterize import _adjacency_masks, _Budget, _proper_coloring

    rng = random.Random(5)
    found = {False: 0, True: 0}
    for _ in range(150):
        n, k = rng.randint(2, 7), rng.randint(2, 4)
        p = rng.random()
        graph = Multigraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    graph.add_edge(u, v, rng.choice([1, 1, 2]))
        degrees = graph.weighted_degrees()
        colorings = []
        for colors in product(range(k), repeat=n):
            if all(colors[u] != colors[v] for u, v in graph.edges):
                colorings.append([[v for v in range(n) if colors[v] == c] for c in range(k)])
        required_size = {d: rng.randint(1, n) for d in set(degrees)}
        uniform = [
            c for c in colorings if all(len({degrees[v] for v in cls}) == 1 for cls in c)
        ]
        if uniform and rng.random() < 0.7:
            # plant the sizes of a coloring whose classes are degree-uniform
            required_size = {degrees[cls[0]]: len(cls) for cls in rng.choice(uniform)}
        for required in (None, required_size):
            expected = any(_coloring_holds(graph, c, k, required) for c in colorings)
            classes = _proper_coloring(
                _adjacency_masks(graph), degrees, k, _Budget(10**6), required
            )
            assert (classes is not None) == expected
            if classes is not None:
                assert _coloring_holds(graph, classes, k, required)
            found[required is not None] += expected
    # both searches met colorings to find, and inputs with none
    assert 50 <= found[False] < 150 and 20 <= found[True] < 150


def _recursive_coloring(masks, degrees, k, budget, required_size=None):
    """A recursive backtracker in static (-degree, id) order, kept as the
    reference for ``_proper_coloring``: one call per node, charged on entry."""
    from ggraphs.characterize import _BudgetExceeded

    n = len(masks)
    conflicts = list(masks)
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    cap = [0] * n
    if required_size is not None:
        same_degree = {}
        for v, d in enumerate(degrees):
            same_degree[d] = same_degree.get(d, 0) | 1 << v
        everyone = (1 << n) - 1
        conflicts = [m | everyone ^ same_degree[d] for m, d in zip(conflicts, degrees)]
        cap = [required_size[d] for d in degrees]
    class_masks = [0] * k

    def assign(idx, opened):
        budget.left -= 1
        if budget.left < 0:
            raise _BudgetExceeded
        if idx == n:
            return required_size is None or opened == k and all(
                m.bit_count() == required_size[degrees[(m & -m).bit_length() - 1]]
                for m in class_masks
            )
        v = order[idx]
        bit, clash, full = 1 << v, conflicts[v], cap[v]
        for c in range(min(opened + 1, k)):
            members = class_masks[c]
            if members & clash or full and members.bit_count() >= full:
                continue
            class_masks[c] |= bit
            if assign(idx + 1, max(opened, c + 1)):
                return True
            class_masks[c] &= ~bit
        return False

    if not assign(0, 0):
        return None
    return [[v for v in range(n) if m >> v & 1] for m in class_masks]


def test_coloring_kernel_agrees_with_recursive_reference():
    # the DSATUR kernel and the static-order reference explore different
    # trees, so they agree on whether a coloring exists, not on which one
    import random

    from ggraphs.characterize import (
        _adjacency_masks,
        _Budget,
        _BudgetExceeded,
        _proper_coloring,
    )

    def run(kernel, masks, degrees, k, nodes, required):
        budget = _Budget(nodes)
        try:
            return kernel(masks, degrees, k, budget, required), budget.left
        except _BudgetExceeded:
            return "exhausted", budget.left

    rng = random.Random(11)
    nodes = 3000
    outcomes = {(found, sized): 0 for found in (False, True) for sized in (False, True)}
    for _ in range(320):
        n, k = rng.randint(1, 16), rng.randint(2, 5)
        p = rng.random()
        graph = Multigraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    graph.add_edge(u, v, rng.choice([1, 1, 2]))
        masks, degrees = _adjacency_masks(graph), graph.weighted_degrees()
        position = {v: i for i, v in enumerate(sorted(range(n), key=lambda v: (-degrees[v], v)))}
        per_degree = {d: degrees.count(d) for d in degrees}
        required_size = {d: max(1, m // rng.randint(1, k)) for d, m in per_degree.items()}
        for required in (None, required_size):
            classes, left = run(_proper_coloring, masks, degrees, k, nodes, required)
            if classes == "exhausted":
                continue
            expected, _ = run(_recursive_coloring, masks, degrees, k, nodes, required)
            if expected != "exhausted":
                assert (classes is None) == (expected is None)
            outcomes[classes is not None, required is not None] += 1
            if classes is not None:
                assert _coloring_holds(graph, classes, k, required)
                # numbered by first member in (-degree, id) order, empty classes last
                firsts = [min(position[v] for v in cls) if cls else n for cls in classes]
                assert firsts == sorted(firsts)
            spent = nodes - left
            assert run(_proper_coloring, masks, degrees, k, spent, required) == (classes, 0)
            for cut in (spent - 1, rng.randrange(spent)):
                assert run(_proper_coloring, masks, degrees, k, cut, required) == ("exhausted", -1)
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("make", [octahedron_graph, icosahedron_graph])
def test_search_builds_masks_and_degrees_once(monkeypatch, make):
    import importlib

    module = importlib.import_module("ggraphs.characterize")
    counts = {"masks": 0, "degrees": 0}
    build_masks, build_degrees = module._adjacency_masks, Multigraph.weighted_degrees

    def counted_masks(mg):
        counts["masks"] += 1
        return build_masks(mg)

    def counted_degrees(mg):
        counts["degrees"] += 1
        return build_degrees(mg)

    monkeypatch.setattr(module, "_adjacency_masks", counted_masks)
    monkeypatch.setattr(Multigraph, "weighted_degrees", counted_degrees)
    characterize(make())
    assert counts == {"masks": 1, "degrees": 1}


@pytest.mark.parametrize("decide", [characterize, characterize_bipartite])
def test_bipartite_decisions_traverse_once(monkeypatch, decide):
    calls = []
    traverse = Multigraph.traverse

    def counted(mg):
        calls.append(mg.n)
        return traverse(mg)

    monkeypatch.setattr(Multigraph, "traverse", counted)
    verdict = decide(complete_bipartite(3, 5))
    assert verdict.status == ACCEPT and verdict.k == 2
    assert calls == [8]


def test_random_round_trips():
    import random

    from ggraphs import (
        NotAGeneratingSetError,
        build_ggraph,
        make_cyclic,
        make_dihedral,
        make_gen_sequence,
        make_generalized_quaternion,
        make_semidihedral,
    )

    rng = random.Random(2024)
    pool = [
        lambda: make_cyclic(rng.randint(2, 12)),
        lambda: make_dihedral(rng.randint(2, 6)),
        lambda: make_generalized_quaternion(rng.randint(2, 4)),
        lambda: make_semidihedral(rng.randint(1, 3)),
    ]
    checked = 0
    for _ in range(120):
        group = rng.choice(pool)()
        elems = [rng.randrange(group.order) for _ in range(rng.randint(2, 4))]
        try:
            seq = make_gen_sequence(group, elems)
        except NotAGeneratingSetError:
            continue
        gg = build_ggraph(group, seq)
        verdict = characterize(gg, gg.natural_partition())
        assert verdict.status == ACCEPT
        assert verdict.group_order == group.order
        assert sorted(verdict.gen_orders) == sorted(seq.orders)
        checked += 1
    assert checked >= 30


# -- bipartite characterization ---------------------------------------------


def test_star_accepted():
    verdict = characterize_bipartite(star_graph(4))
    assert verdict.status == ACCEPT
    assert verdict.group_order == 4
    assert sorted(verdict.gen_orders) == [1, 4]


def test_rhombic_dodecahedron_accepted():
    verdict = characterize_bipartite(rhombic_dodecahedron_graph())
    assert verdict.status == ACCEPT
    assert verdict.group_order == 24
    assert sorted(verdict.gen_orders) == [3, 4]


def test_path_refused():
    verdict = characterize_bipartite(path_graph(4))
    assert verdict.status == REFUSE


def test_non_bipartite_raises():
    with pytest.raises(InvalidInputError):
        characterize_bipartite(cycle_graph(5))


def _random_bipartite_multigraph():
    """A seeded connected bipartite multigraph on sides of 5 and 7 vertices."""
    import random

    rng = random.Random(0)
    graph = Multigraph(12)
    for u in range(5):
        for v in range(5, 12):
            if rng.random() < 0.5:
                graph.add_edge(u, v, rng.randint(1, 3))
    return graph


_NOT_BIREGULAR = {
    "path_graph(4)": lambda: path_graph(4),
    "random_bipartite_multigraph": _random_bipartite_multigraph,
}


@pytest.mark.parametrize("name", cat.CATALOG_NAMES + tuple(_NOT_BIREGULAR))
def test_bipartite_agrees_with_general_path(name):
    if name in _NOT_BIREGULAR:
        graph = _NOT_BIREGULAR[name]()
    else:
        graph = cat.fixture(name)[2].to_multigraph()
    sides, components = graph.traverse()
    if sides is None:
        with pytest.raises(InvalidInputError):
            characterize_bipartite(graph)
        return
    verdict = characterize_bipartite(graph)
    assert verdict == characterize(graph, sides)
    if name in _NOT_BIREGULAR:
        assert components == 1
        assert verdict.status == REFUSE and verdict.k == 2
    else:
        group, seq, _ = cat.fixture(name)
        assert verdict.status == ACCEPT and verdict.group_order == group.order
        assert sorted(verdict.gen_orders) == sorted(seq.orders)


def test_bipartite_on_disconnected_odd_cycles_refuses():
    graph = Multigraph(6, edges=[(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    verdict = characterize_bipartite(graph)
    assert verdict.status == REFUSE
    assert verdict.refusal_reason == "disconnected"


# -- Turan verdicts ----------------------------------------------------------


def test_turan_verdict_divisible():
    verdict = turan_verdict(6, 3)
    assert verdict.status == ACCEPT
    assert verdict.group_order == 4
    assert verdict.gen_orders == (2, 2, 2)


def test_turan_verdict_refusal():
    assert turan_verdict(13, 4).status == REFUSE


def test_turan_verdict_bipartite_odd():
    verdict = turan_verdict(5, 2)
    assert verdict.status == ACCEPT
    assert verdict.group_order == 6
    assert sorted(verdict.gen_orders) == [2, 3]


def test_turan_verdict_complete_graph_case():
    for n in (3, 4, 5):
        verdict = turan_verdict(n, n)
        assert verdict.status == ACCEPT
        assert verdict.group_order == 1
        assert set(verdict.gen_orders) == {1}


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 17) for r in range(2, n + 1)])
def test_turan_verdict_consistent_with_characterize(n, r):
    graph = turan_graph(n, r)
    verdict = turan_verdict(n, r)
    assert verdict == characterize(graph, graph.classes)
    assert (verdict.status == ACCEPT) == (n % r == 0 or r == 2)


def test_turan_verdict_refuses_past_the_vertex_limit_before_building():
    import tracemalloc

    from ggraphs import SizeLimitError
    from ggraphs.multigraph import VERTEX_LIMIT

    n = VERTEX_LIMIT + 1
    tracemalloc.start()
    try:
        for r in (2, n):
            with pytest.raises(SizeLimitError):
                turan_verdict(n, r)
            with pytest.raises(SizeLimitError):
                turan_graph(n, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a list of n class sizes alone would take 800 kB
    assert peak < 100_000


# -- witness search ----------------------------------------------------------


def test_witness_k33():
    target = complete_bipartite(3, 3)
    verdict = characterize(target)
    group, seq = witness_search(verdict, target)
    assert group.family_tag == "Z3xZ3"
    assert sorted(seq.orders) == [3, 3]
    assert are_isomorphic(build_ggraph(group, seq), target)


def test_witness_octahedron():
    from ggraphs.multigraph import octahedron_graph

    target = octahedron_graph()
    verdict = characterize(target)
    group, seq = witness_search(verdict, target)
    assert group.order == 4
    assert seq.orders == (2, 2, 2)
    assert len(set(seq.positions)) == 3
    assert are_isomorphic(build_ggraph(group, seq), target)


def test_witness_k28_includes_semidihedral():
    from ggraphs.characterize import _witnesses

    target = complete_bipartite(2, 8)
    verdict = characterize(target)
    hits = list(_witnesses(verdict, target, 10**6))
    tags = {group.family_tag for group, _ in hits}
    assert "SD16" in tags
    for group, seq in hits:
        assert are_isomorphic(build_ggraph(group, seq), target)


def test_witness_complete_graphs_via_trivial_group():
    for n in (3, 4, 5):
        target = complete_graph(n)
        group, seq = witness_search(turan_verdict(n, n), target)
        assert group.order == 1
        assert seq.orders == (1,) * n
        assert are_isomorphic(build_ggraph(group, seq), target)


def test_witness_none_for_refusals():
    verdict = characterize(icosahedron_graph())
    assert witness_search(verdict, icosahedron_graph()) is None


def test_witness_none_past_the_catalog_order_bound():
    # K_{2,2} with every edge 2501-fold: ACCEPT with |G| = 10004, above
    # CLOSURE_LIMIT, so no catalog group can be built
    from ggraphs.characterize import _witnesses

    target = complete_bipartite(2, 2, mult=2501)
    verdict = characterize(target)
    assert verdict.status == ACCEPT and verdict.group_order == 10004
    assert witness_search(verdict, target) is None
    assert list(_witnesses(verdict, target, 10**6)) == []


@pytest.mark.parametrize(
    "group_order, gen_orders", [(6, (0, 3)), (6.0, (3, 2))], ids=["zero-order", "float-order"]
)
def test_witness_none_for_malformed_verdicts(group_order, gen_orders):
    # an order that is zero or not an int would divide by zero or reach a
    # group constructor; like a negative order, it gets no witness
    target = complete_bipartite(2, 3)
    verdict = CharacterizationVerdict(ACCEPT, 2, (2, 3), (3, 2), group_order, gen_orders)
    assert witness_search(verdict, target) is None


def test_catalog_builds_each_abelian_group_once():
    from ggraphs.characterize import _catalog_groups

    def abelian(n):
        return [e.group.family_tag for e in _catalog_groups(n)
                if e.group.family_tag.startswith("Z")]

    assert abelian(12) == ["Z12", "Z2xZ6"]
    assert abelian(60) == ["Z60", "Z2xZ30"]
    assert abelian(9) == ["Z9", "Z3xZ3"]
    # one per partition of 6 (the exponents of 2^6)
    assert len(abelian(64)) == 11


def _order_histogram(group):
    from collections import Counter

    from ggraphs.groups import element_order

    counts = Counter(element_order(group, x) for x in range(group.order))
    return tuple(sorted(counts.items()))


def test_catalog_entries_differ_in_element_order_histograms():
    # isomorphic groups share a histogram; a repeated entry would make
    # witness_search build and scan the same graphs twice
    from ggraphs.characterize import _catalog_groups

    for n in range(1, 65):
        histograms = [_order_histogram(e.group) for e in _catalog_groups(n)]
        assert len(set(histograms)) == len(histograms), n


def test_catalog_keeps_every_family_member_up_to_isomorphism():
    # every member of every family the catalog draws from, SD8, D4, S3 and
    # A3 included, has an entry with its histogram: leaving out a twin must
    # not leave out a distinct group
    import math

    from ggraphs.characterize import _catalog_groups
    from ggraphs.groups import (
        make_alternating,
        make_dihedral,
        make_generalized_quaternion,
        make_semidihedral,
        make_symmetric,
    )

    for n in range(1, 65):
        family = []
        if n >= 4 and n % 2 == 0:
            family.append(make_dihedral(n // 2))
        if n >= 8 and n % 4 == 0:
            family.append(make_generalized_quaternion(n // 4))
        if n % 8 == 0:
            family.append(make_semidihedral(n // 8))
        for m in range(3, 9):
            if math.factorial(m) == n:
                family.append(make_symmetric(m))
            if math.factorial(m) == 2 * n:
                family.append(make_alternating(m))
        catalog = {_order_histogram(e.group) for e in _catalog_groups(n)}
        for group in family:
            assert _order_histogram(group) in catalog, group.family_tag


def test_witness_k2_12_includes_semidihedral():
    # SD24 = Z4 x S3 is no other catalog entry of order 24
    from ggraphs.characterize import _witnesses

    target = complete_bipartite(2, 12)
    hits = list(_witnesses(characterize(target), target, 10**6))
    assert "SD24" in {group.family_tag for group, _ in hits}


# -- witness search against its unscreened loop ------------------------------


def _reference_witness_search(verdict, target, *, all_matches=False, max_sequences=10**6):
    """``witness_search`` before its screen and memo: every tuple of class
    representatives is closed, built and canonicalized, in catalog order,
    over groups built afresh."""
    from itertools import product

    from ggraphs.characterize import _catalog_makers
    from ggraphs.errors import NotAGeneratingSetError
    from ggraphs.groups import (
        CLOSURE_LIMIT,
        conjugacy_classes,
        element_order,
        make_gen_sequence,
    )
    from ggraphs.iso import canonical_form
    from ggraphs.multigraph import as_multigraph

    if verdict.status != ACCEPT or not verdict.group_order or not verdict.gen_orders:
        return [] if all_matches else None
    tgt = as_multigraph(target)
    n_order = verdict.group_order
    wanted = tuple(sorted(verdict.gen_orders))
    k = len(wanted)
    expected_vertices = sum(n_order // o for o in wanted if n_order % o == 0)
    expected_mult = k * (k - 1) // 2 * n_order
    if n_order > CLOSURE_LIMIT or any(n_order % o for o in wanted):
        return [] if all_matches else None
    if expected_vertices != tgt.n or expected_mult != tgt.edge_multiplicity_total():
        return [] if all_matches else None

    target_form = canonical_form(tgt).edges
    hits = []
    budget = max_sequences
    for make in _catalog_makers(n_order):
        group = make()
        pools = {}
        for cls in conjugacy_classes(group):
            o = element_order(group, cls[0])
            if o in set(wanted):
                pools.setdefault(o, []).append(cls[0])
        if any(o not in pools for o in wanted):
            continue
        for combo in product(*[pools[o] for o in wanted]):
            budget -= 1
            if budget < 0:
                return hits if all_matches else None
            try:
                seq = make_gen_sequence(group, combo)
            except NotAGeneratingSetError:
                continue
            if canonical_form(build_ggraph(group, seq)).edges == target_form:
                hit = (group, seq)
                if not all_matches:
                    return hit
                hits.append(hit)
                break
    return hits if all_matches else None


def _witness_key(result):
    """What a witness result says, without the group object."""
    if result is None:
        return None
    if isinstance(result, list):
        return [_witness_key(hit) for hit in result]
    group, seq = result
    return group.family_tag, seq.positions, seq.orders


def _assert_witness_matches_reference(verdict, target):
    from ggraphs.characterize import _witnesses

    first = _witness_key(witness_search(verdict, target))
    assert first == _witness_key(_reference_witness_search(verdict, target))
    # a warm memo gives the same answer
    assert _witness_key(witness_search(verdict, target)) == first
    for budget in (None, 1, 5, 50):
        kwargs = {} if budget is None else {"max_sequences": budget}
        assert _witness_key(witness_search(verdict, target, **kwargs)) == _witness_key(
            _reference_witness_search(verdict, target, **kwargs)
        ), kwargs
        assert _witness_key(list(_witnesses(verdict, target, budget or 10**6))) == _witness_key(
            _reference_witness_search(verdict, target, all_matches=True, **kwargs)
        ), kwargs


WITNESS_CATALOG = [name for name in cat.CATALOG_NAMES if cat.ggraph_of(name).vertex_count <= 64]


@pytest.mark.parametrize("name", WITNESS_CATALOG)
def test_witness_agrees_with_reference_on_catalog(name):
    gg = cat.ggraph_of(name)
    _assert_witness_matches_reference(characterize(gg, gg.natural_partition()), gg)


@pytest.mark.parametrize(
    "name",
    ["cube", "k25", "octahedron", "rhombic_dodecahedron", "star4", "path4", "turan_13_4"],
)
def test_witness_agrees_with_reference_on_fixtures(name):
    from pathlib import Path

    from ggraphs.io import read_edge_list

    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.edges"
    graph = read_edge_list(path)
    _assert_witness_matches_reference(characterize(graph), graph)


def _random_coset_graph(make, k, seed):
    """A coset graph of ``make()`` on k random generators, relabeled at random."""
    import random

    from ggraphs.errors import NotAGeneratingSetError
    from ggraphs.groups import make_gen_sequence

    rng = random.Random(seed)
    group = make()
    while True:
        try:
            seq = make_gen_sequence(group, [rng.randrange(group.order) for _ in range(k)])
        except NotAGeneratingSetError:
            continue
        gg = build_ggraph(group, seq)
        if gg.vertex_count <= 64:
            break
    perm = list(range(gg.vertex_count))
    rng.shuffle(perm)
    return Multigraph(gg.vertex_count, edges=[(perm[u], perm[v], m) for u, v, m in gg.edges])


def _witness_groups():
    from ggraphs.groups import (
        make_alternating,
        make_cyclic,
        make_dihedral,
        make_direct_product,
        make_generalized_quaternion,
        make_symmetric,
    )

    return {
        "S4": lambda: make_symmetric(4),
        "A4": lambda: make_alternating(4),
        "D12": lambda: make_dihedral(6),
        "D16": lambda: make_dihedral(8),
        "Z12": lambda: make_cyclic(12),
        "Z2xZ6": lambda: make_direct_product(make_cyclic(2), make_cyclic(6)),
        "Q12": lambda: make_generalized_quaternion(3),
        "Z4xZ4": lambda: make_direct_product(make_cyclic(4), make_cyclic(4)),
    }


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("group", sorted(_witness_groups()))
def test_witness_agrees_with_reference_on_random_generators(group, k):
    for seed in range(2):
        target = _random_coset_graph(_witness_groups()[group], k, seed)
        _assert_witness_matches_reference(characterize(target), target)


def test_witness_on_z10000_exhausts_its_budget_quickly():
    # K_{2,2} with every edge 2500-fold: ACCEPT with |G| = 10000 and orders
    # (5000, 5000).  The 2000 x 2000 generator pairs of Z10000 alone exceed
    # the 10^6 budget; per-element order loops took 98 s here
    import time

    from ggraphs.characterize import _catalog_memo

    small = complete_bipartite(3, 3)
    witness_search(characterize(small), small)
    kept = list(_catalog_memo)
    target = complete_bipartite(2, 2, mult=2500)
    verdict = characterize(target)
    assert verdict.group_order == 10000 and verdict.gen_orders == (5000, 5000)
    start = time.perf_counter()
    assert witness_search(verdict, target) is None
    assert time.perf_counter() - start < 10
    # a group too large for the memo is built, used and dropped, and the
    # memo keeps what it held
    assert list(_catalog_memo) == kept


def test_catalog_memo_order_bound_keeps_it_within_4_mib():
    # every catalog group the memo can hold, kept at once, holds at most
    # 2^20 table cells (4 MiB of int32 tables)
    from ggraphs.characterize import CATALOG_MEMO_ORDER, _catalog_makers

    cells = sum(
        n * n * len(list(_catalog_makers(n))) for n in range(1, CATALOG_MEMO_ORDER + 1)
    )
    assert cells <= 1 << 20


def test_catalog_memo_keeps_no_group_past_its_order_bound():
    # K2 with one 720-fold edge: |G| = 720 and orders (720, 720); the scan
    # builds all 14 catalog groups of order 720 and keeps none of them
    from ggraphs.characterize import _catalog_memo, _witnesses

    small = complete_bipartite(3, 3)
    witness_search(characterize(small), small)
    kept = dict(_catalog_memo)
    target = complete_bipartite(1, 1, mult=720)
    verdict = characterize(target)
    assert verdict.group_order == 720
    hits = list(_witnesses(verdict, target, 10**6))
    assert [group.family_tag for group, _ in hits] == ["Z720"]
    assert _catalog_memo == kept


def test_catalog_memo_filled_from_threads():
    # more threads than cores fill one cold memo at once; every call gives
    # the sequential answer, and every pool kept is the one a sequential
    # fill computes
    import sys
    import threading

    from ggraphs.characterize import _catalog_memo, _fill, _witnesses

    targets = [
        complete_bipartite(2, 8), complete_bipartite(3, 3), octahedron_graph(),
        cube_graph(), rhombic_dodecahedron_graph(),
    ]
    jobs = [(characterize(t), t) for t in targets]
    expected = [_witness_key(list(_witnesses(v, t, 10**6))) for v, t in jobs]
    results = {}

    def work(worker):
        results[worker] = [_witness_key(list(_witnesses(v, t, 10**6))) for v, t in jobs]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _catalog_memo.clear()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {i: expected for i in range(6)}
            for entry in _catalog_memo.values():
                for o in entry._pools:
                    assert entry.pool(o) == _fill(entry.group, o)
    finally:
        sys.setswitchinterval(switch)
