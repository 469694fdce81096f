"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
import time

import pytest

import fixture_catalog as cat
from ggraphs import (
    ACCEPT,
    REFUSE,
    INFINITE,
    adjacency_from_multigraph,
    adjacency_matrix,
    affine_ball,
    analyze,
    are_isomorphic,
    build_ggraph,
    canonical_form,
    characterize,
    characterize_bipartite,
    check_subgroup_subgraph,
    is_locally_finite,
    make_dihedral,
    make_gen_sequence,
    predicted_stats,
    sl2z_ball,
    spectrum,
    turan_verdict,
)
from ggraphs.io import document_from_ggraph, dumps, loads
from ggraphs.multigraph import (
    Multigraph,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    dodecahedron_graph,
    hypercube_graph,
    icosahedron_graph,
    octahedron_graph,
    path_graph,
    rhombic_dodecahedron_graph,
    star_graph,
    turan_graph,
)


def _expand(report):
    return [v for v, m in report.eigenvalues for _ in range(m)]


def _check_spectrum(report, expected, tol=1e-3):
    assert [m for _, m in report.eigenvalues] == [m for _, m in expected], (
        f"multiplicities {[m for _, m in report.eigenvalues]} != "
        f"{[m for _, m in expected]}"
    )
    for (got, _), (want, _) in zip(report.eigenvalues, expected):
        assert abs(got - want) <= tol, f"{got} != {want} within {tol}"


def test_criterion_1_structural_formula_suite():
    for name in cat.CATALOG_NAMES:
        group, seq, gg = cat.fixture(name)
        stats = predicted_stats(group, seq)
        assert tuple(len(p) for p in gg.partitions) == stats.class_vertex_counts, name
        assert gg.vertex_count == stats.vertex_count, name
        assert sum(m for _, _, m in gg.edges) == stats.edge_multiplicity_total, name
        degrees = gg.to_multigraph().weighted_degrees()
        for c, cls in enumerate(gg.natural_partition()):
            assert {degrees[v] for v in cls} == {stats.class_degrees[c]}, name

    group, seq, _ = cat.fixture("sym5_all_transpositions")
    t0 = time.time()
    big = build_ggraph(group, seq)
    elapsed = time.time() - t0
    assert big.vertex_count == 600
    assert set(big.to_multigraph().weighted_degrees()) == {18}
    assert elapsed < 5.0, f"600-vertex build took {elapsed:.2f}s"

    _, _, g = cat.fixture("sym4_12_tailcycle")
    assert tuple(len(p) for p in g.partitions) == (12, 8)
    degs = g.to_multigraph().weighted_degrees()
    parts = g.natural_partition()
    assert {degs[v] for v in parts[0]} == {2}
    assert {degs[v] for v in parts[1]} == {3}
    assert sum(m for _, _, m in g.edges) == 24

    print(f"\nPASS criterion 1: built stats equal predicted stats on all "
          f"{len(cat.CATALOG_NAMES)} fixtures (600-vertex build {elapsed:.3f}s)")


def test_criterion_2_isomorphism_identifications():
    for n in (3, 4, 5, 8):
        assert are_isomorphic(
            cat.ggraph_of(f"dihedral{2 * n}_rs"), complete_bipartite(2, n)
        ), f"dihedral{2 * n} vs K_2,{n}"
        assert are_isomorphic(
            cat.ggraph_of(f"dihedral{2 * n}_st"), cycle_graph(2 * n)
        ), f"dihedral{2 * n} vs C_{2 * n}"
    assert are_isomorphic(
        cat.ggraph_of("quaternion_ab"), complete_bipartite(2, 2, mult=2)
    )
    assert are_isomorphic(cat.ggraph_of("sd16_ab"), complete_bipartite(2, 8))
    assert are_isomorphic(cat.ggraph_of("klein_ab_ab"), octahedron_graph())
    trio = [cat.ggraph_of(f"z3z3_{t}") for t in ("s1", "s2", "s3")]
    for a in trio:
        for b in trio:
            assert are_isomorphic(a, b)
    print("\nPASS criterion 2: all named isomorphism identifications hold")


def test_criterion_3_characterization_verdicts():
    v = characterize(icosahedron_graph())
    assert v.status == REFUSE and "5/3" in v.refusal_reason
    v = characterize(dodecahedron_graph())
    assert v.status == REFUSE and "3/2" in v.refusal_reason
    v = characterize(cube_graph())
    assert v.status == ACCEPT and v.group_order == 12
    assert sorted(v.gen_orders) == [3, 3]
    assert characterize(turan_graph(13, 4)).status == REFUSE
    v = turan_verdict(6, 3)
    assert v.status == ACCEPT and v.group_order == 4
    assert sorted(v.gen_orders) == [2, 2, 2]
    v = turan_verdict(5, 2)
    assert v.status == ACCEPT and v.group_order == 6
    assert sorted(v.gen_orders) == [2, 3]
    v = characterize_bipartite(rhombic_dodecahedron_graph())
    assert v.status == ACCEPT and v.group_order == 24
    assert sorted(v.gen_orders) == [3, 4]
    print("\nPASS criterion 3: icosahedron/dodecahedron/T(13,4) refused; "
          "cube/T(6,3)/T(5,2)/rhombic dodecahedron accepted with exact parameters")


def test_criterion_4_round_trip_soundness():
    for name in cat.CATALOG_NAMES:
        group, seq, gg = cat.fixture(name)
        verdict = characterize(gg, gg.natural_partition())
        assert verdict.status == ACCEPT, name
        assert verdict.group_order == group.order, name
        assert sorted(verdict.gen_orders) == sorted(seq.orders), name
    print(f"\nPASS criterion 4: round-trip ACCEPT with exact |G| and order "
          f"multiset on {len(cat.CATALOG_NAMES)}/{len(cat.CATALOG_NAMES)} fixtures")


def test_criterion_5_spectral_regression():
    sqrt10, sqrt2, sqrt6 = math.sqrt(10), math.sqrt(2), math.sqrt(6)

    # octahedron from the Klein group on three involutions
    rep = spectrum(adjacency_matrix(cat.ggraph_of("klein_ab_ab")))
    _check_spectrum(rep, [(4, 1), (0, 3), (-2, 2)])
    # K_{2,5} from the order-10 dihedral group
    rep25 = spectrum(adjacency_matrix(cat.ggraph_of("dihedral10_rs")))
    _check_spectrum(rep25, [(3.16228, 1), (0, 5), (-3.16228, 1)])
    # double-edged K_{2,3} from the order-12 generalized quaternion group
    rep = spectrum(adjacency_matrix(cat.ggraph_of("genq3_ab")))
    _check_spectrum(rep, [(4.89898, 1), (0, 3), (-4.89898, 1)])
    # double-edged K_{2,2} from the quaternion group; a 4-vertex matrix has
    # 4 eigenvalues, so zero has multiplicity 2
    rep = spectrum(adjacency_matrix(cat.ggraph_of("quaternion_ab")))
    _check_spectrum(rep, [(4, 1), (0, 2), (-4, 1)])
    # K_{3,3} from Z3 x Z3
    rep = spectrum(adjacency_matrix(cat.ggraph_of("z3z3_s1")))
    _check_spectrum(rep, [(3, 1), (0, 4), (-3, 1)])
    # K_5 from the trivial group, and the general K_n energy boundary
    rep = spectrum(adjacency_matrix(cat.ggraph_of("trivial5")))
    _check_spectrum(rep, [(4, 1), (-1, 4)])
    for n in range(3, 9):
        repn = spectrum(adjacency_from_multigraph(complete_graph(n)))
        assert abs(repn.energy - (2 * n - 2)) <= 1e-6
    # S3 on all transpositions
    rep = spectrum(adjacency_matrix(cat.ggraph_of("sym3_all_transpositions")))
    _check_spectrum(rep, [(4, 1), (1, 4), (-2, 4)])
    # A4 on two 3-cycles: the cube's spectrum
    rep = spectrum(adjacency_matrix(cat.ggraph_of("alt4_12i")))
    _check_spectrum(rep, [(3, 1), (1, 3), (-1, 3), (-3, 1)])
    # all 20 values for S4 with a transposition and a 3-cycle
    rep = spectrum(adjacency_matrix(cat.ggraph_of("sym4_12_tailcycle")))
    _check_spectrum(
        rep,
        [(sqrt6, 1), (2, 3), (sqrt2, 3), (0, 6), (-sqrt2, 3), (-2, 3), (-sqrt6, 1)],
    )
    # the 4-cycle's adjacency spectrum
    rep = spectrum(adjacency_from_multigraph(cycle_graph(4)))
    _check_spectrum(rep, [(2, 1), (0, 2), (-2, 1)])

    assert rep25.energy == pytest.approx(2 * sqrt10, abs=1e-9)
    assert rep25.energy < 7 and rep25.energy_class == "HYPO"
    print("\nPASS criterion 5: spectra match within 1e-3 with exact "
          "multiplicities; K_{2,5} hypoenergetic; E(K_n) = 2n-2 within 1e-6")


def test_criterion_6_infinite_balls():
    for r in (0, 1, 2, 3):
        ball = sl2z_ball(r)
        degrees = ball.to_multigraph().weighted_degrees()
        for i, vert in enumerate(ball.vertices):
            if vert.interior:
                assert degrees[i] == (4 if vert.class_id == 0 else 6)
        for u, v, m in ball.edges:
            assert m == 2
            shared = set(ball.vertices[u].elements) & set(ball.vertices[v].elements)
            assert len(shared) == 2
    for r in range(51):
        ball = affine_ball(r)
        assert ball.vertex_count == 2 * r + 2
        assert len(ball.edges) == 2 * r + 1
        mg = ball.to_multigraph()
        assert mg.traverse()[1] == 1
        assert max(mg.weighted_degrees()) <= 2
    assert is_locally_finite([4, 6]) is True
    assert is_locally_finite([4, INFINITE]) is False
    assert is_locally_finite([]) is True
    print("\nPASS criterion 6: ball degrees/intersections exact; "
          "affine balls are paths on 2r+2 vertices for r in 0..50")


def test_criterion_7_property_suites():
    # canonical-form relabeling invariance: 100 relabelings x 20 fixtures
    fixtures = [
        cycle_graph(6), cycle_graph(16), complete_graph(4), complete_graph(5),
        complete_bipartite(2, 3), complete_bipartite(2, 5),
        complete_bipartite(2, 8), complete_bipartite(3, 3),
        complete_bipartite(2, 2, mult=2), complete_bipartite(2, 3, mult=2),
        octahedron_graph(), cube_graph(), hypercube_graph(4),
        icosahedron_graph(), dodecahedron_graph(), turan_graph(13, 4),
        star_graph(4), path_graph(4),
        cat.ggraph_of("sym3_all_transpositions").to_multigraph(),
        cat.ggraph_of("sym4_12_tailcycle").to_multigraph(),
    ]
    assert len(fixtures) == 20
    rng = random.Random(20_240_101)
    failures = 0
    for graph in fixtures:
        base = canonical_form(graph).edges
        for _ in range(100):
            perm = list(range(graph.n))
            rng.shuffle(perm)
            relabeled = Multigraph(
                graph.n, edges=((perm[u], perm[v], m) for (u, v), m in graph.edges.items())
            )
            if canonical_form(relabeled).edges != base:
                failures += 1
    assert failures == 0

    # Eulerian criteria across the catalog
    for name in cat.CATALOG_NAMES:
        _, seq, gg = cat.fixture(name)
        report = analyze(gg)
        assert report.connected, name
        if len(seq) > 2 and len(seq) % 2 == 1:
            assert report.eulerian, name
        if len(seq) == 2:
            assert report.eulerian == all(o % 2 == 0 for o in seq.orders), name

    # subgroup-induced subgraphs
    group, seq, _ = cat.fixture("sym4_consecutive")
    assert check_subgroup_subgraph(group, seq, [0, 1])
    assert check_subgroup_subgraph(group, seq, [0, 1, 2])
    d8 = make_dihedral(4)
    st = make_gen_sequence(d8, [d8.designated["s"], d8.designated["t"]])
    assert check_subgroup_subgraph(d8, st, [0])

    # JSON round-trip identity on every fixture
    for name in cat.CATALOG_NAMES:
        grp, _, gg = cat.fixture(name)
        text = dumps(document_from_ggraph(gg, list(grp.labels)))
        assert dumps(loads(text)) == text, name

    print("\nPASS criterion 7: 2000/2000 relabelings invariant; Eulerian "
          "criteria, subgroup subgraphs, and JSON round-trips all hold")
