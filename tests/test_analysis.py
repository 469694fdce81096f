import pytest

import fixture_catalog as cat
from ggraphs import (
    affine_ball,
    analyze,
    check_subgroup_subgraph,
    make_dihedral,
    make_gen_sequence,
    sl2z_ball,
)
from ggraphs.io import document_from_ball, document_from_ggraph, dumps, loads
from ggraphs.multigraph import Multigraph


def test_s3_transpositions_is_eulerian():
    report = analyze(cat.ggraph_of("sym3_all_transpositions"))
    assert report.connected
    assert report.eulerian
    assert report.is_k_partite_valid
    assert report.per_class_degree_uniform
    assert report.class_degrees == (4, 4, 4)


def test_d10_rs_biregular_not_eulerian():
    report = analyze(cat.ggraph_of("dihedral10_rs"))
    assert report.bipartite
    assert report.biregular
    assert sorted(report.biregular_degrees) == [2, 5]
    assert not report.eulerian  # degree 5 is odd


def test_sd16_is_eulerian():
    report = analyze(cat.ggraph_of("sd16_ab"))
    assert report.eulerian
    assert sorted(report.class_degrees) == [2, 8]


def test_analyze_reads_the_edges_once(monkeypatch):
    # the degrees come from the one adjacency that the traversal reads too
    calls = []
    adjacency = Multigraph.adjacency
    monkeypatch.setattr(
        Multigraph, "adjacency", lambda self: calls.append("adjacency") or adjacency(self)
    )
    monkeypatch.setattr(
        Multigraph, "weighted_degrees", lambda self: calls.append("weighted_degrees")
    )
    report = analyze(cat.ggraph_of("dihedral10_rs"))
    assert calls == ["adjacency"]
    assert sorted(report.class_degrees) == [2, 5]


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_analyze_takes_every_graph_type(name):
    group, _, gg = cat.fixture(name)
    report = analyze(gg)
    assert analyze(gg.to_multigraph()) == report
    document = loads(dumps(document_from_ggraph(gg, list(group.labels))))
    assert analyze(document) == report


@pytest.mark.parametrize("ball", [sl2z_ball(2), affine_ball(3)], ids=["sl2z", "affine"])
def test_analyze_takes_a_ball(ball):
    report = analyze(ball)
    assert report == analyze(ball.to_multigraph())
    assert report == analyze(loads(dumps(document_from_ball(ball))))
    assert report.connected and report.bipartite and report.is_k_partite_valid


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_every_fixture_connected_and_partition_valid(name):
    report = analyze(cat.ggraph_of(name))
    assert report.connected
    assert report.is_k_partite_valid
    assert report.per_class_degree_uniform


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_odd_generating_sets_are_eulerian(name):
    _, seq, gg = cat.fixture(name)
    report = analyze(gg)
    if len(seq) > 2 and len(seq) % 2 == 1:
        assert report.eulerian


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_two_generator_eulerian_iff_even_orders(name):
    _, seq, gg = cat.fixture(name)
    if len(seq) != 2:
        return
    report = analyze(gg)
    assert report.eulerian == all(o % 2 == 0 for o in seq.orders)


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_equal_orders_imply_regular(name):
    _, seq, gg = cat.fixture(name)
    if len(set(seq.orders)) != 1:
        return
    expected = seq.orders[0] * (len(seq) - 1)
    assert set(gg.to_multigraph().weighted_degrees()) == {expected}


def test_subgroup_subgraph_s3_inside_s4():
    group, seq, _ = cat.fixture("sym4_consecutive")  # [(12), (23), (34)]
    assert check_subgroup_subgraph(group, seq, [0, 1])  # <(12),(23)> = S3


def test_subgroup_subgraph_whole_group():
    group, seq, _ = cat.fixture("sym4_consecutive")
    assert check_subgroup_subgraph(group, seq, [0, 1, 2])


def test_subgroup_subgraph_single_reflection():
    d8 = make_dihedral(4)
    seq = make_gen_sequence(d8, [d8.designated["s"], d8.designated["t"]])
    assert check_subgroup_subgraph(d8, seq, [0])


def test_subgroup_subgraph_rejects_bad_positions():
    group, seq, _ = cat.fixture("sym4_consecutive")
    with pytest.raises(ValueError):
        check_subgroup_subgraph(group, seq, [])
    with pytest.raises(ValueError):
        check_subgroup_subgraph(group, seq, [5])
