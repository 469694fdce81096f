import pytest

import fixture_catalog as cat
from ggraphs import (
    NotAGeneratingSetError,
    build_ggraph,
    make_cyclic,
    make_symmetric,
    predicted_stats,
)
from ggraphs.io import document_from_ggraph, dumps


def total_multiplicity(gg):
    return sum(m for _, _, m in gg.edges)


def vertex_cosets(gg):
    """(class, coset) of each vertex, in vertex id order."""
    return [(c, coset) for c, part in enumerate(gg.partitions) for coset in part]


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_built_stats_equal_predicted(name):
    group, seq, gg = cat.fixture(name)
    stats = predicted_stats(group, seq)
    sizes = tuple(len(part) for part in gg.partitions)
    assert sizes == stats.class_vertex_counts
    assert gg.vertex_count == stats.vertex_count
    assert total_multiplicity(gg) == stats.edge_multiplicity_total
    degrees = gg.to_multigraph().weighted_degrees()
    for c, cls in enumerate(gg.natural_partition()):
        assert {degrees[v] for v in cls} == {stats.class_degrees[c]}


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_no_intra_class_edges_and_multiplicities(name):
    _, _, gg = cat.fixture(name)
    of = vertex_cosets(gg)
    for u, v, m in gg.edges:
        assert u < v
        assert of[u][0] != of[v][0]
        overlap = set(of[u][1].elements) & set(of[v][1].elements)
        assert len(overlap) == m >= 1


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_each_element_in_one_coset_per_class(name):
    group, _, gg = cat.fixture(name)
    for part in gg.partitions:
        union = sorted(e for coset in part for e in coset.elements)
        assert union == list(range(group.order))


def test_s3_transpositions_example():
    _, _, gg = cat.fixture("sym3_all_transpositions")
    assert gg.vertex_count == 9
    assert total_multiplicity(gg) == 18
    assert set(gg.to_multigraph().weighted_degrees()) == {4}


def test_s4_two_generator_example():
    _, _, gg = cat.fixture("sym4_12_tailcycle")
    assert tuple(len(p) for p in gg.partitions) == (12, 8)
    degrees = gg.to_multigraph().weighted_degrees()
    assert {degrees[v] for v in gg.natural_partition()[0]} == {2}
    assert {degrees[v] for v in gg.natural_partition()[1]} == {3}
    assert total_multiplicity(gg) == 24


def test_quaternion_double_edges():
    _, _, gg = cat.fixture("quaternion_ab")
    assert tuple(len(p) for p in gg.partitions) == (2, 2)
    assert sorted(m for _, _, m in gg.edges) == [2, 2, 2, 2]


def test_trivial_group_multiset_gives_complete_graph():
    _, _, gg = cat.fixture("trivial4")
    assert gg.k == 4
    assert gg.vertex_count == 4
    assert sorted(m for _, _, m in gg.edges) == [1] * 6


def test_repeated_generators_join_coset_copies():
    # the same element at two positions duplicates each coset into two
    # classes joined with multiplicity equal to its order
    z6 = make_cyclic(6)
    two = z6.index_of_label("2")
    three = z6.index_of_label("3")
    gg = build_ggraph(z6, [two, two, three])
    copies = gg.natural_partition()
    mult = {(u, v): m for u, v, m in gg.edges}
    of = vertex_cosets(gg)
    for u in copies[0]:
        partner = [v for v in copies[1] if of[v][1] == of[u][1]]
        assert len(partner) == 1
        a, b = min(u, partner[0]), max(u, partner[0])
        assert mult[(a, b)] == 3


def test_predicted_s5_transpositions():
    group, seq, _ = cat.fixture("sym5_all_transpositions")
    stats = predicted_stats(group, seq)
    assert stats.vertex_count == 600
    assert set(stats.class_degrees) == {18}


def test_predicted_alternating_consecutive():
    group, seq, _ = cat.fixture("alt4_consecutive3")
    stats = predicted_stats(group, seq)
    assert stats.vertex_count == 8
    assert set(stats.class_degrees) == {3}


def test_single_generator_graph_is_a_vertex():
    z6 = make_cyclic(6)
    gg = build_ggraph(z6, [z6.index_of_label("1")])
    assert gg.vertex_count == 1
    assert gg.edges == ()


def test_non_generating_sequence_rejected():
    s4 = make_symmetric(4)
    with pytest.raises(NotAGeneratingSetError):
        build_ggraph(s4, [s4.index_of_label("(12)")])


def test_rebuild_is_byte_identical():
    for name in ("sym3_all_transpositions", "sd16_ab", "klein_ab_ab"):
        group, seq, _ = cat.fixture(name)
        first = dumps(document_from_ggraph(build_ggraph(group, seq), list(group.labels)))
        second = dumps(document_from_ggraph(build_ggraph(group, seq), list(group.labels)))
        assert first == second
