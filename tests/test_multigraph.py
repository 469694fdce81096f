"""The graph core: adjacency, the one breadth-first search, and the exact
canonical certificates of the catalog and fixture graphs."""

import hashlib
from pathlib import Path

import pytest

import fixture_catalog as cat
from ggraphs import InvalidParameterError, InvalidPartitionError, TooLargeError, canonical_form
from ggraphs.analysis import analyze
from ggraphs.io import read_edge_list
from ggraphs.multigraph import Multigraph, cycle_graph, path_graph

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_adjacency_is_symmetric_with_multiplicities():
    g = Multigraph(4, edges=[(0, 1, 2), (2, 1, 1), (0, 1, 1), (3, 0, 5)])
    adj = g.adjacency()
    assert adj == [{1: 3, 3: 5}, {0: 3, 2: 1}, {1: 1}, {0: 5}]
    for u, row in enumerate(adj):
        for v, m in row.items():
            assert adj[v][u] == m == g.edges[min(u, v), max(u, v)]


def test_adjacency_follows_direct_edge_writes():
    g = path_graph(3)
    g.edges[(0, 2)] = 4
    assert g.adjacency()[2] == {1: 1, 0: 4}


def test_empty_graph_is_connected_and_bipartite():
    g = Multigraph(0)
    assert g.traverse() == (([], []), 0)


def test_single_vertex():
    g = Multigraph(1)
    assert g.traverse() == (([0], []), 1)


@pytest.mark.parametrize(
    "classes, message",
    [
        ([[0], [1]], "cover every vertex exactly once"),
        ([[0, 1], [1, 2]], "cover every vertex exactly once"),
        ([[0, 1, 2], []], "empty class"),
        ([[0], [1], [2], [3]], "cover every vertex exactly once"),
    ],
    ids=["misses-a-vertex", "vertex-in-two-classes", "empty-class", "past-the-last-vertex"],
)
def test_stored_partition_must_cover_every_vertex_once(classes, message):
    # analyze, the k-partite check and document_from_multigraph all read the
    # stored partition, so a graph is never built with a malformed one
    with pytest.raises(InvalidPartitionError, match=message):
        Multigraph(3, classes, [(0, 2, 1)])


@pytest.mark.parametrize(
    "n, edges",
    [(2, [(0, 1, 2.5)]), (3.0, []), (2, [(False, True, 1)]), (2, [(0, 1, True)])],
    ids=["float-multiplicity", "float-vertex-count", "bool-ids", "bool-multiplicity"],
)
def test_multigraph_holds_only_ints(n, edges):
    # a 2.5-fold edge gave analyze degrees (2.5, 2.5) and a document that
    # loads refuses
    with pytest.raises(InvalidParameterError, match="int"):
        Multigraph(n, None, edges)


def test_odd_cycle_in_second_component_is_not_bipartite():
    # component {0, 1} is an edge; component {2, 3, 4} is a triangle
    g = Multigraph(5, edges=[(0, 1, 1), (2, 3, 1), (3, 4, 1), (2, 4, 2)])
    assert g.traverse() == (None, 2)


def test_disconnected_bipartite_sides_start_at_lowest_vertex():
    # components {0, 3, 5} (a path 3-0-5) and {1, 2, 4} (a path 1-4-2)
    g = Multigraph(6, edges=[(3, 0, 1), (0, 5, 2), (4, 1, 1), (2, 4, 1)])
    assert g.traverse() == (([0, 1, 2], [3, 4, 5]), 2)


def test_even_cycle_sides_alternate():
    assert cycle_graph(6).traverse() == (([0, 2, 4], [1, 3, 5]), 1)
    assert cycle_graph(5).traverse() == (None, 1)


def test_analyze_builds_the_adjacency_once(monkeypatch):
    calls = []
    original = Multigraph.adjacency

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Multigraph, "adjacency", counted)
    report = analyze(cat.ggraph_of("dihedral10_rs"))
    assert report.connected and report.bipartite
    assert len(calls) == 1


# sha256 of the certificate "n=<n>;m=<edge units>;u,v,m;..." written from
# canonical_form(g).edges; None: above the canonical-form bound
CERTIFICATE_SHA256 = {
    "alt4_12i": '91a4d99763d1615d53ef211d0c77e4b12c988743c097c2edf59f64463e9ed63c',  # 8
    "alt4_consecutive3": '91a4d99763d1615d53ef211d0c77e4b12c988743c097c2edf59f64463e9ed63c',  # 8
    "alt4_two_element": '91a4d99763d1615d53ef211d0c77e4b12c988743c097c2edf59f64463e9ed63c',  # 8
    "alt5_12i": 'b47e70b5e02ce73faf28bef5e3f31cd083ab06f9e8d4f8e64f27edb64297122d',  # 60
    "alt5_consecutive3": '1647ce30e5b5cfdd046d13ba52c7be38551ac8e66b1498cf1e3fec5da6e67f88',  # 60
    "alt5_two_element": 'cca509326ff8f81006902057b535c2e29add7ac920a24b7758a30b5ec71bef4b',  # 32
    "dihedral10_rs": '1ca733bce21dc9982b38464545f9599edc659ebd1c0ed3dfef3abd48f84a754b',  # 7
    "dihedral10_st": 'b7f7e8a9c85ecd104fccda313a355fb18ae9d5189c7d387853b2b58a24e4af3c',  # 10
    "dihedral16_rs": '03f583bbf67fb0f26f1d09a7bb0d79172e692911e22c77a39634e50d14e102b4',  # 10
    "dihedral16_st": 'c5bd3963982a3a33f6abe34d73f79160bf21d8cd0ddb5a9d7982c4e2f211fad9',  # 16
    "dihedral6_rs": '5442965be2d3aa62ee48fe81f17df3b831b279d4d68e165549853dd16925912f',  # 5
    "dihedral6_st": '9cdfb006bbd6e06e20355a0db663e97e72bfb1b568354db69359f67d30aa1da5',  # 6
    "dihedral8_rs": 'c5b07f29281a43d5f9c297604d6002a2ce6c308e3140fbc1f11b1856f6353933',  # 6
    "dihedral8_st": 'd02850b0d49f6ea101b3c95ab094a3bc8d40d4bfa820d7669c56062857dd9bef',  # 8
    "genq3_ab": 'edae8618599d91a9354b1dd6937d18032722bef8be6b3e296633f95ef2ecdf15',  # 5
    "klein_ab": 'bd7c8fe086caed4439c9d042ebadec0c82ca4f9c2510e6796641ebd112118cce',  # 4
    "klein_ab_ab": '2d287837a054e8833a66f9647b950217d24c9753673954dd0809a6721cfdc1f1',  # 6
    "quaternion_ab": '18c6d9bb59860313b0c53fd8dd62a7e50c5764c084ecdfcdc54eea31e1396a2f',  # 4
    "sd16_ab": '03f583bbf67fb0f26f1d09a7bb0d79172e692911e22c77a39634e50d14e102b4',  # 10
    "sd8_ab": 'c5b07f29281a43d5f9c297604d6002a2ce6c308e3140fbc1f11b1856f6353933',  # 6
    "sym3_12_fullcycle": '5442965be2d3aa62ee48fe81f17df3b831b279d4d68e165549853dd16925912f',  # 5
    "sym3_12_tailcycle": '9cdfb006bbd6e06e20355a0db663e97e72bfb1b568354db69359f67d30aa1da5',  # 6
    "sym3_all_transpositions": '3bcee131ca94ba4130a98ea671e601ff22fe4a7baf9e1b3b424d0222b9a9fb21',  # 9
    "sym3_consecutive": '9cdfb006bbd6e06e20355a0db663e97e72bfb1b568354db69359f67d30aa1da5',  # 6
    "sym4_12_fullcycle": '5c7e6baca344ec1e6c318d4afa0a5bf9e1c025f7785db8a9aa7d953ffffc6c2d',  # 18
    "sym4_12_tailcycle": '92ed0f931183e7db8c8e7581d87ba29082bca5f61a6521279ee882d641febd76',  # 20
    "sym4_all_transpositions": None,  # 72
    "sym4_consecutive": 'ca03506f7445ded921d2ad7e6660907bf9cfc903b0c2102661e0f7e990b7d4a8',  # 36
    "sym5_12_fullcycle": None,  # 84
    "sym5_12_tailcycle": None,  # 90
    "sym5_all_transpositions": None,  # 600
    "sym5_consecutive": None,  # 240
    "trivial3": '77da7fa963957a288f8770a749b6f84bcd1c098a524038335cb308bf081d0b51',  # 3
    "trivial4": '0935f33dff7964e1ef3622c12244786182640e6a91db809dfc0036b83dd99963',  # 4
    "trivial5": '23204907b260123460d43f93061565d30264bfb326e8d7270f3ea9af4a0f5db1',  # 5
    "z3z3_s1": '2ab09adb0c5dc774e4479dd62676958ea91d88c93512e25b442d824cd781293f',  # 6
    "z3z3_s2": '2ab09adb0c5dc774e4479dd62676958ea91d88c93512e25b442d824cd781293f',  # 6
    "z3z3_s3": '2ab09adb0c5dc774e4479dd62676958ea91d88c93512e25b442d824cd781293f',  # 6
    "z6_23": '5442965be2d3aa62ee48fe81f17df3b831b279d4d68e165549853dd16925912f',  # 5
    "z6_34": '5442965be2d3aa62ee48fe81f17df3b831b279d4d68e165549853dd16925912f',  # 5
    "cube.edges": '91a4d99763d1615d53ef211d0c77e4b12c988743c097c2edf59f64463e9ed63c',  # 8
    "dodecahedron.edges": 'cd7fb499f7d8695f92899d15bf7cede336bcce9c4d406b6a41c4bdc6d52b0c9a',  # 20
    "icosahedron.edges": '122336dd1bc3e9746ad8a84567062e40c72ea7d40c81ed502bfda13f4aa4ff0c',  # 12
    "k25.edges": '1ca733bce21dc9982b38464545f9599edc659ebd1c0ed3dfef3abd48f84a754b',  # 7
    "octahedron.edges": '2d287837a054e8833a66f9647b950217d24c9753673954dd0809a6721cfdc1f1',  # 6
    "path4.edges": '5ed47817a5b9283327810ec93b0c8d845d80f44fd983130fcfa0972103b69a07',  # 4
    "rhombic_dodecahedron.edges": '67880b3a8632bfae6db96acd854d0dd0584b24cd4e49d345532df3e032917673',  # 14
    "star4.edges": 'be4bb9f35658e05805765354384e709457037751740a7dea5e22c465e2f59a4b',  # 5
    "turan_13_4.edges": '4b9d9ef2e3564a690af34f09e49c2e5269423c62768e228711111635900b4726',  # 13
}


def _graph(name):
    if name.endswith(".edges"):
        return read_edge_list(FIXDIR / name)
    return cat.ggraph_of(name)


def test_pins_cover_the_catalog_and_every_fixture():
    fixtures = {p.name for p in FIXDIR.glob("*.edges")}
    assert set(CERTIFICATE_SHA256) == set(cat.CATALOG_NAMES) | fixtures


@pytest.mark.parametrize("name", sorted(CERTIFICATE_SHA256))
def test_canonical_certificate_is_pinned(name):
    graph = _graph(name)
    want = CERTIFICATE_SHA256[name]
    if want is None:
        with pytest.raises(TooLargeError):
            canonical_form(graph)
        return
    form = canonical_form(graph)
    cert = f"n={form.n};m={sum(m for _, _, m in form.edges)};" + ";".join(
        f"{u},{v},{m}" for u, v, m in form.edges
    )
    assert hashlib.sha256(cert.encode()).hexdigest() == want
