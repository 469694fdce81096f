import json
import time
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import pytest

import fixture_catalog as cat
from ggraphs import (
    InvalidInputError, InvalidPartitionError, SizeLimitError, affine_ball, sl2z_ball,
)
from ggraphs.cli import main
from ggraphs.io import (
    GraphDocument,
    _vertex_ids,
    _vertex_ids_by_record,
    document_from_ball,
    document_from_ggraph,
    document_from_multigraph,
    dumps,
    format_edge_list,
    loads,
    parse_edge_list,
    to_dot,
)
from ggraphs.multigraph import (
    MULTIPLICITY_LIMIT,
    VERTEX_LIMIT,
    Multigraph,
    complete_bipartite,
    turan_graph,
)
from ggraphs.spectral import DIMENSION_LIMIT, adjacency_from_multigraph

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_json_round_trip_identity(name):
    group, _, gg = cat.fixture(name)
    doc = document_from_ggraph(gg, list(group.labels))
    text = dumps(doc)
    again = dumps(loads(text))
    assert text == again
    assert loads(text).to_dict() == doc.to_dict()


def test_ball_document_round_trip():
    for ball in (sl2z_ball(1), affine_ball(2)):
        doc = document_from_ball(ball)
        assert dumps(loads(dumps(doc))) == dumps(doc)
        interior_flags = [
            v["interior"] for part in doc.partitions for v in part["vertices"]
        ]
        assert len(interior_flags) == ball.vertex_count


def test_plain_document_round_trip():
    doc = document_from_multigraph(turan_graph(7, 3))
    assert dumps(loads(dumps(doc))) == dumps(doc)


def test_ggraph_document_shares_the_view_triples():
    group, _, gg = cat.fixture("sym4_all_transpositions")
    doc = document_from_ggraph(gg, list(group.labels))
    assert len(doc.edges) == len(gg.edges)
    assert all(doc.edges[i] is gg.edges[i] for i in range(len(gg.edges)))
    back = loads(dumps(doc))
    assert back.edges == list(gg.edges)
    assert all(type(e) is tuple for e in back.edges)


def _records(triples):
    return [{"u": u, "v": v, "multiplicity": m} for u, v, m in triples]


def test_to_dict_renders_edge_records():
    _, _, gg = cat.fixture("sym4_all_transpositions")
    ball = sl2z_ball(2)
    mg = turan_graph(7, 3)
    cases = (
        (document_from_ggraph(gg), list(gg.edges)),
        (document_from_ball(ball), list(ball.edges)),
        (document_from_multigraph(mg), [(u, v, m) for (u, v), m in sorted(mg.edges.items())]),
    )
    for doc, triples in cases:
        assert doc.edges == triples
        assert doc.to_dict()["edges"] == _records(triples)
        assert json.loads(dumps(doc))["edges"] == _records(triples)


VIEW_CASES = (
    [("ggraph", name) for name in cat.CATALOG_NAMES]
    + [("sl2z", r) for r in (0, 1, 3)]
    + [("affine", r) for r in (0, 2, 7)]
    + [("plain", (7, 3))]
)


def _view_and_document(kind, arg):
    if kind == "ggraph":
        group, _, gg = cat.fixture(arg)
        return gg, document_from_ggraph(gg, list(group.labels))
    if kind in ("sl2z", "affine"):
        ball = sl2z_ball(arg) if kind == "sl2z" else affine_ball(arg)
        return ball, document_from_ball(ball)
    mg = turan_graph(*arg)
    return mg, document_from_multigraph(mg)


@pytest.mark.parametrize("kind, arg", VIEW_CASES)
def test_views_documents_and_core_carry_one_graph(kind, arg):
    view, doc = _view_and_document(kind, arg)
    core = view.to_multigraph()
    if kind != "plain":  # a Multigraph is its own core
        assert core.edges == {(u, v): m for u, v, m in view.edges}
    back = loads(dumps(doc)).to_multigraph()
    assert back.n == core.n
    assert back.edges == core.edges
    assert back.classes == core.classes


def test_document_rejects_bad_schema():
    with pytest.raises(InvalidInputError):
        loads(json.dumps({"schema_version": "2", "kind": "plain"}))


def test_dot_line_count_matches_multiplicity():
    group, _, gg = cat.fixture("quaternion_ab")
    doc = document_from_ggraph(gg, list(group.labels))
    dot = to_dot(doc)
    assert dot.count(" -- ") == 8  # 4 pairs, multiplicity 2 each
    assert dot.count("fillcolor") == gg.vertex_count


def test_dot_single_vertex():

    doc = document_from_multigraph(Multigraph(1))
    dot = to_dot(doc)
    assert "v0" in dot and "--" not in dot


def test_edge_list_round_trip():
    g = complete_bipartite(2, 5)
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert back.edges == g.edges
    assert back.classes == g.classes


def test_partition_headers_must_cover_every_vertex_once(tmp_path, capsys):
    for headers in ("partition: 0\npartition: 1\n", "partition: 0 1\npartition: 1 2\n"):
        path = tmp_path / "p.edges"
        path.write_text("0 2\n" + headers, encoding="utf-8")
        for command in ("analyze", "characterize"):
            assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.count(
        "error: partition must cover every vertex exactly once\n") == 4


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n1 x\n", "line 2: 'x' is not a vertex id"),
        ("partition: 0 a\n0 1\n", "line 1: 'a' is not a vertex id"),
        ("-1 2\n", "line 1: '-1' is not a vertex id"),
        ("1 2 0\n", "line 1: '0' is not a multiplicity"),
    ],
    ids=["letter", "partition_letter", "negative", "zero_multiplicity"],
)
def test_edge_list_names_the_line_and_token(tmp_path, capsys, text, message):
    # these exited 2 with a message that named no line: int()'s own, or the
    # multigraph's "edge (-1,2) out of range" and "multiplicity must be >= 1"
    with pytest.raises(InvalidInputError) as info:
        parse_edge_list(text)
    assert str(info.value) == message
    path = tmp_path / "bad.edges"
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_edge_list_parsing_features():
    g = parse_edge_list("# a comment\n0 1 3\n1 2\npartition: 0 2\npartition: 1\n")
    assert g.edges == {(0, 1): 3, (1, 2): 1}
    assert g.classes == [[0, 2], [1]]
    with pytest.raises(InvalidInputError):
        parse_edge_list("0 0\n")
    with pytest.raises(InvalidPartitionError, match="cover every vertex exactly once"):
        parse_edge_list("0 1\npartition: 0\n")  # does not cover vertex 1


# -- CLI ----------------------------------------------------------------------


def test_cli_build_writes_document(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["build", "--group", "sym:3",
                 "--gens", "(1 2),(1 3),(2 3)", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "vertices: 9" in stdout
    assert "18" in stdout
    doc = loads(out.read_text(encoding="utf-8"))
    assert doc.kind == "ggraph"
    assert doc.vertex_count() == 9


def test_cli_build_semidihedral(capsys):
    assert main(["build", "--group", "semidihedral:2", "--gens", "a,b"]) == 0
    stdout = capsys.readouterr().out
    assert "vertices: 10" in stdout


def test_cli_build_trivial_multiset(capsys):
    assert main(["build", "--group", "trivial", "--gens", "e,e,e,e"]) == 0
    stdout = capsys.readouterr().out
    assert "vertices: 4" in stdout
    assert "edge multiplicity: 6" in stdout


def test_cli_exit_codes(tmp_path, capsys):
    # bad group spec
    assert main(["build", "--group", "nope:1", "--gens", "a"]) == 2
    # non-generating set
    assert main(["build", "--group", "cyclic:6", "--gens", "2"]) == 3
    # refusal and undetermined verdicts
    assert main(["characterize", str(FIXDIR / "icosahedron.edges")]) == 4
    capsys.readouterr()
    big = tmp_path / "big.edges"
    lines = [f"{i} {i + 1}" for i in range(70)]
    big.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["characterize", str(big)]) == 5
    # parse failure
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2


def test_cli_characterize_accepts_cube(capsys):
    code = main(["characterize", str(FIXDIR / "cube.edges")])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "group order: 12" in stdout
    assert "[3, 3]" in stdout


def test_cli_characterize_explicit_partition(capsys):
    code = main([
        "characterize", str(FIXDIR / "octahedron.edges"),
        "--partition", "0 1; 2 3; 4 5",
    ])
    assert code == 0
    assert "group order: 4" in capsys.readouterr().out


@pytest.mark.parametrize(
    "partition, token",
    [("a b", "a"), ("0 1; 2 x; 4 5", "x"), ("0,1;2,3;4,5.0", "5.0")],
    ids=["letters", "one_bad_token", "float"],
)
def test_cli_partition_names_the_token_that_is_no_vertex_id(capsys, partition, token):
    # this exited 2 with int()'s own message, "invalid literal for int() ..."
    code = main([
        "characterize", str(FIXDIR / "octahedron.edges"), "--partition", partition,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"error: --partition: {token!r} is not a vertex id\n"


def test_cli_spectrum_octahedron(capsys):
    assert main(["spectrum", str(FIXDIR / "octahedron.edges")]) == 0
    payload = json.loads(capsys.readouterr().out)
    eig = [(e["value"], e["multiplicity"]) for e in payload["eigenvalues"]]
    assert eig == [("4.000000", 1), ("0.000000", 3), ("-2.000000", 2)]


def test_cli_infinite_ball(tmp_path, capsys):
    out = tmp_path / "ball.json"
    assert main(["infinite", "--group", "sl2z", "--radius", "2",
                 "--out", str(out)]) == 0
    doc = loads(out.read_text(encoding="utf-8"))
    assert doc.kind == "ball"
    interior = [
        v for part in doc.partitions for v in part["vertices"] if v["interior"]
    ]
    mg = doc.to_multigraph()
    degrees = mg.weighted_degrees()
    for v in interior:
        assert degrees[v["id"]] in (4, 6)


def test_cli_build_perm_group_and_dot(tmp_path, capsys):
    # Z3 x Z3 as a permutation closure; its two-generator graph is K_{3,3}
    out = tmp_path / "z3z3.dot"
    code = main(["build", "--group", "perm:(123);(456)",
                 "--gens", "(123),(456)", "--out", str(out),
                 "--format", "dot"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "vertices: 6" in stdout
    dot = out.read_text(encoding="utf-8")
    assert dot.count(" -- ") == 9
    assert dot.count("fillcolor") == 6
    assert len({line.split("fillcolor=")[1] for line in dot.splitlines()
                if "fillcolor" in line}) == 2


@pytest.mark.parametrize(
    "gens,vertices",
    [
        # order 256 on 255 points, past a 64-bit key over its base points
        ([f"({i} {i + 1})" for i in range(1, 14, 2)] + ["(254 255)"], 1024),
        # S4 on {1, 2, 3, 23}: (1 2 3) and (1 23) must not share a label
        (["(1 2 3)", "(1 23)"], 20),
    ],
    ids=["order256", "point23"],
)
def test_cli_build_wide_permutation_group(capsys, gens, vertices):
    assert main(["build", "--group", "perm:" + ";".join(gens),
                 "--gens", ",".join(gens)]) == 0
    assert f"vertices: {vertices} (predicted {vertices})" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec, point",
    [("perm:(1 2)(2 1)", 2), ("perm:(1 2 3)(3 2 1)", 3), ("perm:(0 1)", 0)],
)
def test_cli_build_refuses_a_non_permutation(capsys, spec, point):
    assert main(["build", "--group", spec, "--gens", "(12)"]) == 2
    assert capsys.readouterr().err.startswith(f"error: point {point} ")


@pytest.mark.parametrize(
    "spec",
    [
        # Z_10001: one orbit of 10,001 points, past the closure cap
        "perm:(" + " ".join(map(str, range(1, 10_002))) + ")",
        # one point past the vertex bound sizes the ground set past it
        f"perm:(1 {VERTEX_LIMIT + 1})",
    ],
    ids=["long-orbit", "huge-point"],
)
def test_cli_build_refuses_a_costly_permutation_spec_quickly(capsys, spec):
    start = time.perf_counter()
    tracemalloc.start()
    try:
        assert main(["build", "--group", spec, "--gens", spec[len("perm:"):]]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 4 << 20
    assert capsys.readouterr().err.startswith("error:")


def test_cli_build_edges_format(tmp_path, capsys):
    out = tmp_path / "q.edges"
    assert main(["build", "--group", "genq:2", "--gens", "a,b",
                 "--out", str(out), "--format", "edges"]) == 0
    g = parse_edge_list(out.read_text(encoding="utf-8"))
    assert g.n == 4
    assert sorted(g.edges.values()) == [2, 2, 2, 2]


@pytest.mark.parametrize(
    "headers",
    [
        "partition: 0 2\npartition: 1\n",
        "partition: 0\npartition: 1 2\n",
        "partition: 0 1\npartition: 2\n",
    ],
    ids=["noncontiguous", "contiguous-proper", "contiguous-improper"],
)
def test_cli_spectrum_with_noncontiguous_partition(tmp_path, capsys, headers):
    # the spectrum ignores partition headers, whatever they declare
    plain = tmp_path / "plain.edges"
    plain.write_text("0 1\n1 2\n", encoding="utf-8")
    assert main(["spectrum", str(plain)]) == 0
    expected = capsys.readouterr().out
    src = tmp_path / "p.edges"
    src.write_text("0 1\n1 2\n" + headers, encoding="utf-8")
    assert main(["spectrum", str(src)]) == 0
    assert capsys.readouterr().out == expected


def test_cli_export_dot(tmp_path, capsys):
    src = tmp_path / "g.json"
    out = tmp_path / "g.dot"
    main(["build", "--group", "klein", "--gens", "a,b,ab", "--out", str(src)])
    assert main(["export-dot", str(src), "--out", str(out)]) == 0
    dot = out.read_text(encoding="utf-8")
    assert dot.count(" -- ") == 12


@pytest.mark.parametrize(
    "fixture,expected_n",
    [
        ("icosahedron", 12),
        ("dodecahedron", 20),
        ("cube", 8),
        ("octahedron", 6),
        ("rhombic_dodecahedron", 14),
        ("turan_13_4", 13),
    ],
)
def test_shipped_fixture_files_match_generators(fixture, expected_n):
    from ggraphs import are_isomorphic
    from ggraphs.multigraph import (
        cube_graph,
        dodecahedron_graph,
        icosahedron_graph,
        octahedron_graph,
        rhombic_dodecahedron_graph,
    )

    makers = {
        "icosahedron": icosahedron_graph,
        "dodecahedron": dodecahedron_graph,
        "cube": cube_graph,
        "octahedron": octahedron_graph,
        "rhombic_dodecahedron": rhombic_dodecahedron_graph,
        "turan_13_4": lambda: turan_graph(13, 4),
    }
    from ggraphs.io import read_edge_list

    loaded = read_edge_list(FIXDIR / f"{fixture}.edges")
    assert loaded.n == expected_n
    assert are_isomorphic(loaded, makers[fixture]())


_ONE_EDGE = {
    "schema_version": "1",
    "kind": "plain",
    "partitions": [{"vertices": [{"id": 0}, {"id": 1}]}],
    "edges": [{"u": 0, "v": 1, "multiplicity": 1}],
}


def _with(path, value):
    """_ONE_EDGE with the field at ``path`` (a tuple of keys) replaced."""
    doc = json.loads(json.dumps(_ONE_EDGE))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        {"schema_version": "1", "kind": "plain"},
        _with(("edges", 0, "multiplicity"), "2"),
        _with(("edges", 0, "multiplicity"), True),
        _with(("edges", 0, "u"), 0.0),
        _with(("edges", 0), [0, 1, 1]),
        _with(("edges",), {"u": 0}),
        _with(("partitions",), "01"),
        _with(("partitions", 0), [0, 1]),
        _with(("partitions", 0, "vertices"), None),
        _with(("partitions", 0, "vertices", 1), 1),
        _with(("partitions", 0, "vertices", 1, "id"), True),
        _with(("partitions", 0, "vertices", 1, "coset_labels"), [1, 2]),
        # two partitions are the graph's classes, and a class is never empty
        _with(("partitions",), [{"vertices": [{"id": 0}, {"id": 1}]}, {"vertices": []}]),
    ],
)
def test_cli_rejects_malformed_documents(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("analyze", "characterize"):
        assert main([command, str(path)]) == 2
    assert main(["export-dot", str(path), "--out", str(tmp_path / "x.dot")]) == 2
    assert "error:" in capsys.readouterr().err


def test_document_must_be_an_object():
    for text in ("[1]", "3", '"plain"', "null"):
        with pytest.raises(InvalidInputError):
            loads(text)
    assert loads(json.dumps(_ONE_EDGE)).to_multigraph().edge_multiplicity_total() == 1


def test_dict_subclass_records_are_loaded():
    # as json.loads(text, object_pairs_hook=OrderedDict) gives them; such an
    # edge record passed every check and was then dropped
    data = json.loads(json.dumps(_ONE_EDGE), object_pairs_hook=OrderedDict)
    doc = GraphDocument.from_dict(data)
    assert doc.edges == [(0, 1, 1)]
    assert doc.to_multigraph().edge_multiplicity_total() == 1


class _Labels(list):
    pass


class _Label(str):
    pass


# one vertex record of a long class, replaced: each is refused or taken
ODD_VERTICES = {
    "bool id": lambda r: {**r, "id": True},
    "no id": lambda r: {"coset_labels": r["coset_labels"]},
    "str id": lambda r: {**r, "id": "70"},
    "huge id": lambda r: {**r, "id": 2**70},
    "int label": lambda r: {**r, "coset_labels": ["a", 1]},
    "str labels": lambda r: {**r, "coset_labels": "ab"},
    "tuple labels": lambda r: {**r, "coset_labels": ("a", "b")},
    "null labels": lambda r: {**r, "coset_labels": None},
    "no labels": lambda r: {"id": r["id"]},
    "empty labels": lambda r: {**r, "coset_labels": []},
    "list subclass": lambda r: {**r, "coset_labels": _Labels(["a", "b"])},
    "str subclass": lambda r: {**r, "coset_labels": [_Label("a")]},
    "dict subclass": OrderedDict,
    "list record": lambda r: [r["id"]],
}


@pytest.mark.parametrize("odd", ODD_VERTICES.values(), ids=ODD_VERTICES)
def test_a_long_class_loads_as_record_by_record(odd):
    # every class, a long one and one of one record, is checked at C speed
    # first, and must give what the record-by-record check gives: the same
    # ids or the same message
    for size in (100, 1):
        vertices = [{"id": i, "coset_labels": [f"x{i}", "y"]} for i in range(size)]
        vertices[size * 7 // 10] = odd(vertices[size * 7 // 10])
        outcomes = []
        for check in (_vertex_ids, _vertex_ids_by_record):
            try:
                outcomes.append(check(vertices))
            except InvalidInputError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], size


@pytest.mark.parametrize("metadata", [[], 5, None, "x"], ids=["list", "int", "null", "str"])
def test_metadata_must_be_an_object(tmp_path, capsys, metadata):
    # these passed every command with exit code 0; a missing field stays allowed
    doc = dict(_ONE_EDGE, metadata=metadata)
    with pytest.raises(InvalidInputError, match="'metadata' must be an object"):
        loads(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("analyze", "characterize", "spectrum"):
        assert main([command, str(path)]) == 2
    assert main(["export-dot", str(path), "--out", str(tmp_path / "x.dot")]) == 2
    assert not (tmp_path / "x.dot").exists()
    assert capsys.readouterr().err.count("error: document field 'metadata'") == 4


def test_cli_refuses_deeply_nested_json(tmp_path, capsys):
    # the decoder recurses once per level and raised RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert main(["export-dot", str(path), "--out", str(tmp_path / "deep.dot")]) == 2
    err = capsys.readouterr().err
    assert err == "error: JSON document is nested too deeply\n" * 2
    with pytest.raises(InvalidInputError, match="nested too deeply"):
        loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["analyze", "spectrum"])
def test_cli_refuses_a_huge_vertex_id_quickly(tmp_path, capsys, command):
    src = tmp_path / "big.edges"
    src.write_text("0 2000000\n", encoding="utf-8")
    start = time.perf_counter()
    assert main([command, str(src)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error:")


def test_cli_spectrum_checks_the_dimension_bound(tmp_path, capsys):
    src = tmp_path / "wide.edges"
    src.write_text(f"0 {DIMENSION_LIMIT}\n", encoding="utf-8")
    assert main(["spectrum", str(src)]) == 2
    assert f"dimension {DIMENSION_LIMIT + 1} exceeds" in capsys.readouterr().err


def test_adjacency_refuses_past_the_dimension_bound_without_allocating():
    mg = Multigraph(DIMENSION_LIMIT + 1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            adjacency_from_multigraph(mg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the int64 matrix alone would take 33 MB


def test_cli_spectrum_prints_an_unsigned_zero(capsys):
    assert main(["spectrum", str(FIXDIR / "k25.edges")]) == 0
    out = capsys.readouterr().out
    assert "-0.000000" not in out
    assert '"value": "0.000000"' in out


def test_edge_list_vertex_bound():
    assert parse_edge_list(f"0 {VERTEX_LIMIT - 1}\n").n == VERTEX_LIMIT
    with pytest.raises(SizeLimitError):
        parse_edge_list(f"0 {VERTEX_LIMIT}\n")
    with pytest.raises(SizeLimitError):
        parse_edge_list(f"partition: 0 {VERTEX_LIMIT}\n")


def test_cli_build_refuses_past_the_vertex_bound(capsys):
    # Z_10000 on ten 0s and a 1: 10 x 10000 singleton cosets of <0> plus the
    # one coset of <1>
    gens = ",".join(["0"] * 10 + ["1"])
    assert main(["build", "--group", "cyclic:10000", "--gens", gens]) == 2
    assert f"vertex count {VERTEX_LIMIT + 1} exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,message",
    [
        (["build", "--group", "cyclic:1000000", "--gens", "1"], "group order 1000000 exceeds"),
        # k = 15 classes of Z_10000: 105 x 10000 edge units
        (["build", "--group", "cyclic:10000", "--gens", ",".join(["1"] * 15)],
         "edge multiplicity 1050000 exceeds"),
        (["build", "--group", "cyclic:10000", "--gens", ",".join(["1"] * 60)],
         "edge multiplicity 17700000 exceeds"),
    ],
    ids=["cyclic_order", "multiplicity_15", "multiplicity_60"],
)
def test_cli_build_refuses_oversize_groups_quickly(capsys, command, message):
    start = time.perf_counter()
    assert main(command) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_cli_export_dot_refuses_past_the_multiplicity_bound(tmp_path, capsys):
    src = tmp_path / "heavy.edges"
    src.write_text("0 1 2000000\n", encoding="utf-8")
    out = tmp_path / "heavy.dot"
    start = time.perf_counter()
    assert main(["export-dot", str(src), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "edge multiplicity 2000000 exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_to_dot_bounds_the_summed_multiplicity():
    # each edge is within the bound, their sum is not
    heavy = Multigraph(3)
    heavy.add_edge(0, 1, MULTIPLICITY_LIMIT)
    heavy.add_edge(1, 2)
    with pytest.raises(SizeLimitError):
        to_dot(document_from_multigraph(heavy))


@pytest.mark.parametrize("gens", ["", ","], ids=["empty", "comma"])
def test_cli_build_with_no_generator_is_bad_input(capsys, gens):
    assert main(["build", "--group", "sym:3", "--gens", gens]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("option", ["--out", "--matrix-out"])
@pytest.mark.parametrize("target", ["directory", "missing_parent"])
def test_cli_spectrum_unwritable_output_is_bad_input(tmp_path, capsys, option, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "x"
    assert main(["spectrum", str(FIXDIR / "cube.edges"), option, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, total",
    [
        # the float eigensolver loses the zero trace on these
        ("0 1 5000000000\n1 2 5000000000\n", 10_000_000_000),
        # numpy cannot hold this one in an int64
        ("0 1 100000000000000000000\n1 2 1\n", 100_000_000_000_000_000_001),
    ],
    ids=["trace", "int64"],
)
def test_cli_spectrum_refuses_past_the_multiplicity_bound(tmp_path, capsys, text, total):
    src = tmp_path / "heavy.edges"
    src.write_text(text, encoding="utf-8")
    assert main(["spectrum", str(src)]) == 2
    assert capsys.readouterr().err == (
        f"error: edge multiplicity {total} exceeds {MULTIPLICITY_LIMIT}\n"
    )


def test_cli_spectrum_prints_and_writes_the_canonical_json(tmp_path, capsys):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", str(FIXDIR / "cube.edges"), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True) + "\n"
    assert out.read_text(encoding="utf-8") == printed
