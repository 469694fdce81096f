"""Canonical JSON is exactly ``json.dumps(value, sort_keys=True, indent=2)``
plus a newline.

``io.dumps`` writes edge and vertex records itself, so every test here holds
it to the stdlib encoding: on arbitrary documents (a Hypothesis property), on
every catalog graph, fixture and an SL2(Z) ball, and on three pinned digests
that fix the bytes even if a later Python changes its encoder.
"""

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

import pytest

import fixture_catalog as cat
from ggraphs import build_ggraph, make_gen_sequence, make_symmetric, sl2z_ball
from ggraphs.io import (
    _BLOCK,
    _BULK_EDGES,
    _BULK_VERTICES,
    GraphDocument,
    document_from_ball,
    document_from_ggraph,
    document_from_multigraph,
    dumps,
    read_edge_list,
)
from ggraphs.multigraph import turan_graph

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # Hypothesis is optional; without it the property test is left out
    st = None

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"


def _stdlib(value) -> str:
    if isinstance(value, GraphDocument):
        value = value.to_dict()
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", cat.CATALOG_NAMES)
def test_catalog_documents_match_the_stdlib(name):
    group, _, gg = cat.fixture(name)
    for labels in (list(group.labels), None):
        doc = document_from_ggraph(gg, labels, name)
        assert dumps(doc) == _stdlib(doc)


@pytest.mark.parametrize("path", sorted(FIXDIR.glob("*.edges")), ids=lambda p: p.stem)
def test_fixture_documents_match_the_stdlib(path):
    doc = document_from_multigraph(read_edge_list(path))
    assert dumps(doc) == _stdlib(doc)


def test_ball_document_matches_the_stdlib():
    doc = document_from_ball(sl2z_ball(4))
    assert dumps(doc) == _stdlib(doc)


def _s4_document():
    g = make_symmetric(4)
    seq = make_gen_sequence(g, [g.index_of_label(x) for x in ("(12)", "(23)", "(34)")])
    return document_from_ggraph(build_ggraph(g, seq), list(g.labels), "sym:4")


# sha256 of the stdlib encoding (Python 3.11), taken before io.dumps wrote
# records itself.
PINS = {
    "ggraph": (_s4_document, "1c5aaab9ed5c0efac2149ab3020362ed73aa9ff89d6d029717143fb71ed1cab0"),
    "ball": (lambda: document_from_ball(sl2z_ball(3)),
             "6ebc90f4bcb850ce9509fd4d9a629864f193a3178e7125a33981d617e859e64b"),
    "plain": (lambda: document_from_multigraph(turan_graph(7, 3)),
              "9243981bf8fede365dffcc17f21fb3cf54875893ca5a4c15520a2f6becc2fb99"),
}


@pytest.mark.parametrize("kind", sorted(PINS))
def test_pinned_bytes(kind):
    make, digest = PINS[kind]
    doc = make()
    assert doc.kind == kind
    assert hashlib.sha256(dumps(doc).encode("utf-8")).hexdigest() == digest


if st is not None:
    # mostly ints, so most records take the template; the rest fall back
    numbers = st.one_of(
        st.integers(0, 50), st.integers(0, 50), st.integers(-(2**70), 2**70),
        st.booleans(), st.floats(),
    )
    # non-ASCII, control characters, quotes, backslashes and a lone surrogate
    special = st.sampled_from('\n\t"\\\x00\x7fé€\U0001f600\ud800')
    text = st.text(st.one_of(st.characters(), special), max_size=6)
    scalars = st.one_of(st.none(), numbers, text)
    values = st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(text, children, max_size=3),
            # one key type per dict: the stdlib cannot sort mixed keys
            st.dictionaries(st.integers(-3, 3), children, max_size=3),
            st.dictionaries(st.floats(), children, max_size=2),
        ),
        max_leaves=8,
    )
    extra = {"extra": values}
    # a document holds (u, v, m) triples; bools, floats and huge ints fall back
    edges = st.tuples(numbers, numbers, numbers)
    # records shaped like edges, and any other, in a plain value
    records = st.one_of(
        st.fixed_dictionaries({"u": numbers, "v": numbers, "multiplicity": numbers}),
        st.fixed_dictionaries(
            {"u": numbers, "v": numbers, "multiplicity": numbers}, optional=extra
        ),
        values,
    )
    labels = st.one_of(
        st.none(),
        st.lists(text, max_size=4),
        st.lists(scalars, max_size=3),
    )
    vertices = st.one_of(
        st.fixed_dictionaries({"id": numbers, "coset_labels": labels}),
        st.fixed_dictionaries(
            {"id": numbers, "coset_labels": labels},
            optional={"interior": st.one_of(st.booleans(), scalars), **extra},
        ),
        values,
    )
    partitions = st.one_of(
        st.fixed_dictionaries(
            {
                "label": st.one_of(st.none(), text),
                "gen_order": st.one_of(st.none(), numbers),
                "vertices": st.lists(vertices, max_size=4),
            },
            optional=extra,
        ),
        values,
    )
    documents = st.builds(
        GraphDocument,
        kind=st.sampled_from(["ggraph", "plain", "ball"]) | text,
        partitions=st.lists(partitions, max_size=3),
        edges=st.lists(edges, max_size=5),
        metadata=values,
    )

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(documents, documents, values, st.lists(records, max_size=5)))
    def test_dumps_matches_the_stdlib(value):
        assert dumps(value) == _stdlib(value)

    # lengths at both ends of the per-record writers and of one and two blocks
    lengths = st.sampled_from([
        1, _BULK_VERTICES - 1, _BULK_VERTICES, _BULK_EDGES - 1, _BULK_EDGES,
        _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
    ]) | st.integers(1, 2 * _BLOCK + 76)

    # one record that sends a class to the per-record writer, or (a huge id)
    # that the templates write too
    odd_vertices = st.sampled_from([
        lambda r: {**r, "id": True},
        lambda r: {**r, "id": 2**70},
        lambda r: {**r, "coset_labels": r["coset_labels"][:-1] + [7]},
        lambda r: {**r, "coset_labels": r["coset_labels"] + ["x"]},
        lambda r: {**r, "interior": False},
        lambda r: OrderedDict(r),
    ])

    @st.composite
    def coset_classes(draw):
        """One class of a coset graph's vertex records: an int id and k str
        labels each; in a drawn minority, one odd record."""
        k = draw(st.integers(1, 4))
        pool = draw(st.lists(text, min_size=1, max_size=6))
        first = draw(st.integers(0, 2**40))
        records = [
            {"id": first + i, "coset_labels": [pool[(i + j) % len(pool)] for j in range(k)]}
            for i in range(draw(lengths))
        ]
        if draw(st.integers(0, 2)) == 0:
            at = draw(st.integers(0, len(records) - 1))
            records[at] = draw(odd_vertices)(records[at])
        return records

    @st.composite
    def edge_lists(draw):
        """Int edge triples; in a drawn minority, one value that is not an int."""
        triples = [(i, i + 1 + i % 7, 1 + i % 3) for i in range(draw(lengths))]
        if draw(st.integers(0, 2)) == 0:
            at = draw(st.integers(0, len(triples) - 1))
            odd = list(triples[at])
            odd[draw(st.integers(0, 2))] = draw(st.one_of(st.booleans(), st.floats(), text))
            triples[at] = tuple(odd)
        return triples

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(coset_classes(), edge_lists())
    def test_dumps_writes_long_lists_as_the_stdlib(vertices, edges):
        doc = GraphDocument(
            "ggraph", [{"label": "a", "gen_order": 2, "vertices": vertices}], edges
        )
        assert dumps(vertices) == _stdlib(vertices)
        assert dumps(doc) == _stdlib(doc)
