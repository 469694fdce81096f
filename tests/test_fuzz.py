"""Hypothesis fuzz of the input layer: edge lists, JSON documents and argv.

The parsers may only raise GGraphError or ValueError, and ``main()`` may only
end with a documented exit code (0, 2, 3, 4, 5), with an ``error:`` line on
exit 2.  Vertex ids stay at most 10, so every search the CLI starts is small.
Hypothesis is not a declared dependency; without it this module is skipped.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ggraphs import GGraphError  # noqa: E402
from ggraphs.cli import main  # noqa: E402
from ggraphs.io import loads, parse_edge_list  # noqa: E402

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None)

ids = st.integers(-1, 10)
junk = st.one_of(st.none(), st.booleans(), st.floats(-2, 12), st.text(max_size=3),
                 st.lists(st.integers(0, 3), max_size=2))


def _line(parts):
    return " ".join(str(p) for p in parts)


edge_line = st.one_of(
    st.tuples(ids, ids).map(_line),
    st.tuples(ids, ids, st.integers(-1, 4)).map(_line),
    st.lists(ids, max_size=4).map(lambda vs: _line(["partition:", *vs])),
    st.text(alphabet="0123456789 -#:partion\t,.x", max_size=12),
)
edge_lists = st.lists(edge_line, max_size=12).map("\n".join)
# edge lists that always parse, so the commands get past reading their input
clean_edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(1, 10), st.integers(1, 3))
    .filter(lambda e: e[0] < e[1]).map(_line),
    min_size=1, max_size=12,
).map("\n".join)


@st.composite
def documents(draw):
    """JSON text of a graph document, mostly well formed, now and then mangled."""
    n = draw(st.integers(0, 8))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    labels = st.one_of(st.none(), st.lists(st.text(max_size=2), max_size=2), junk)
    partitions = [
        {"label": None, "gen_order": None,
         "vertices": [{"id": v, "coset_labels": draw(labels)} for v in order[a:b]]}
        for a, b in zip([0, *cuts], [*cuts, n])
    ]
    field = st.one_of(ids, junk) if draw(st.booleans()) else ids
    edges = draw(st.lists(
        st.fixed_dictionaries({"u": field, "v": field, "multiplicity": field}), max_size=10))
    doc = {
        "schema_version": draw(st.sampled_from(["1", "1", "1", "2", 1])),
        "kind": draw(st.sampled_from(["plain", "ggraph", "ball", "other"])),
        "partitions": partitions,
        "edges": edges,
        "metadata": draw(st.one_of(st.just({}), junk)),
    }
    mangled = draw(st.sampled_from([None, None, *doc]))
    if mangled is not None:
        if draw(st.booleans()):
            del doc[mangled]
        else:
            doc[mangled] = draw(junk)
    return json.dumps(doc)


graph_texts = st.one_of(clean_edge_lists, edge_lists, documents(), st.text(max_size=20))


@FUZZ
@given(edge_lists)
def test_parse_edge_list_raises_only_documented_errors(text):
    try:
        mg = parse_edge_list(text)
    except (GGraphError, ValueError):
        return
    assert mg.n <= 11


@FUZZ
@given(st.one_of(documents(), st.text(max_size=20)))
def test_loads_raises_only_documented_errors(text):
    try:
        doc = loads(text)
    except (GGraphError, ValueError):
        return
    doc.to_multigraph()


def _argv(draw, tmp):
    """A command line over files in ``tmp``, drawn to reach every subcommand."""
    graph = tmp / "graph.in"
    graph.write_text(draw(graph_texts), encoding="utf-8")
    source = draw(st.sampled_from([graph, graph, graph, tmp / "missing.in", tmp]))
    target = st.sampled_from([tmp / "out.txt", tmp, tmp / "missing" / "out.txt"])
    command = draw(st.sampled_from(
        ["build", "analyze", "characterize", "spectrum", "infinite", "export-dot"]))
    if command == "build":
        family = draw(st.sampled_from(
            ["cyclic", "sym", "alt", "dihedral", "genq", "semidihedral", "klein", "trivial",
             "perm", "nope"]))
        arg = draw(st.one_of(st.integers(-1, 5).map(str),
                             st.text(alphabet="()123456 ;,", max_size=12)))
        gens = draw(st.text(alphabet="(),123456 abrste", max_size=10))
        argv = ["build", "--group", f"{family}:{arg}", "--gens", gens]
        if draw(st.booleans()):
            argv += ["--out", str(draw(target)),
                     "--format", draw(st.sampled_from(["json", "dot", "edges"]))]
        return argv
    if command == "infinite":
        argv = ["infinite", "--group", draw(st.sampled_from(["sl2z", "affine"])),
                "--radius", str(draw(st.integers(-1, 3)))]
        return argv + (["--out", str(draw(target))] if draw(st.booleans()) else [])
    argv = [command, str(source)]
    if command == "characterize":
        if draw(st.booleans()):
            argv += ["--partition", draw(st.text(alphabet="0123456789 ;,-", max_size=14))]
        if draw(st.booleans()):
            argv.append("--use-classes")
    elif command == "spectrum":
        for option in ("--out", "--matrix-out"):
            if draw(st.booleans()):
                argv += [option, str(draw(target))]
    elif command == "export-dot":
        argv += ["--out", str(draw(target))]
    return argv


@settings(FUZZ, max_examples=150)
@given(st.data())
def test_main_ends_with_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(data.draw, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in EXIT_CODES, argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
