"""Graph serialization: JSON documents, edge-list text, and DOT export.

The JSON schema (version "1") covers three kinds of graph:

* ``ggraph``: partitions with generator labels/orders and coset labels,
* ``plain``: an arbitrary multigraph, optionally partitioned,
* ``ball``: a radius-bounded ball; vertices carry an ``interior`` flag.

Vertex ids are dense from 0 and every edge record has u < v.  Serialization
is canonical: exactly ``json.dumps(doc.to_dict(), sort_keys=True, indent=2)``
plus a newline, so equal documents produce identical bytes.  In memory a
document holds its edges as ``(u, v, multiplicity)`` triples, as ``GGraph``
and ``BallGraph`` do; the record ``{"u", "v", "multiplicity"}`` exists only
in the JSON text.

Edge-list text format: one ``u v [multiplicity]`` line per edge, 0-based
vertex ids, ``#`` starts a comment.  Optional ``partition: id id ...`` header
lines declare one partition class each (all vertices or none must be
covered).  The graph is sized from the largest id, so ids at or above
``multigraph.VERTEX_LIMIT`` are refused.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional

from .errors import InvalidInputError, SizeLimitError
from .multigraph import MULTIPLICITY_LIMIT, Multigraph

if TYPE_CHECKING:
    from .ggraph import GGraph
    from .infinite import BallGraph

SCHEMA_VERSION = "1"

_DOT_PALETTE = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854",
    "#ffd92f", "#e5c494", "#b3b3b3", "#7fc97f", "#beaed4",
)


class GraphDocument:
    """One graph as the JSON schema describes it; ``edges`` are (u, v, m)
    triples, and ``to_dict`` renders them as records."""

    __slots__ = ("kind", "partitions", "edges", "metadata", "schema_version")

    def __init__(
        self,
        kind: str,  # "ggraph" | "plain" | "ball"
        partitions: list[dict],
        edges: list[tuple[int, int, int]],
        metadata: Optional[dict] = None,
        schema_version: str = SCHEMA_VERSION,
    ):
        self.kind = kind
        self.partitions = partitions
        self.edges = edges
        self.metadata = {} if metadata is None else metadata
        self.schema_version = schema_version

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "partitions": self.partitions,
            "edges": [{"u": u, "v": v, "multiplicity": m} for u, v, m in self.edges],
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data) -> "GraphDocument":
        if not isinstance(data, dict):
            raise InvalidInputError("a graph document must be a JSON object")
        if data.get("schema_version") != SCHEMA_VERSION:
            raise InvalidInputError(
                f"unsupported schema version {data.get('schema_version')!r}"
            )
        if data.get("kind") not in ("ggraph", "plain", "ball"):
            raise InvalidInputError(f"unknown document kind {data.get('kind')!r}")
        for key in ("partitions", "edges"):
            if not isinstance(data.get(key), list):
                raise InvalidInputError(f"document field {key!r} must be a list")
        if not isinstance(data.get("metadata", {}), dict):
            raise InvalidInputError("document field 'metadata' must be an object")
        doc = cls(
            kind=data["kind"],
            partitions=data["partitions"],
            edges=[],
            metadata=data.get("metadata", {}),
        )
        doc._load(data["edges"])
        return doc

    def _load(self, records: list) -> None:
        """Check the vertex records, then append each edge record's triple.
        Each record is checked once; only a record that fails is looked at
        again, to name what is wrong with it."""
        ids = []
        for part in self.partitions:
            if not isinstance(part, dict) or not isinstance(part.get("vertices"), list):
                raise InvalidInputError("every partition needs a 'vertices' list")
            for vertex in part["vertices"]:
                ids.append(_int_field(vertex, "id"))
                labels = vertex.get("coset_labels")
                if labels is not None and not (
                    isinstance(labels, list) and all(isinstance(x, str) for x in labels)
                ):
                    raise InvalidInputError(f"bad coset labels in vertex {ids[-1]}")
        n = len(ids)
        if sorted(ids) != list(range(n)):
            raise InvalidInputError("vertex ids must be dense from 0")
        if self._has_classes() and not all(part["vertices"] for part in self.partitions):
            raise InvalidInputError("partition has an empty class")
        append = self.edges.append
        for e in records:
            if type(e) is dict:
                u, v, m = e.get("u"), e.get("v"), e.get("multiplicity")
                if (type(u) is int and type(v) is int and type(m) is int
                        and 0 <= u < v < n and m >= 1):
                    append((u, v, m))
                    continue
            # the checks above failed, so one of these raises
            u, v, m = (_int_field(e, key) for key in ("u", "v", "multiplicity"))
            if not (0 <= u < v < n):
                raise InvalidInputError(f"bad edge record {e}")
            if m < 1:
                raise InvalidInputError(f"bad multiplicity in {e}")

    def vertex_count(self) -> int:
        return sum(len(part["vertices"]) for part in self.partitions)

    def _has_classes(self) -> bool:
        """Whether the partitions are the graph's classes: always in a coset
        graph or a ball, and in a plain graph when there are two or more."""
        return self.kind in ("ggraph", "ball") or len(self.partitions) > 1

    def to_multigraph(self) -> Multigraph:
        classes = None
        if self._has_classes():
            classes = [
                [v["id"] for v in part["vertices"]] for part in self.partitions
            ]
        return Multigraph(self.vertex_count(), classes, self.edges)

    def total_multiplicity(self) -> int:
        return sum(m for _, _, m in self.edges)


def _int_field(record, key: str) -> int:
    """``record[key]`` when record is an object and the value an int (not bool)."""
    value = record.get(key) if isinstance(record, dict) else None
    if type(value) is not int:
        raise InvalidInputError(f"{key!r} must be an integer in {record!r}")
    return value


def document_from_ggraph(
    gg: GGraph,
    element_labels: Optional[list[str]] = None,
    group_spec: Optional[str] = None,
) -> GraphDocument:
    """Serialize a coset graph; coset members are rendered through
    ``element_labels`` (typically the group's labels) when given, and as
    their indices otherwise.  The edges are the view's own triples."""
    names = element_labels or [str(e) for e in range(gg.group_order)]
    partitions = []
    for c, cosets in enumerate(gg.partitions):
        vertices = []
        for local, coset in enumerate(cosets):
            vertices.append(
                {
                    "id": gg.class_offsets[c] + local,
                    "coset_labels": list(map(names.__getitem__, coset.elements)),
                }
            )
        partitions.append(
            {
                "label": gg.gen_labels[c],
                "gen_order": gg.gen_orders[c],
                "vertices": vertices,
            }
        )
    return GraphDocument(
        kind="ggraph",
        partitions=partitions,
        edges=list(gg.edges),
        metadata={
            "group_spec": group_spec,
            "generators": list(gg.gen_labels),
            "group_order": gg.group_order,
        },
    )


def document_from_multigraph(mg: Multigraph) -> GraphDocument:
    """A plain document; an unpartitioned graph is one class of all vertices."""
    partitions = [
        {
            "label": None,
            "gen_order": None,
            "vertices": [{"id": v, "coset_labels": None} for v in cls],
        }
        for cls in mg.classes or [range(mg.n)]
    ]
    edges = [(u, v, m) for (u, v), m in sorted(mg.edges.items())]
    return GraphDocument(kind="plain", partitions=partitions, edges=edges)


def document_from_ball(ball: BallGraph) -> GraphDocument:
    partitions = []
    for class_id, members in enumerate(ball.class_members()):
        vertices = []
        for i in members:
            vert = ball.vertices[i]
            vertices.append(
                {
                    "id": i,
                    "coset_labels": [str(k) for k in vert.elements],
                    "interior": vert.interior,
                }
            )
        partitions.append(
            {"label": f"class{class_id}", "gen_order": None, "vertices": vertices}
        )
    return GraphDocument(
        kind="ball",
        partitions=partitions,
        edges=list(ball.edges),
        metadata={"group_spec": ball.kind, "radius": ball.radius},
    )


def dumps(value) -> str:
    """Canonical JSON of a GraphDocument (or of any JSON value): exactly
    ``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, where a
    document stands for its ``to_dict()``.

    CPython's C encoder does not indent, so the stdlib would write every
    document in pure Python.  Here edge triples and vertex records are
    written by one template each, and every other value is written by
    ``json.dumps`` itself and re-indented to its depth.
    """
    if not isinstance(value, GraphDocument):
        return _encode(value, "\n") + "\n"
    inner = "\n  "
    fields = (  # in sorted key order
        ("edges", _edges(value.edges, inner)),
        ("kind", _encode(value.kind, inner)),
        ("metadata", _encode(value.metadata, inner)),
        ("partitions", _encode(value.partitions, inner)),
        ("schema_version", _encode(value.schema_version, inner)),
    )
    return "{" + inner + ("," + inner).join(
        f'"{key}": {text}' for key, text in fields
    ) + "\n}\n"


_VERTEX_KEYS = {"coset_labels", "id"}
_BALL_VERTEX_KEYS = {"coset_labels", "id", "interior"}


def _encode(value, nl: str) -> str:
    """``value`` as the stdlib writes it at the depth whose line break and
    indentation is ``nl``."""
    inner = nl + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _encode(item, inner)
            for key, item in sorted(value.items())
        ]) + nl + "}"
    if type(value) is list and value:
        return "[" + inner + ("," + inner).join(_items(value, inner)) + nl + "]"
    # json strings hold no raw line break, so re-indenting is exact
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)


def _edges(triples: list, nl: str) -> str:
    """The edge records of ``triples`` as a list at indentation ``nl``; a
    triple that is not three ints is written as its record by the stdlib."""
    if not triples:
        return "[]"
    inner = nl + "  "
    i2 = inner + "  "
    edge = "{" + i2 + '"multiplicity": %d,' + i2 + '"u": %d,' + i2 + '"v": %d' + inner + "}"
    out = []
    for u, v, m in triples:
        if type(u) is int and type(v) is int and type(m) is int:
            out.append(edge % (m, u, v))
        else:
            out.append(_encode({"u": u, "v": v, "multiplicity": m}, inner))
    return "[" + inner + ("," + inner).join(out) + nl + "]"


def _items(values: list, nl: str) -> list[str]:
    """The list items, each at indentation ``nl``."""
    out = []
    for x in values:
        if type(x) is dict and (x.keys() == _VERTEX_KEYS or x.keys() == _BALL_VERTEX_KEYS):
            text = _vertex(x, nl)
            if text is not None:
                out.append(text)
                continue
        out.append(_encode(x, nl))
    return out


def _vertex(x: dict, nl: str) -> Optional[str]:
    """A vertex record with int id, null (as in plain documents) or
    non-empty str labels and an optional bool ``interior``; None for any
    other record."""
    vid, labels = x["id"], x["coset_labels"]
    interior = x.get("interior", False)
    if type(vid) is not int or type(interior) is not bool:
        return None
    i2 = nl + "  "
    if labels is None:
        text = "{" + i2 + '"coset_labels": null,'
    elif type(labels) is list and labels:
        i3 = i2 + "  "
        try:  # encode_basestring_ascii raises TypeError on a non-str label
            joined = ("," + i3).join(map(encode_basestring_ascii, labels))
        except TypeError:
            return None
        text = "{" + i2 + '"coset_labels": [' + i3 + joined + i2 + "],"
    else:
        return None
    text += i2 + '"id": %d' % vid
    if "interior" in x:
        text += "," + i2 + ('"interior": true' if interior else '"interior": false')
    return text + nl + "}"


def loads(text: str) -> GraphDocument:
    try:
        data = json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        raise InvalidInputError("JSON document is nested too deeply") from None
    return GraphDocument.from_dict(data)


def write_document(doc: GraphDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Multigraph:
    edges: list[tuple[int, int, int]] = []
    classes: list[list[int]] = []
    max_vertex = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("partition:"):
            ids = [int(tok) for tok in line[len("partition:"):].split()]
            if not ids:
                raise InvalidInputError(f"line {lineno}: empty partition class")
            classes.append(ids)
            max_vertex = max(max_vertex, max(ids))
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InvalidInputError(f"line {lineno}: expected 'u v [multiplicity]'")
        u, v = int(parts[0]), int(parts[1])
        m = int(parts[2]) if len(parts) == 3 else 1
        if u == v:
            raise InvalidInputError(f"line {lineno}: loops are not allowed")
        edges.append((u, v, m))
        max_vertex = max(max_vertex, u, v)
    return Multigraph(max_vertex + 1, classes or None, edges)


def format_edge_list(mg: Multigraph) -> str:
    lines = []
    if mg.classes:
        for cls in mg.classes:
            lines.append("partition: " + " ".join(str(v) for v in cls))
    for (u, v), m in sorted(mg.edges.items()):
        lines.append(f"{u} {v}" if m == 1 else f"{u} {v} {m}")
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Multigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def to_dot(doc: GraphDocument) -> str:
    """Undirected DOT with one edge line per unit of multiplicity.

    Vertices are colored by partition class and labelled by their coset
    members when available.  A total multiplicity above MULTIPLICITY_LIMIT
    is refused before any line is built.
    """
    units = doc.total_multiplicity()
    if units > MULTIPLICITY_LIMIT:
        raise SizeLimitError(f"edge multiplicity {units} exceeds {MULTIPLICITY_LIMIT}")
    lines = ["graph coset_graph {", "  node [style=filled];"]
    for c, part in enumerate(doc.partitions):
        color = _DOT_PALETTE[c % len(_DOT_PALETTE)]
        for vertex in part["vertices"]:
            labels = vertex.get("coset_labels")
            text = "{" + ",".join(labels) + "}" if labels else str(vertex["id"])
            text = text.replace('"', r"\"")
            lines.append(
                f'  v{vertex["id"]} [label="{text}", fillcolor="{color}"];'
            )
    for u, v, m in doc.edges:
        lines += [f"  v{u} -- v{v};"] * m
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(doc: GraphDocument, path) -> None:
    text = to_dot(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
