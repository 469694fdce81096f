"""Graph serialization: JSON documents, edge-list text, and DOT export.

The JSON schema (version "1") covers three kinds of graph:

* ``ggraph``: partitions with generator labels/orders and coset labels,
* ``plain``: an arbitrary multigraph, optionally partitioned,
* ``ball``: a radius-bounded ball; vertices carry an ``interior`` flag.

Vertex ids are dense from 0 and every edge record has u < v.  Serialization
is canonical: exactly ``json.dumps(doc.to_dict(), sort_keys=True, indent=2)``
plus a newline, so equal documents produce identical bytes.  ``dumps`` hands
the writing to ``ggraphs._write``, imported on its first call, so a command
that only reads a graph never compiles the writer.  In memory a document
holds its edges as ``(u, v, multiplicity)`` triples, as ``GGraph`` and
``BallGraph`` do; the record ``{"u", "v", "multiplicity"}`` exists only in
the JSON text.

Edge-list text format: one ``u v [multiplicity]`` line per edge, 0-based
vertex ids, ``#`` starts a comment.  Optional ``partition: id id ...`` header
lines declare one partition class each (all vertices or none must be
covered).  The graph is sized from the largest id, so ids at or above
``multigraph.VERTEX_LIMIT`` are refused.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import TYPE_CHECKING, Optional

from .errors import InvalidInputError, SizeLimitError
from .multigraph import MULTIPLICITY_LIMIT, Multigraph

if TYPE_CHECKING:
    from .ggraph import GGraph
    from .infinite import BallGraph

SCHEMA_VERSION = "1"
# Shorter lists are written (by ggraphs._write) and checked record by record:
# below about 12 vertex records or 90 edge triples, gathering and checking
# them at C speed costs more than it saves.
_BULK_VERTICES = 16
_BULK_EDGES = 128
# records per template in dumps: bounds the template and its argument tuple
_BLOCK = 512

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
        Each class and edge record is checked once; only one that fails is
        looked at again, to name what is wrong with it."""
        ids = []
        for part in self.partitions:
            if not isinstance(part, dict) or not isinstance(part.get("vertices"), list):
                raise InvalidInputError("every partition needs a 'vertices' list")
            ids += _vertex_ids(part["vertices"])
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
            # not a plain dict of valid ints: name what is wrong, or take
            # the record when it is valid after all (a dict subclass)
            u, v, m = (_int_field(e, key) for key in ("u", "v", "multiplicity"))
            if not (0 <= u < v < n):
                raise InvalidInputError(f"bad edge record {e}")
            if m < 1:
                raise InvalidInputError(f"bad multiplicity in {e}")
            append((u, v, m))

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


def _vertex_ids(vertices: list) -> list[int]:
    """The ids of one class's vertex records, each an int id with null or
    str labels.  A class of at least _BULK_VERTICES plain dicts and lists is
    checked at C speed; any other class is checked record by record, which
    takes a dict or list subclass and names the first record that is wrong."""
    if len(vertices) >= _BULK_VERTICES and set(map(type, vertices)) <= {dict}:
        ids = list(map(dict.get, vertices, repeat("id")))
        labels = list(map(dict.get, vertices, repeat("coset_labels")))
        if (
            set(map(type, ids)) <= {int}
            and set(map(type, labels)) <= {list, type(None)}
            and all(map(isinstance, chain.from_iterable(filter(None, labels)), repeat(str)))
        ):
            return ids
    ids = []
    for vertex in vertices:
        ids.append(_int_field(vertex, "id"))
        labels = vertex.get("coset_labels")
        if labels is not None and not (
            isinstance(labels, list) and all(map(isinstance, labels, repeat(str)))
        ):
            raise InvalidInputError(f"bad coset labels in vertex {ids[-1]}")
    return ids


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
    document stands for its ``to_dict()``.  The writer is ``ggraphs._write``,
    which only a command that writes JSON loads."""
    from ._write import dumps as write
    return write(value)


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
