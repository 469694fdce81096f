"""The canonical JSON writer behind ``ggraphs.io.dumps``.

It lives apart from ``io`` so that a command that only reads a graph
(``analyze``, ``characterize``, ``export-dot``) does not compile it.  The
list sizes it switches on, ``_BULK_VERTICES``, ``_BULK_EDGES`` and
``_BLOCK``, are defined in ``io``, whose read side checks vertex records in
bulk from ``_BULK_VERTICES`` on as well.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

from .io import _BLOCK, _BULK_EDGES, _BULK_VERTICES, GraphDocument


def dumps(value) -> str:
    """Canonical JSON of a GraphDocument (or of any JSON value): exactly
    ``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, where a
    document stands for its ``to_dict()``.

    CPython's C encoder does not indent, so the stdlib would write every
    document in pure Python.  Here two kinds of list are written a block
    of at most _BLOCK records at a time, by one ``%`` template per block,
    once every value has been gathered and type-checked at C speed:

    * a document's edge triples, when there are at least _BULK_EDGES and
      every one is three ints;
    * a list of at least _BULK_VERTICES vertex records that each hold
      exactly an int ``id`` and ``coset_labels``, k >= 1 str labels for
      one k (a long class of a coset graph).

    Any other list, such as a shorter one or a ball's or a plain graph's
    vertices, is written whole by the per-record writer: a template for
    each vertex record with null or str labels and an optional bool
    ``interior``, and the stdlib for every other record.  A str, int, bool
    or null is written as the stdlib writes it, and every other value by
    ``json.dumps`` itself, re-indented to its depth.
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
# The stdlib's text for a value of exactly these types, at any depth: a
# json.dumps call for each label, order and generator name would add about
# 20 µs to a small coset graph's document, 1-2 % of its construct job.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _encode(value, nl: str) -> str:
    """``value`` as the stdlib writes it at the depth whose line break and
    indentation is ``nl``."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = nl + "  "
    if type(value) is dict and value and all(type(key) is str for key in value):
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _encode(item, inner)
            for key, item in sorted(value.items())
        ]) + nl + "}"
    if type(value) is list and value:
        body = _coset_vertices(value, inner)
        if body is None:
            body = ("," + inner).join(_items(value, inner))
        return "[" + inner + body + nl + "]"
    # json strings hold no raw line break, so re-indenting is exact
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)


def _edges(triples: list, nl: str) -> str:
    """The edge records of ``triples`` as a list at indentation ``nl``.

    When there are at least _BULK_EDGES triples and every one is three ints,
    they fill the template a block at a time; otherwise each triple is
    written in turn, and one that is not three ints as its record by the
    stdlib.
    """
    if not triples:
        return "[]"
    inner = nl + "  "
    i2 = inner + "  "
    edge = "{" + i2 + '"multiplicity": %d,' + i2 + '"u": %d,' + i2 + '"v": %d' + inner + "}"
    us = None
    if len(triples) >= _BULK_EDGES:
        try:  # raises unless every triple has three items
            us, vs, ms = zip(*triples, strict=True)
        except (TypeError, ValueError):
            pass
    if us is not None and {int} == set(map(type, us)) == set(map(type, vs)) == set(map(type, ms)):
        fields = [None] * (3 * len(triples))
        fields[0::3] = ms
        fields[1::3] = us
        fields[2::3] = vs
        return "[" + inner + _fill(edge, fields, 3, inner) + nl + "]"
    out = []
    for u, v, m in triples:
        if type(u) is int and type(v) is int and type(m) is int:
            out.append(edge % (m, u, v))
        else:
            out.append(_encode({"u": u, "v": v, "multiplicity": m}, inner))
    return "[" + inner + ("," + inner).join(out) + nl + "]"


def _coset_vertices(records: list, nl: str) -> Optional[str]:
    """The items, at indentation ``nl``, of a list of vertex records that
    each hold exactly an int ``id`` and ``coset_labels``, k >= 1 str labels
    for one k; None for any other list."""
    if (len(records) < _BULK_VERTICES or set(map(type, records)) != {dict}
            or set(map(len, records)) != {2}):
        return None
    try:  # with two keys each, both found means no other key
        ids = list(map(itemgetter("id"), records))
        labels = list(map(itemgetter("coset_labels"), records))
    except KeyError:
        return None
    if set(map(type, ids)) != {int} or set(map(type, labels)) != {list}:
        return None
    sizes = set(map(len, labels))
    if len(sizes) != 1 or 0 in sizes:
        return None
    (k,) = sizes
    try:  # encode_basestring_ascii raises TypeError on a non-str label
        encoded = list(map(encode_basestring_ascii, chain.from_iterable(labels)))
    except TypeError:
        return None
    # each record's k labels, then its id
    fields = [None] * (len(records) * (k + 1))
    for i in range(k):
        fields[i::k + 1] = encoded[i::k]
    fields[k::k + 1] = ids
    i2 = nl + "  "
    i3 = i2 + "  "
    record = (
        "{" + i2 + '"coset_labels": [' + i3 + ("," + i3).join(["%s"] * k)
        + i2 + "]," + i2 + '"id": %d' + nl + "}"
    )
    return _fill(record, fields, k + 1, nl)


def _fill(record: str, fields: list, width: int, nl: str) -> str:
    """``record``, a template of ``width`` fields, filled from each run of
    ``width`` in ``fields`` and joined as list items at indentation ``nl``.

    One template fills a block of _BLOCK records; a shorter last block, or
    a list shorter than one block, takes a template of its own length.
    """
    sep = "," + nl
    step = _BLOCK * width
    full = sep.join([record] * _BLOCK) if len(fields) >= step else ""
    out = []
    for i in range(0, len(fields), step):
        block = fields[i:i + step]
        template = full if len(block) == step else sep.join([record] * (len(block) // width))
        out.append(template % tuple(block))
    return sep.join(out)


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
