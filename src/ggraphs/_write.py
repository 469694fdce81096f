"""The canonical JSON writer behind ``ggraphs.io.dumps``.

It lives apart from ``io`` so that a command that only reads a graph
(``analyze``, ``characterize``, ``export-dot``) does not compile it.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

from .io import GraphDocument

# records per template: bounds the template and its argument tuple
_BLOCK = 512


def dumps(value) -> str:
    """Canonical JSON of a GraphDocument (or of any JSON value): exactly
    ``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, where a
    document stands for its ``to_dict()``.

    CPython's C encoder does not indent, so the stdlib would write every
    document in pure Python.  Here every list of like records, at any
    length, is written a block of at most _BLOCK records at a time, by one
    ``%`` template per block, once its values have been gathered and
    type-checked at C speed:

    * a document's edge triples, when every one is three ints;
    * a list of vertex records of one shape: each holds exactly an int
      ``id``, ``coset_labels`` that are null in every record or k >= 1 str
      labels for one k, and a bool ``interior`` in every record or in none.

    Any other list is written item by item.  A str, int, bool or null is
    written as the stdlib writes it, and every other value by
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
        body = _vertices(value, inner)
        if body is None:
            body = ("," + inner).join([_encode(x, inner) for x in value])
        return "[" + inner + body + nl + "]"
    # json strings hold no raw line break, so re-indenting is exact
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", nl)


def _edges(triples: list, nl: str) -> str:
    """The edge records of ``triples`` as a list at indentation ``nl``: by
    the template when every triple is three ints, and otherwise as records
    written item by item."""
    try:  # raises unless every triple has three items
        us, vs, ms = zip(*triples, strict=True)
    except (TypeError, ValueError):
        us = None
    if us is None or not {int} == set(map(type, us)) == set(map(type, vs)) == set(map(type, ms)):
        return _encode([{"u": u, "v": v, "multiplicity": m} for u, v, m in triples], nl)
    inner = nl + "  "
    i2 = inner + "  "
    edge = "{" + i2 + '"multiplicity": %d,' + i2 + '"u": %d,' + i2 + '"v": %d' + inner + "}"
    fields = [None] * (3 * len(triples))
    fields[0::3] = ms
    fields[1::3] = us
    fields[2::3] = vs
    return "[" + inner + _fill(edge, fields, 3, inner) + nl + "]"


def _vertices(records: list, nl: str) -> Optional[str]:
    """The items, at indentation ``nl``, of a list of vertex records of one
    shape (see ``dumps``); None for any other list."""
    if set(map(type, records)) != {dict} or set(map(len, records)) not in ({2}, {3}):
        return None
    try:  # with two or three keys each, all found means no other key
        ids = list(map(itemgetter("id"), records))
        labels = list(map(itemgetter("coset_labels"), records))
        flags = list(map(itemgetter("interior"), records)) if len(records[0]) == 3 else []
    except KeyError:
        return None
    if set(map(type, ids)) != {int} or not set(map(type, flags)) <= {bool}:
        return None
    kinds = set(map(type, labels))
    k = len(labels[0]) if kinds == {list} else 0
    i2 = nl + "  "
    columns = [ids]
    if k and set(map(len, labels)) == {k}:
        i3 = i2 + "  "
        try:  # encode_basestring_ascii raises TypeError on a non-str label
            encoded = list(map(encode_basestring_ascii, chain.from_iterable(labels)))
        except TypeError:
            return None
        # each record's labels joined, k at a time by zip over one iterator
        columns.insert(0, list(map(("," + i3).join, zip(*[iter(encoded)] * k))))
        text = "[" + i3 + "%s" + i2 + "]"
    elif kinds == {type(None)}:
        text = "null"
    else:
        return None
    record = "{" + i2 + '"coset_labels": ' + text + "," + i2 + '"id": %d'
    if flags:
        record += "," + i2 + '"interior": %s'
        columns.append(list(map(_SCALARS[bool], flags)))
    width = len(columns)
    fields = [None] * (len(ids) * width)
    for i, column in enumerate(columns):
        fields[i::width] = column
    return _fill(record + nl + "}", fields, width, nl)


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
