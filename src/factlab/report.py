"""The one writer of factlab's JSON reports.

dumps(obj) is json.dumps(obj, indent=2), byte for byte, at C speed on the
shapes reports take: dicts with str keys, lists and tuples, str, int, bool
and None.  Strings go through json's C encode_basestring_ascii, and a list
of scalars is written by one str.join.  A 2-D array of exact numbers (int64,
or dtype object holding ints and Fractions) is a list of points, a
PointSet's rows on either field: it is written as the list of its rows,
each the list of its entries' decimal strings ("1/2" for a Fraction), by
one "%s"-format over the flattened array, with no Python object per point.
Anything else (a float, a non-str key, a subclass such as OrderedDict)
goes back to json.dumps(sub, indent=2), with its newlines re-indented to
the depth where it sits.  That re-indent is exact: with ensure_ascii every
newline inside a string is escaped, so each newline of the fallback's text
is one of its own line breaks.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

_SCALAR = {str: encode_basestring_ascii, int: int.__repr__,
           bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def dumps(obj) -> str:
    """json.dumps(obj, indent=2), written faster on report-shaped objects."""
    return _encode(obj, "\n")


def _encode(obj, nl: str) -> str:
    # nl is a newline plus the indentation of the line obj starts on
    kind = type(obj)
    if kind in _SCALAR:
        return _SCALAR[kind](obj)
    inner = nl + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join(_items(obj, inner)) + nl + "]"
    if kind is np.ndarray and obj.ndim == 2 and obj.dtype in (np.int64, object):
        return _rows(obj, nl)
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(obj, indent=2).replace("\n", nl)


def _rows(rows: np.ndarray, nl: str) -> str:
    """rows as json.dumps writes rows.tolist() with every entry as its str,
    a decimal string, at the depth of nl."""
    count, width = rows.shape
    if not count:
        return "[]"
    inner = nl + "  "
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(['"%s"'] * width) + inner + "]" if width else "[]"
    return "[" + inner + ("," + inner).join([row] * count) % tuple(rows.ravel().tolist()) + nl + "]"


def _scalar_writer(items):
    """The writer of every item, when all items are scalars of one type."""
    kinds = set(map(type, items))
    return _SCALAR.get(kinds.pop()) if len(kinds) == 1 else None


def _items(seq, nl: str):
    """The items of a list, encoded, each on a line that starts with nl.  A
    list of scalars of one type takes one map."""
    write = _scalar_writer(seq)
    if write:
        return map(write, seq)
    return [_encode(x, nl) for x in seq]
