"""The one writer of factlab's JSON reports.

dumps(obj) is json.dumps(obj, indent=2), byte for byte, at C speed on the
shapes reports take: dicts with str keys, lists and tuples, str, int, bool
and None.  Strings go through json's C encode_basestring_ascii, and a list
of scalars is written by one str.join.  Anything else (a float, a non-str
key, a subclass such as OrderedDict) goes back to json.dumps(sub, indent=2),
with its newlines re-indented to the depth where it sits.  That re-indent
is exact: with ensure_ascii every newline inside a string is escaped, so
each newline of the fallback's text is one of its own line breaks.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii

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
    if kind is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(obj, indent=2).replace("\n", nl)


def _scalar_writer(items):
    """The writer of every item, when all items are scalars of one type."""
    kinds = set(map(type, items))
    return _SCALAR.get(kinds.pop()) if len(kinds) == 1 else None


def _items(seq, nl: str):
    """The items of a list, encoded, each on a line that starts with nl.  A
    list of scalars of one type takes one map; so does each row of a list of
    such lists (points), all rows at the same depth."""
    write = _scalar_writer(seq)
    if write:
        return map(write, seq)
    if all(type(x) in (list, tuple) and x for x in seq):
        write = _scalar_writer(itertools.chain.from_iterable(seq))
        if write:
            pre, sep, post = "[" + nl + "  ", "," + nl + "  ", nl + "]"
            return [pre + sep.join(map(write, row)) + post for row in seq]
    return [_encode(x, nl) for x in seq]
