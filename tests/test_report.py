"""report.dumps is json.dumps(obj, indent=2), byte for byte; a 2-D array of
exact numbers (int64, or dtype object holding Fractions) is written as the
list of its rows of decimal strings."""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from factlab.report import dumps  # noqa: E402

_TEXT = st.text(st.sampled_from('ab"\\\n\t\r/é€ \x00 \U0001f600'), max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, True, False, -0.0, 1e300, math.nan, -math.inf]),
)
_KEYS = st.one_of(_TEXT, st.integers(-5, 5), st.booleans(), st.none(), st.sampled_from([0.5, -0.0]))


def _tree(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.lists(_TEXT, min_size=1, max_size=4), max_size=4),  # rows of points
        st.dictionaries(_TEXT, children, max_size=5),
        st.dictionaries(_KEYS, children, max_size=5),
        st.dictionaries(_TEXT, children, max_size=5).map(OrderedDict),
    )


_OBJECTS = st.recursive(_SCALARS, _tree, max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_OBJECTS)
def test_dumps_matches_json_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", 0, None, True, {"a": []}, {"a": {}}, [[], {}, ()],
    {"nodes": [["1", "0", "5"], ["1", "2", "3"]], "flags": [True, False], "count": 2},
    [["1"], []], [["1", 2]], [[True], [1]], [("a", "b"), ["c"]],
    {1: "int key", "s": 1}, {True: 1, None: 2, 2.5: 3}, OrderedDict(a=[1, {"b": 1.5}]),
    [1, True, False, 0], [-0.0, 1e300, math.nan, math.inf, -math.inf],
    {"é\n\"": ["line\nbreak", "tab\t", " ", "\x7f"]},
    {"deep": [{"x": [{"y": (1, 2.0)}]}]},
])
def test_dumps_edge_cases(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


# point rows: N in {0, 1, many}, widths 2-6, entries up to 2^31 - 2 (F_p)
# or Fractions in an array of dtype object (QQ)
_ENTRIES = ((st.integers(0, 2**31 - 2), np.int64),
            (st.fractions(max_denominator=10**6).map(lambda x: x * 10**9), object))
_ROWS = st.tuples(st.sampled_from([0, 1, 2, 9]), st.integers(2, 6), st.sampled_from(_ENTRIES)).flatmap(
    lambda shape: st.lists(st.lists(shape[2][0], min_size=shape[1], max_size=shape[1]),
                           min_size=shape[0], max_size=shape[0])
    .map(lambda rows: np.array(rows, dtype=shape[2][1]).reshape(shape[:2])))


def _as_strings(obj):
    """obj with every array replaced by the list of its rows of decimal strings."""
    if isinstance(obj, np.ndarray):
        return [[str(v) for v in row] for row in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_as_strings, obj))
    if isinstance(obj, dict):
        return {k: _as_strings(v) for k, v in obj.items()}
    return obj


_WITH_ROWS = st.recursive(st.one_of(_SCALARS, _ROWS), lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4)), max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_WITH_ROWS)
def test_dumps_writes_rows_as_decimal_strings(obj):
    assert dumps(obj) == json.dumps(_as_strings(obj), indent=2)


@pytest.mark.parametrize("count", [0, 1, 1000])
@pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
def test_dumps_rows_edge_cases(count, width):
    rows = (np.arange(count * width, dtype=np.int64).reshape(count, width) * 2147) % (2**31 - 1)
    rows[:, 0] = 2**31 - 2
    for obj in (rows, {"nodes": rows, "count": count}, [[rows], rows[:0]]):
        assert dumps(obj) == json.dumps(_as_strings(obj), indent=2)
