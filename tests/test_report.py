"""report.dumps is json.dumps(obj, indent=2), byte for byte."""

import json
import math
from collections import OrderedDict

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
