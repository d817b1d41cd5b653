"""The CLI's indented JSON writer against `json.dumps(value, indent=2)`,
driven by hypothesis over nested documents of every scalar the writer
encodes.

hypothesis is a test-only dependency (the `test` extra); the module is
skipped where it is missing.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chevring.cli import _json  # noqa: E402

# non-ASCII (including astral), quotes, backslashes and control characters
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\n\t '))
LEAVES = (
    TEXT
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-1)
    | st.booleans()
    | st.none()
    | st.floats()
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS)
@example([])
@example({})
@example({"": [[], {}, [{}]], "a": {"b": []}})
@example([float("nan"), float("inf"), -0.0, 1e300])
def test_the_writer_matches_the_indented_stdlib_encoder(value):
    assert _json(value) == json.dumps(value, indent=2)


@given(st.lists(st.integers() | TEXT, max_size=5).map(tuple))
def test_a_tuple_is_written_as_a_list(value):
    assert _json(value) == json.dumps(value, indent=2) == _json(list(value))


@pytest.mark.parametrize(
    "value",
    [{1, 2}, [frozenset()], {"a": b"bytes"}, {1: "int key"}, {"a": {None: 1}}, {(1,): 2}],
)
def test_the_writer_refuses_what_is_not_a_json_value(value):
    with pytest.raises(TypeError):
        _json(value)
