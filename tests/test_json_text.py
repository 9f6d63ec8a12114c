"""The CLI's JSON writer against json.dumps(obj, sort_keys=True, indent=2)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratalg.cli import json_text


def outcome(encode, obj):
    """The text, or the type of the exception raised."""
    try:
        return encode(obj)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc)


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def agrees(obj):
    return outcome(json_text, obj) == outcome(reference, obj)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300]),
    st.text(),
    # quotes, backslashes, control characters, DEL, non-ASCII, a line
    # separator and an astral code point
    st.text(alphabet='"\\/\x00\x08\n\r\t\x1f\x7f é \U0001f600'),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
        st.dictionaries(st.floats(), children, max_size=2),
    )


values = st.recursive(scalars, containers, max_leaves=30)


def nest(value, shapes):
    for shape in shapes:
        value = {"list": [value], "tuple": (1, value),
                 "dict": {"k": value, "a": True}}[shape]
    return value


deep_values = st.builds(
    nest, values,
    st.lists(st.sampled_from(["list", "tuple", "dict"]), min_size=6,
             max_size=10))


@given(values)
@settings(max_examples=200)
def test_writer_matches_json_dumps(obj):
    assert agrees(obj)


@given(deep_values)
@settings(max_examples=50)
def test_writer_matches_json_dumps_when_nested_deeply(obj):
    assert agrees(obj)


@pytest.mark.parametrize("obj", [
    0, -1, 2 ** 64, -2 ** 64, True, False, None, [True, 1, False, 0],
    {"b": True, "a": 1, "c": None}, [], (), {}, [[], (), {}], (1, (2, 3)),
    {1: "x", 0: "y"}, {True: 1, False: 0}, {None: []}, {2.5: 1, 1.5: 2},
    [math.nan, math.inf, -math.inf, -0.0, 1e300],
    '"\\\x00\x1f\x7fé\U0001f600',
])
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize("obj", [
    np.int64(3), [1, np.int64(3)], {"a": {1, 2}}, {1, 2}, {"a": 1, 1: 2},
    [object()],
])
def test_writer_raises_what_json_dumps_raises(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        json_text(obj)
