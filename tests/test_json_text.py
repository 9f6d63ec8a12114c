"""The CLI's JSON writer against json.dumps(obj, sort_keys=True, indent=2)."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratalg import builtin_model, cli
from stratalg.algebra import make_params
from stratalg.cli import json_text
from stratalg.field import Field
from stratalg.strata import ratio_partition


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


# Record-shaped lists: the writer formats a list of equal-length int rows,
# or of dicts with one str key set and int or str columns, one row at a
# time; every other shape below must fall through with the same text.

ints = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-1),
)
# "%" for the format, quotes, backslashes, control characters, non-ASCII
record_text = st.text(alphabet='%"\\\x00\x1f\x7fé\U0001f600ad', max_size=5)
odd_values = st.one_of(st.booleans(), st.floats(), st.none(),
                       st.lists(ints, max_size=2), st.text(max_size=2),
                       st.dictionaries(record_text, ints, max_size=1))


@st.composite
def int_rows(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ints, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    change = draw(st.sampled_from(
        ["none", "none", "bool value", "odd value", "ragged", "empty row",
         "empty rows", "tuple row", "tuple rows", "tuple list"]))
    row = draw(st.integers(0, len(rows) - 1))
    if change in ("bool value", "odd value"):
        rows[row][draw(st.integers(0, width - 1))] = draw(
            st.booleans() if change == "bool value" else odd_values)
    elif change == "ragged":
        rows[row] = rows[row][1:] if draw(st.booleans()) else rows[row] + [1]
    elif change == "empty row":
        rows[row] = []
    elif change == "empty rows":
        rows = [[] for _ in rows]
    elif change == "tuple row":
        rows[row] = tuple(rows[row])
    elif change == "tuple rows":
        rows = [tuple(r) for r in rows]
    elif change == "tuple list":
        rows = tuple(rows)
    return rows


@st.composite
def records(draw):
    keys = draw(st.lists(record_text, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([ints, record_text])) for _ in keys]
    rows = [{k: draw(kind) for k, kind in zip(keys, kinds)}
            for _ in range(draw(st.integers(1, 5)))]
    change = draw(st.sampled_from(
        ["none", "none", "drop key", "extra key", "int key", "mixed column",
         "bool value", "odd value", "tuple list"]))
    row, key = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from(keys))
    if change == "drop key":
        del rows[row][key]
    elif change == "extra key":
        rows[row][key + "+"] = 1
    elif change == "int key":
        for r in rows:
            r[7] = 7
    elif change == "mixed column":
        rows[row][key] = draw(record_text if kinds[keys.index(key)] is ints
                              else ints)
    elif change in ("bool value", "odd value"):
        rows[row][key] = draw(st.booleans() if change == "bool value"
                              else odd_values)
    elif change == "tuple list":
        rows = tuple(rows)
    return rows


@given(st.one_of(int_rows(), records()),
       st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=3))
@settings(max_examples=300)
def test_writer_matches_json_dumps_on_records(obj, shapes):
    assert agrees(nest(obj, shapes))


@pytest.mark.parametrize("obj", [
    [[1, 2], [3, 4]], ([1, 2], [3, 4]), [[10 ** 30, -10 ** 30]], [[1, True]],
    [[True, False]], [[1.5, 2]], [[None]], [["x", "y"]], [[[1]], [[2]]],
    [[1, 2], [3]], [[1], []], [[]], [(1, 2), (3, 4)], [[1, 2], (3, 4)],
    [{"a": 1, "b": "x"}, {"a": -2, "b": "y"}], [{"a": 1}, {"a": True}],
    [{"a": True}], [{"a": None}], [{"a": 1.0}], [{"a": 1}, {"b": 1}],
    [{1: 1}, {1: 2}], [{"a": 1}, {"a": "x"}], [{"a": [1]}],
    [{"%d": 1, "a%": "%s", "%%": '"\\\x00\u00e9'}],
], ids=repr)
def test_writer_matches_json_dumps_on_record_edge_cases(obj):
    assert json_text(obj) == reference(obj)


@pytest.mark.parametrize("obj,error", [
    ([[1, np.int64(3)]], TypeError),
    ([{"a": 1}, {"a": np.int64(3)}], TypeError),
    ([[10 ** 5000]], ValueError),
    ([{"a": 10 ** 5000}], ValueError),
])
def test_records_raise_what_json_dumps_raises(obj, error):
    with pytest.raises(error):
        reference(obj)
    with pytest.raises(error):
        json_text(obj)


# Seeded runs whose reports hold every record shape: member rows, graph
# edges, model bilinear entries and associativity mismatches, plus the
# other reports for their small lists
P3F5 = ["--builtin", "parametric3", "--params", "2,3,1,4,1,2",
        "--field", "fp:5"]
N3 = ["--builtin", "nonlinear3", "--params", "2,3,5,1,4,6"]
REPORT_ARGVS = {
    "strata-full": ["strata", *N3, "--field", "fp:7", "--json", "--full"],
    "discover-ledger": ["strata", "--builtin", "nonlinear3", "--params",
                        "2,3,1,4,1,2", "--field", "fp:5", "--discover",
                        "--json"],
    "graph-f11": ["orbit", *N3, "--field", "fp:11", "--json", "--seed", "3"],
    "graph-f23": ["orbit", "--builtin", "nonlinear3", "--params",
                  "3,1,6,2,5,4", "--field", "fp:23", "--json", "--seed", "10"],
    "kex-recover": ["kex", *P3F5, "--seed", "1", "--lengths", "1,2",
                    "--recover", "--json"],
    "check-assoc": ["check-assoc", "--builtin", "parametric3", "--params",
                    "16,8,5,3,7,11", "--json"],
    "axioms-q": ["axioms", "--builtin", "parametric3", "--params",
                 "16,8,5,3,7,11", "--samples", "40", "--seed", "5", "--json"],
    "axioms-fp": ["axioms", "--builtin", "parametric3", "--params",
                  "2,3,5,1,4,6", "--field", "fp:19", "--samples", "30",
                  "--seed", "9", "--json"],
}


@pytest.mark.parametrize("argv", REPORT_ARGVS.values(), ids=REPORT_ARGVS)
def test_writer_matches_json_dumps_on_reports(monkeypatch, capsys, argv):
    reports = []
    monkeypatch.setattr(cli, "emit_json",
                        lambda args, obj: reports.append(obj))
    cli.main(argv)
    assert len(reports) == 1
    assert json_text(reports[0]) == reference(reports[0])


def peak_and_text(obj):
    tracemalloc.start()
    try:
        text = json_text(obj)
        return tracemalloc.get_traced_memory()[1], text
    finally:
        tracemalloc.stop()


def test_writer_holds_one_copy_of_a_full_member_list():
    # 29,790 member rows. The finished text and the parts it is joined from
    # are alive together, so the peak is about twice the text; a writer that
    # kept a joined list while copying it into the brackets reached ~3x
    F31 = Field(31)
    model = builtin_model("nonlinear3", make_params(F31, (2, 3, 5, 1, 4, 6)),
                          F31)
    obj = ratio_partition(model).to_json(full=True)
    peak, text = peak_and_text(obj)
    assert sum(len(s["members"]) for s in obj["strata"]) == 29790
    assert peak < 2.2 * len(text)


def test_writer_encodes_record_columns_lazily(monkeypatch):
    # the F_23 graph: 13,289 edges of three label columns and a count. Its
    # peak is ~2.6x the text, as with one text per edge; encoding every
    # label column up front before formatting the rows reached ~4.7x
    reports = []
    monkeypatch.setattr(cli, "emit_json",
                        lambda args, obj: reports.append(obj))
    cli.main(REPORT_ARGVS["graph-f23"])
    peak, text = peak_and_text(reports[0])
    assert peak < 2.8 * len(text)
