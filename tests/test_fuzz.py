"""Fuzzing the JSON parsers: any JSON either parses or raises ValueError."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenloc.graphs import graph_from_json
from eigenloc.regions import matrix_from_json, region_from_json, region_to_json


def _json(numbers):
    words = st.sampled_from(["union", "intersection", "n", "re", "1", "nan"]) | st.text(max_size=3)
    return st.recursive(
        st.none() | st.booleans() | numbers | words,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(words, kids, max_size=4),
        max_leaves=16,
    )


_ODD_NUMBERS = st.sampled_from([10**400, -(2**1024), True, math.nan, math.inf, -1.0, 2.5])
# Any JSON value, with numbers of every kind, past the double range included.
_JUNK = _json(st.integers() | st.floats() | _ODD_NUMBERS)
# A Graph allocates a list entry per vertex, so graph documents keep their numbers small.
_SMALL_JUNK = _json(st.integers(-3, 40) | st.floats(-50.0, 50.0) | st.sampled_from([math.nan, True]))


def _locations(doc):
    """Every (container, key) pair inside a JSON document."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
    else:
        items = []
    for key, value in items:
        yield doc, key
        yield from _locations(value)


@st.composite
def _near(draw, valid, junk):
    """A valid document with a single value replaced or a key dropped."""
    doc = draw(valid)
    spots = list(_locations(doc))
    if spots:
        container, key = draw(st.sampled_from(spots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(junk)
    return doc


def _parses_or_value_error(parse, arg):
    try:
        parse(arg)
    except ValueError:
        pass


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NONNEGATIVE = st.floats(0.0, allow_infinity=False)
_PAIR = st.lists(_FINITE, min_size=2, max_size=2)
_CELL = st.fixed_dictionaries({"re": _FINITE, "im": _FINITE})

_MATRICES = st.integers(0, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "n": st.just(n),
            "entries": st.lists(
                st.lists(_CELL, min_size=n, max_size=n), min_size=n, max_size=n
            ),
        }
    )
)
_GRAPHS = st.integers(1, 8).flatmap(
    lambda n: st.fixed_dictionaries(
        {"n": st.just(n), "edges": st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2))}
    )
)
_OVALS = st.builds(lambda a, b, p: {"oval": {"a": a, "b": b, "p": p}}, _PAIR, _PAIR, _NONNEGATIVE)


def _regions(ovals):
    return st.recursive(
        st.one_of(
            st.builds(lambda c, r: {"disk": {"center": c, "radius": r}}, _PAIR, _NONNEGATIVE),
            ovals,
            st.builds(lambda pts: {"points": pts}, st.lists(_PAIR, max_size=3)),
        ),
        lambda kids: st.builds(
            lambda op, children: {"op": op, "children": children},
            st.sampled_from(["union", "intersection"]),
            st.lists(kids, max_size=4),
        ),
        max_leaves=12,
    )


def _foci_a_float_apart(obj):
    (ax, ay), (bx, by) = obj["oval"]["a"], obj["oval"]["b"]
    return math.hypot(ax - bx, ay - by) < math.inf


_REGIONS = _regions(_OVALS)
# every oval one that CassiniOval accepts, whose foci are a float distance apart
_VALID_REGIONS = _regions(_OVALS.filter(_foci_a_float_apart))


@given(st.text(max_size=40))
def test_non_json_text_is_a_value_error(text):
    for parse in (matrix_from_json, graph_from_json):
        _parses_or_value_error(parse, text)


@pytest.mark.parametrize("parse", [matrix_from_json, graph_from_json])
def test_empty_text_is_a_value_error(parse):
    with pytest.raises(ValueError):
        parse("")


@settings(max_examples=300)
@given(_near(_MATRICES, _ODD_NUMBERS | _JUNK) | _MATRICES | _JUNK)
def test_matrix_from_json(obj):
    _parses_or_value_error(matrix_from_json, json.dumps(obj))


@settings(max_examples=300)
@given(_near(_GRAPHS, _SMALL_JUNK) | _GRAPHS | _SMALL_JUNK)
def test_graph_from_json(obj):
    _parses_or_value_error(graph_from_json, json.dumps(obj))


@settings(max_examples=300)
@given(_near(_REGIONS, _ODD_NUMBERS | _JUNK) | _JUNK)
def test_region_from_json(obj):
    _parses_or_value_error(region_from_json, obj)


@given(_VALID_REGIONS)
def test_region_json_round_trip(obj):
    assert region_to_json(region_from_json(obj)) == obj
