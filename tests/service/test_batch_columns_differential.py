"""Differential suite: the vectorized body guard against the per-item loop.

``_batch_columns`` checks each list field with one vectorized guard
(``server._column``) and falls back to the per-item loop
(``server._checked_column``) only to name an error.  The loop is the
oracle: with ``_column`` replaced by it, ``_batch_columns`` checks every
item one by one.  For any body, both must return the same columns, with
equal values of equal Python types, or raise the same ``HTTPError``.

Bodies mix ints, floats, bools, strings, ``None`` and nested lists;
``NaN`` and ``±Infinity`` (which ``json.loads`` accepts); integers past
the float range and past int64; ``-0.0``; and fractional values in
integer fields.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import server
from repro.service.http import HTTPError

FORMS = {
    "conflict": server._CONFLICT.fields,
    "sizing": server._SIZING.fields,
    "birthday_people": server._BIRTHDAY_PEOPLE.fields,
    "birthday_target": server._BIRTHDAY_TARGET.fields,
}

EDGE_NUMBERS = [
    -0.0, 0.0, 0.5, 2.5, -1.5, 1e300, -1e300, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
    2**53 + 1, 2**63 - 1, 2**63 + 1, -(2**63) - 1, 2**64 + 1, 10**300,
    2**1024 - 2**970 - 1,  # the largest int that float() rounds to a finite value
    2**1024 - 2**970,  # the smallest that overflows
    10**400, -(10**400),
]

numbers = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-1000, max_value=1000).map(float),  # integral floats
    st.sampled_from(EDGE_NUMBERS),
)
junk = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)
items = st.one_of(numbers, numbers, numbers, junk)


@st.composite
def bodies(draw):
    form = draw(st.sampled_from(sorted(FORMS)))
    fields = FORMS[form]
    length = draw(st.integers(min_value=1, max_value=6))
    clean = draw(st.booleans())  # mostly-valid bodies reach the guard's pass path
    body = {}
    for name, kind, _ in fields:
        shape = draw(st.sampled_from(["list", "list", "scalar", "absent"]))
        if shape == "absent":
            continue
        if clean:
            value = (st.integers(min_value=-10, max_value=10**6) if kind is int
                     else st.floats(min_value=-10.0, max_value=1e6))
            value = st.one_of(value, value.map(float), st.sampled_from(EDGE_NUMBERS[:6]))
        else:
            value = items
        if shape == "scalar":
            body[name] = draw(value)
        else:
            size = length + draw(st.sampled_from([0, 0, 0, 0, 1, -length]))
            body[name] = draw(st.lists(value, min_size=size, max_size=size))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        body["extra"] = [1]
    # Round-trip through JSON, as the server sees a body (NaN/Infinity tokens kept).
    return fields, json.loads(json.dumps(body))


def outcome(parsed, fields):
    try:
        columns, length = server._batch_columns(parsed, fields)
    except HTTPError as exc:
        return ("error", exc.status, exc.detail)
    typed = {name: [(type(v), repr(v)) for v in column] for name, column in columns.items()}
    return ("ok", length, typed)


def oracle(parsed, fields):
    with mock.patch.object(server, "_column", server._checked_column):
        return outcome(parsed, fields)


@given(bodies())
@settings(max_examples=400, deadline=None)
def test_guard_matches_per_item_loop(case):
    fields, parsed = case
    assert outcome(parsed, fields) == oracle(parsed, fields)


def test_guard_cases_reach_both_paths():
    # The pass path keeps exact ints and each item's own type per field.
    fields = FORMS["conflict"]
    body = {"w": [1, 2.5, -0.0, 10**300], "n": [4096.0, 2**53 + 1, 10**300, 7]}
    got = outcome(body, fields)
    assert got == oracle(body, fields)
    assert got[2]["w"] == [(float, "1.0"), (float, "2.5"), (float, "-0.0"), (float, "1e+300")]
    assert got[2]["n"] == [(int, "4096"), (int, str(2**53 + 1)), (int, str(10**300)), (int, "7")]
    # Each failing guard names the same first bad item as the loop.
    for bad in ([1, 10**400], [1, float("nan")], [1, True], [1, "2"], [1, [2]], [1, 2.5]):
        body = {"w": [1, 2], "n": bad}
        assert outcome(body, fields) == oracle(body, fields)
        assert outcome(body, fields)[0] == "error"
