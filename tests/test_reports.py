import json
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfspecies import reports
from hopfspecies.reports import json_text, jsonable
from hopfspecies.species import FiniteSet, SetComposition


def oracle(value) -> str:
    """What the CLI printed before the one-walk writer."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2)


class Opaque:
    """An object no JSON rule knows: it is written as its str."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


fractions = st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 10**3))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), fractions, st.text(),
    st.floats(allow_nan=False), st.builds(Opaque, st.text()),
    st.frozensets(st.integers(0, 3), max_size=2))
keys = st.one_of(st.integers(), st.text(max_size=4), st.booleans(), fractions)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=25)


class TestJsonText:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps_of_jsonable(self, value):
        assert json_text(value) == oracle(value)

    def test_int_keys_sort_as_strings(self):
        value = {10: Q(1, 2), 9: [True, None, ()], "é": {"z": Q(4, 2)}}
        assert json_text(value) == oracle(value) == (
            '{\n  "10": "1/2",\n  "9": [\n    true,\n    null,\n    []\n  ],\n'
            '  "\\u00e9": {\n    "z": "2"\n  }\n}')

    def test_keys_equal_as_strings_keep_the_last_value(self):
        value = {1: "int", "1": "str"}
        assert json_text(value) == oracle(value) == '{\n  "1": "str"\n}'

    def test_empty_containers_and_scalars(self):
        for value in ({}, [], (), "", 0, -7, Q(-3, 4), None, False, 2.5,
                      FiniteSet("ab"), [{}, [[]]], {"": {}}):
            assert json_text(value) == oracle(value)

    def test_reports_and_structures(self):
        report = reports.TestReport("t", "fail", first_violation=3,
                                    witness={"c": Q(-1, 3)},
                                    details={"s": [1, Q(2)]}, warnings=["w"])
        s = SetComposition((("a",), ("b", "c")))
        value = {"details": [report.to_json(), report], "structure": s,
                 "ambient": FiniteSet("abc")}
        assert json_text(value) == oracle(value)
