import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfspecies import reports
from hopfspecies.reports import TermList, _write, jsonable, quote
from hopfspecies.species import FiniteSet, SetComposition, qstr


def oracle(value) -> str:
    """What the CLI printed before the one-walk writer."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2)


def written(value) -> str:
    """The pieces `_write` puts for `value`, joined."""
    pieces = []
    _write(value, pieces.append, "\n")
    return "".join(pieces)


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
        assert written(value) == oracle(value)

    def test_int_keys_sort_as_strings(self):
        value = {10: Q(1, 2), 9: [True, None, ()], "é": {"z": Q(4, 2)}}
        assert written(value) == oracle(value) == (
            '{\n  "10": "1/2",\n  "9": [\n    true,\n    null,\n    []\n  ],\n'
            '  "\\u00e9": {\n    "z": "2"\n  }\n}')

    def test_keys_equal_as_strings_keep_the_last_value(self):
        value = {1: "int", "1": "str"}
        assert written(value) == oracle(value) == '{\n  "1": "str"\n}'

    def test_empty_containers_and_scalars(self):
        for value in ({}, [], (), "", 0, -7, Q(-3, 4), None, False, 2.5,
                      FiniteSet("ab"), [{}, [[]]], {"": {}}):
            assert written(value) == oracle(value)

    def test_reports_and_structures(self):
        report = reports.TestReport("t", "fail", first_violation=3,
                                    witness={"c": Q(-1, 3)},
                                    details={"s": [1, Q(2)]}, warnings=["w"])
        s = SetComposition((("a",), ("b", "c")))
        value = {"details": [report.to_json(), report], "structure": s,
                 "ambient": FiniteSet("abc")}
        assert written(value) == oracle(value)


def nest(value, depth):
    """`value` held `depth` containers deep, dicts and lists alternating."""
    for d in range(depth):
        value = {"terms": value, "n": d} if d % 2 == 0 else [value, d]
    return value


class TestTermList:
    """A TermList is written as the dict list QVector.to_json gives for the
    same terms, at every indentation depth."""

    NAMES = ["a|b", 'q"uote', "back\\slash", "\u00e9t\u00e9", "tab\tnew\nline", ""]

    def dict_list(self, items):
        return [{"coeff": qstr(c), "structure": self.NAMES[j]} for j, c in items]

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("items", [
        [],
        [(0, 1)],
        [(0, 1), (1, -1), (2, 12), (3, -340282366920938463463374607431768211457)],
        [(1, Q(1, 2)), (2, Q(-7, 3)), (4, Q(6, 3)), (5, Q(-4, 2))],
        [(0, -2), (2, Q(5, 4)), (3, 1), (4, True), (5, Q(-1, 9))],
    ])
    def test_same_bytes_as_the_dict_list(self, depth, items):
        quoted = [quote(t) for t in self.NAMES]
        terms = TermList(items, quoted)
        dicts = self.dict_list(items)
        assert written(nest(terms, depth)) == written(nest(dicts, depth))
        assert written(nest(dicts, depth)) == oracle(nest(dicts, depth))

    @given(st.lists(st.tuples(st.integers(0, 5), st.one_of(st.integers(), fractions)),
                    max_size=6), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_any_terms(self, items, depth):
        quoted = [quote(t) for t in self.NAMES]
        assert (written(nest(TermList(items, quoted), depth))
                == oracle(nest(self.dict_list(items), depth)))
