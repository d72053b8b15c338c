"""Machine-readable test reports with exact rational witnesses."""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote

from .species import qstr

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def _scalar(value):
    """The JSON-safe form of a value that is not a list, tuple or dict.

    Fractions become 'p/q' strings so no precision is lost; ints, bools and
    None stay as they are; anything else becomes its str.
    """
    if isinstance(value, Fraction):
        return qstr(value)
    if value is None or isinstance(value, int):
        return value
    return str(value)


def jsonable(value):
    """Recursively convert a witness payload to JSON-safe values: lists and
    tuples to lists, dict keys to their str, every other value by `_scalar`."""
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return _scalar(value)


class TermList:
    """The terms of one vector, written by `_write` as the list
    [{"coeff": qstr(c), "structure": name}, ...] that `QVector.to_json`
    gives, with no dict built per term.

    `items` are (column, coefficient) pairs in the order to print, and
    `quoted_names[column]` is the name of that column already JSON-quoted,
    so a name shared by many vectors is quoted once."""

    __slots__ = ("items", "quoted_names")

    def __init__(self, items, quoted_names):
        self.items = items
        self.quoted_names = quoted_names

    def write(self, put, nl: str) -> None:
        if not self.items:
            put("[]")
            return
        inner = nl + "  "
        head = inner + "{" + inner + '  "coeff": "'
        mid = '",' + inner + '  "structure": '
        tail = inner + "}"
        names = self.quoted_names
        put("[" + ",".join([head + (str(c) if type(c) is int else qstr(c))
                            + mid + names[j] + tail for j, c in self.items])
            + nl + "]")


def _write(value, put, nl: str) -> None:
    """Write the text of json.dumps(jsonable(value), sort_keys=True,
    indent=2) in pieces through `put`, in one walk over `value` with no
    converted copy in between; lines after the first are indented as `nl`
    says, and a `TermList` is written as the list of dicts it stands for."""
    if type(value) is str:
        put(quote(value))
    elif type(value) is TermList:
        value.write(put, nl)
    elif isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(items):
            put(sep + quote(key) + ": ")
            _write(items[key], put, inner)
            sep = "," + inner
        put(nl + "}" if sep[0] == "," else "{}")
    elif isinstance(value, (list, tuple)):
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write(item, put, inner)
            sep = "," + inner
        put(nl + "]" if sep[0] == "," else "[]")
    else:
        value = _scalar(value)
        if value is None:
            put("null")
        elif value is True:
            put("true")
        elif value is False:
            put("false")
        elif isinstance(value, int):
            put(int.__repr__(value))
        else:
            put(quote(value))


class TestReport:
    """Outcome of one necessary-condition test.

    A fail verdict always carries the first violated index and exact witness
    values; `details` holds test-specific payload (instantiated inequalities,
    quotient series, ...) and `warnings` non-fatal observations.

    A plain class, not a dataclass: importing `dataclasses` would load
    `inspect` and its dependencies into every kernel command.
    """

    def __init__(self, name: str, verdict: str, first_violation: int | None = None,
                 witness: dict | None = None, details: dict | None = None,
                 warnings: list | None = None):
        self.name = name
        self.verdict = verdict
        self.first_violation = first_violation
        self.witness = {} if witness is None else witness
        self.details = {} if details is None else details
        self.warnings = [] if warnings is None else warnings

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        # the fields in __init__'s order, as a dataclass prints them
        return "TestReport(%s)" % ", ".join("%s=%r" % kv for kv in vars(self).items())

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        return {
            "test": self.name,
            "verdict": self.verdict,
            "first_violation": self.first_violation,
            "witness": jsonable(self.witness),
            "details": jsonable(self.details),
            "warnings": list(self.warnings),
        }

    def summary(self) -> str:
        if self.ok:
            return "%s: pass" % self.name
        parts = ["%s: %s" % (self.name, self.verdict)]
        if self.first_violation is not None:
            parts.append("at index %d" % self.first_violation)
        if self.witness:
            parts.append(
                "; ".join("%s = %s" % (k, qstr(v) if isinstance(v, (int, Fraction)) else v)
                          for k, v in self.witness.items()))
        return " ".join(parts)
