"""Machine-readable test reports with exact rational witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .species import qstr

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def jsonable(value):
    """Recursively convert a witness payload to JSON-safe values.

    Fractions become 'p/q' strings so no precision is lost; ints stay ints.
    """
    if isinstance(value, Fraction):
        return qstr(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass
class TestReport:
    """Outcome of one necessary-condition test.

    A fail verdict always carries the first violated index and exact witness
    values; `details` holds test-specific payload (instantiated inequalities,
    quotient series, ...) and `warnings` non-fatal observations.
    """

    name: str
    verdict: str
    first_violation: int | None = None
    witness: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

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
