"""Necessary-condition tests on dimension sequences.

Each test is a gate that the dimension sequence (and, where present, the
orbit-count sequence) of a connected Hopf monoid must pass. All of them are
necessary conditions only; a fail verdict certifies that no Hopf monoid of
the stated kind exists with those dimensions, a pass verdict certifies
nothing. Verdicts carry the first violated index and exact witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exactalg import (TruncatedSeries, binomial_transform, egf_from_counts,
                       nonneg_prefix, ogf_from_counts)
from .reports import FAIL, INCONCLUSIVE, PASS, TestReport


class PreconditionFailed(ValueError):
    """The test's hypotheses do not hold for this input."""


@dataclass
class DimSequence:
    """A dimension sequence, optionally with its orbit-count companion."""

    name: str
    a: tuple
    abar: tuple | None = None

    def __post_init__(self):
        self.a = _counts(self.a, "dimension")
        if self.abar is not None:
            self.abar = _counts(self.abar, "orbit")

    @classmethod
    def from_json(cls, data) -> "DimSequence":
        if not isinstance(data, dict):
            raise ValueError("sequence file must hold a JSON object {name, a, abar?}")
        return cls(data.get("name", "sequence"), data.get("a"), data.get("abar"))

    def to_json(self) -> dict:
        out = {"name": self.name, "a": list(self.a)}
        if self.abar is not None:
            out["abar"] = list(self.abar)
        return out


def _counts(values, what: str) -> tuple:
    """A nonempty count sequence as a tuple of nonnegative ints; anything
    else, such as a missing or empty list or a non-integral entry, is
    refused, never truncated."""
    if isinstance(values, (list, tuple)) and not values:
        raise ValueError("%s sequence must be a nonempty list of integers: %r"
                         % (what, values))
    if not isinstance(values, (list, tuple)) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise ValueError("%s sequence must be a list of integers: %r" % (what, values))
    if any(x < 0 for x in values):
        raise ValueError("%s sequences are nonnegative" % what)
    return tuple(values)


def series_window(order: int | None, *lengths: int) -> int:
    """The truncation order for series built from sequences of these lengths:
    their common prefix when `order` is None. An order past the shortest
    sequence is refused rather than padded with zeros, since made-up zero
    terms would certify a failure that the data does not show."""
    have = min(lengths) - 1
    if order is None:
        return have
    if order > have:
        raise ValueError("order %d needs terms 0..%d, but only 0..%d are given"
                         % (order, order, have))
    return order


def _quotient_gate(name: str, num: TruncatedSeries, den: TruncatedSeries,
                   details: dict | None = None,
                   warn_non_integer: bool = False) -> TestReport:
    """The Lagrange quotient gate behind every series test: divide, demand a
    nonnegative prefix, and report under the gate's own name with the
    quotient plus any extra details. A denominator with zero constant term
    raises the division's own ZeroConstantTerm."""
    quot = num / den
    warnings = []
    if warn_non_integer:
        warnings = ["coefficient of x^%d is %s, not an integer" % (i, c)
                    for i, c in enumerate(quot.coeffs) if c.denominator != 1][:1]
    prefix = nonneg_prefix(quot)
    return TestReport(name, prefix.verdict, prefix.first_violation,
                      prefix.witness, {"quotient": quot.to_json(), **(details or {})},
                      warnings)


def quotient_nonneg_test(numer: DimSequence, denom: DimSequence, kind: str,
                         order: int | None = None) -> TestReport:
    """Divide the chosen generating series and demand a nonnegative prefix.

    This is the submonoid/quotient gate: if the quotient has a negative
    coefficient, `denom` cannot sit inside (or under) `numer` as a Hopf
    monoid.
    """
    lengths, counts = [len(numer.a), len(denom.a)], (numer.a, denom.a)
    if kind == "tgf":
        # the window spans both dimension and both orbit sequences
        counts = (numer.abar, denom.abar)
        lengths += [len(c) for c in counts if c is not None]
    order = series_window(order, *lengths)
    if kind not in ("ogf", "egf", "tgf"):
        raise ValueError("kind must be 'ogf', 'egf' or 'tgf'")
    if None in counts:
        raise PreconditionFailed("type series needs the orbit sequence")
    build = egf_from_counts if kind == "egf" else ogf_from_counts
    return _quotient_gate("quotient-nonneg(%s)" % kind,
                          *(build(c, order) for c in counts))


def ord_exp_test(seq: DimSequence, order: int | None = None) -> TestReport:
    """Nonnegativity of the ordinary-by-exponential quotient, with the two
    low-order polynomial inequalities instantiated exactly."""
    a = seq.a
    if a[0] != 1:
        raise PreconditionFailed("connectedness needs a_0 = 1")
    order = series_window(order, len(a))
    inequalities = []
    if len(a) >= 4:
        lhs, rhs = 5 * a[3], 3 * a[2] * a[1]
        inequalities.append({"inequality": "5*a3 >= 3*a2*a1",
                             "lhs": lhs, "rhs": rhs, "holds": lhs >= rhs})
    if len(a) >= 5:
        lhs = 23 * a[4] + 12 * a[2] * a[1] ** 2
        rhs = 20 * a[3] * a[1] + 6 * a[2] ** 2
        inequalities.append({"inequality": "23*a4 + 12*a2*a1^2 >= 20*a3*a1 + 6*a2^2",
                             "lhs": lhs, "rhs": rhs, "holds": lhs >= rhs})
    return _quotient_gate("ord/exp", ogf_from_counts(a, order),
                          egf_from_counts(a, order), {"inequalities": inequalities})


def ord_type_test(seq: DimSequence, order: int | None = None) -> TestReport:
    """Nonnegativity of the ordinary-by-type quotient; non-integer
    coefficients are reported as a warning, not a failure, since the sign
    is the discriminating part."""
    if seq.abar is None:
        raise PreconditionFailed("the ord/type test needs the orbit sequence")
    order = series_window(order, len(seq.a), len(seq.abar))
    return _quotient_gate("ord/type", ogf_from_counts(seq.a, order),
                          ogf_from_counts(seq.abar, order), warn_non_integer=True)


def _orbits_nondecreasing(name: str, seq: DimSequence, details: dict) -> TestReport:
    """Pass unless the orbit sequence, when given, drops somewhere."""
    abar = seq.abar or ()
    for n in range(1, len(abar)):
        if abar[n] < abar[n - 1]:
            return TestReport(name, FAIL, first_violation=n, details=details,
                              witness={"abar_n": abar[n], "abar_{n-1}": abar[n - 1]})
    return TestReport(name, PASS, details=details)


def e_test(seq: DimSequence) -> TestReport:
    """Gate for containing or surjecting onto the one-dimensional monoid:
    the binomial transform must be nonnegative; the orbit sequence, if
    given, must be nondecreasing."""
    a = seq.a
    if a[0] != 1:
        raise PreconditionFailed("connectedness needs a_0 = 1")
    b = binomial_transform(a)
    details = {"binomial_transform": b}
    for n, bn in enumerate(b):
        if bn < 0:
            return TestReport("e-test", FAIL, first_violation=n,
                              witness={"b_n": bn}, details=details)
    return _orbits_nondecreasing("e-test", seq, details)


def l_test(seq: DimSequence) -> TestReport:
    """Gate for containing or surjecting onto linear orders:
    a_n >= n a_{n-1}, and the orbit sequence must be nondecreasing."""
    a = seq.a
    margins = [a[n] - n * a[n - 1] for n in range(1, len(a))]
    details = {"margins": margins}
    for n in range(1, len(a)):
        if a[n] < n * a[n - 1]:
            return TestReport("l-test", FAIL, first_violation=n,
                              witness={"a_n - n*a_{n-1}": a[n] - n * a[n - 1]},
                              details=details)
    return _orbits_nondecreasing("l-test", seq, details)


def ek_test(seq: DimSequence, k: int, order: int | None = None) -> TestReport:
    """Gate from the inclusion of the k-th into the (k+1)-st Cauchy power of
    the one-dimensional monoid: the quotient of the twisted exponential
    series must be nonnegative, and two explicit inequalities hold at k."""
    a = seq.a
    if a[0] != 1:
        raise PreconditionFailed("connectedness needs a_0 = 1")
    if k < 0:
        raise PreconditionFailed("k must be nonnegative")
    order = series_window(order, len(a))
    inequalities = []
    if len(a) >= 3:
        lhs, rhs = (2 * k + 1) * a[2], 2 * k * a[1] ** 2
        inequalities.append({"inequality": "(2k+1)*a2 >= 2k*a1^2", "k": k,
                             "lhs": lhs, "rhs": rhs, "holds": lhs >= rhs})
    if len(a) >= 4:
        lhs = (3 * k * k + 3 * k + 1) * a[3]
        rhs = 3 * (3 * k * k + k) * a[2] * a[1] - 6 * k * k * a[1] ** 3
        inequalities.append({"inequality": "(3k^2+3k+1)*a3 >= 3(3k^2+k)*a2*a1 - 6k^2*a1^3",
                             "k": k, "lhs": lhs, "rhs": rhs, "holds": lhs >= rhs})
    return _quotient_gate(
        "ek-test(k=%d)" % k,
        egf_from_counts([(k + 1) ** n * a[n] for n in range(order + 1)], order),
        egf_from_counts([k ** n * a[n] for n in range(order + 1)], order),
        {"inequalities": inequalities})


def ek_limit_test(seq: DimSequence) -> TestReport:
    """The k -> infinity limit inequalities a2 >= a1^2 and
    a3 >= 3 a2 a1 - 2 a1^3; purely polynomial, no series division."""
    a = seq.a
    if len(a) < 4:
        return TestReport("ek-limit", INCONCLUSIVE,
                          warnings=["need a_0..a_3 to instantiate both inequalities"])
    ineq1 = {"inequality": "a2 >= a1^2", "lhs": a[2], "rhs": a[1] ** 2,
             "holds": a[2] >= a[1] ** 2}
    rhs2 = 3 * a[2] * a[1] - 2 * a[1] ** 3
    ineq2 = {"inequality": "a3 >= 3*a2*a1 - 2*a1^3", "lhs": a[3], "rhs": rhs2,
             "holds": a[3] >= rhs2}
    details = {"inequalities": [ineq1, ineq2]}
    if not ineq1["holds"]:
        return TestReport("ek-limit", FAIL, first_violation=2,
                          witness={"a2": a[2], "a1^2": a[1] ** 2}, details=details)
    if not ineq2["holds"]:
        return TestReport("ek-limit", FAIL, first_violation=3,
                          witness={"a3": a[3], "3*a2*a1 - 2*a1^3": rhs2},
                          details=details)
    return TestReport("ek-limit", PASS, details=details)


def supermult_test(seq: DimSequence) -> TestReport:
    """a_{i+j} >= a_i a_j for all splits inside the window."""
    a = seq.a
    for n in range(len(a)):
        for i in range(n + 1):
            j = n - i
            if a[n] < a[i] * a[j]:
                return TestReport(
                    "supermultiplicative", FAIL, first_violation=n,
                    witness={"a_n": a[n], "a_i*a_j": a[i] * a[j], "i": i, "j": j})
    return TestReport("supermultiplicative", PASS)


def growth_test(seq: DimSequence, k: int) -> TestReport:
    """Weak monotonicity (needs a_1 >= 1) and the proven lower bound
    a_n >= 2^floor(n/k), given a_k >= 2 and a_i >= 1 below k."""
    a = seq.a
    if k < 1 or k >= len(a):
        raise PreconditionFailed("k must satisfy 1 <= k < len(a)")
    if a[k] < 2 or any(a[i] < 1 for i in range(k)):
        raise PreconditionFailed(
            "growth test needs a_k >= 2 and a_i >= 1 for i < k")
    if a[1] >= 1:
        for n in range(1, len(a)):
            if a[n] < a[n - 1]:
                return TestReport("growth", FAIL, first_violation=n,
                                  witness={"a_n": a[n], "a_{n-1}": a[n - 1]})
    for n in range(len(a)):
        bound = 2 ** (n // k)
        if a[n] < bound:
            return TestReport("growth", FAIL, first_violation=n,
                              witness={"a_n": a[n], "2^(n/k)": bound})
    return TestReport("growth", PASS)


def support_test(seq: DimSequence) -> TestReport:
    """Within the window, the support must be closed under addition; the
    report carries the gcd of the positive support and whether the support's
    complement can be finite (gcd 1). A finite prefix can never certify
    closure globally, so a pass is a pass within the window."""
    a = seq.a
    supp = [n for n, v in enumerate(a) if v != 0]
    positive = [n for n in supp if n > 0]
    g = 0
    for n in positive:
        g = gcd(g, n)
    details = {
        "support": supp,
        "gcd": g,
        "complement_can_be_finite": g == 1,
        "support_infinite_unless_zero": bool(positive),
        "window": len(a) - 1,
    }
    if not positive:
        return TestReport("support", INCONCLUSIVE, details=details,
                          warnings=["support is {0} within the window"])
    sset = set(supp)
    for n in range(len(a)):
        if n in sset:
            continue
        for i in positive:
            j = n - i
            if j in sset and j > 0:
                return TestReport("support", FAIL, first_violation=n,
                                  witness={"i": i, "j": j, "a_{i+j}": a[n]},
                                  details=details)
    return TestReport("support", PASS, details=details,
                      warnings=["closure verified within the window only"])
