"""Exact rational power series.

Coefficients are exact: int or fractions.Fraction, never floating point.
Series coefficients are Fractions, since their arithmetic divides. A
TruncatedSeries stores coefficients 0..N for a fixed truncation order N and
binary operations truncate to the smaller order, which is the usual
semantics for formal power series prefixes. The generating series of a
species (`egf`, `ogf`, `tgf`) are computed here from its counts.

The sparse echelon engine lives in `echelon`; `Echelon` is re-exported
here as the same object.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# re-exported: perfbench's tracer reads Echelon here
from .echelon import Echelon
from .reports import FAIL, PASS, TestReport
from .species import SpeciesSpec, orbit_count
from .vectors import qstr

Q = Fraction

DEFAULT_ORDER = 8


class ZeroConstantTerm(ArithmeticError):
    """Series division by a denominator with zero constant term."""


class BadConstantTerm(ArithmeticError):
    """exp/log, or a division that needs constant term 1, got another."""


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("exact coefficient expected, got %r" % (x,))


class TruncatedSeries:
    """A power series prefix: exact coefficients of x^0 .. x^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [_q(c) for c in coeffs]
        if order is None:
            if not coeffs:
                raise ValueError("empty coefficient list needs an explicit order")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        coeffs = coeffs[: order + 1]
        coeffs += [Q(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls([0], order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls([1], order)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries([other], self.order)
        n = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)], n)

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries)
                       else TruncatedSeries([-_q(other)], self.order))

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        out = [Q(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out, n)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        """Quotient q with q*other == self up to the common order.

        The denominator needs a nonzero constant term; it does not have to
        be 1 since with exact rationals we can scale freely.
        """
        if isinstance(other, (int, Fraction)):
            return self * (Q(1) / _q(other))
        n = min(self.order, other.order)
        d0 = other.coeffs[0]
        if d0 == 0:
            raise ZeroConstantTerm("denominator has zero constant term")
        out = [Q(0)] * (n + 1)
        for k in range(n + 1):
            acc = self.coeffs[k]
            for i in range(k):
                acc -= out[i] * other.coeffs[k - i]
            out[k] = acc / d0
        return TruncatedSeries(out, n)

    def exp(self) -> "TruncatedSeries":
        """Formal exponential; requires constant term 0."""
        if self.coeffs[0] != 0:
            raise BadConstantTerm("exp needs constant term 0")
        n = self.order
        out = [Q(0)] * (n + 1)
        out[0] = Q(1)
        # b' = a' b gives n*b_n = sum_{k=1}^{n} k a_k b_{n-k}
        for m in range(1, n + 1):
            acc = Q(0)
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    acc += k * self.coeffs[k] * out[m - k]
            out[m] = acc / m
        return TruncatedSeries(out, n)

    def log(self) -> "TruncatedSeries":
        """Formal logarithm; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise BadConstantTerm("log needs constant term 1")
        n = self.order
        out = [Q(0)] * (n + 1)
        # l' = a'/a gives n*a_0*l_n = n*a_n - sum_{k=1}^{n-1} k l_k a_{n-k}
        for m in range(1, n + 1):
            acc = m * self.coeffs[m]
            for k in range(1, m):
                if out[k]:
                    acc -= k * out[k] * self.coeffs[m - k]
            out[m] = acc / m
        return TruncatedSeries(out, n)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return "TruncatedSeries(%s)" % (self,)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(qstr(c))
            else:
                mag = qstr(abs(c)) + "*" if abs(c) != 1 else ""
                var = "x" if i == 1 else "x^%d" % i
                sign = "- " if c < 0 else ("+ " if terms else "")
                terms.append("%s%s%s" % (sign, mag, var))
        return " ".join(terms) if terms else "0"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [qstr(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        return cls([Fraction(c) for c in data["coeffs"]], data["order"])


def nonneg_prefix(s: TruncatedSeries) -> TestReport:
    """Pass iff every stored coefficient is >= 0; witness the first negative."""
    for i, c in enumerate(s.coeffs):
        if c < 0:
            return TestReport("nonneg-prefix", FAIL, first_violation=i,
                              witness={"coefficient": c})
    return TestReport("nonneg-prefix", PASS)


def binomial_transform(a) -> list:
    """b_n = sum_i C(n,i) (-1)^i a_{n-i}, same length as the input."""
    a = list(a)
    return [sum(comb(n, i) * (-1) ** i * a[n - i] for i in range(n + 1))
            for n in range(len(a))]


def ogf_from_counts(a, order: int | None = None) -> TruncatedSeries:
    a = list(a)
    if order is None:
        order = len(a) - 1
    return TruncatedSeries([_q(c) for c in a], order)


def egf_from_counts(a, order: int | None = None) -> TruncatedSeries:
    a = list(a)
    if order is None:
        order = len(a) - 1
    return TruncatedSeries([_q(c) / factorial(n) for n, c in enumerate(a)], order)


# ---------------------------------------------------------------------------
# Generating series of a species
# ---------------------------------------------------------------------------

def egf(sp: SpeciesSpec, order: int) -> TruncatedSeries:
    return egf_from_counts(sp.dims(order))


def ogf(sp: SpeciesSpec, order: int) -> TruncatedSeries:
    return ogf_from_counts(sp.dims(order))


def tgf(sp: SpeciesSpec, order: int) -> TruncatedSeries:
    return ogf_from_counts([orbit_count(sp, n) for n in range(order + 1)])
