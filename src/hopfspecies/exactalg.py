"""Exact rational power series and cycle index polynomials.

Coefficients are exact: int or fractions.Fraction, never floating point.
Series coefficients are Fractions, since their arithmetic divides. A
TruncatedSeries stores coefficients 0..N for a fixed truncation order N and
binary operations truncate to the smaller order, which is the usual
semantics for formal power series prefixes. The generating series of a
species (`egf`, `ogf`, `tgf`, `cycle_index`) are computed here from its
structures; `cycle_index` reads the one fixed-point count per conjugacy
class, `species.fixed_points`, by which `orbit_count` counts the orbits of
a Hadamard species.

The sparse echelon engine lives in `echelon`; `Echelon` is re-exported
here as the same object.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# re-exported: perfbench's tracer reads Echelon here
from .echelon import Echelon
from .reports import FAIL, PASS, TestReport
# integer_partitions is re-exported: the tests read it here
from .species import (SpeciesSpec, _perm_of_type, _z_lambda, fixed_points,
                      integer_partitions, labelset, orbit_count, qstr)

Q = Fraction

DEFAULT_ORDER = 8


class ZeroConstantTerm(ArithmeticError):
    """Series division by a denominator with zero constant term."""


class BadConstantTerm(ArithmeticError):
    """exp/log or cycle-index division got the wrong constant term."""


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
# Cycle index polynomials
# ---------------------------------------------------------------------------

def _wdeg(expts: tuple) -> int:
    return sum((i + 1) * e for i, e in enumerate(expts))


def _trim(expts) -> tuple:
    expts = tuple(expts)
    while expts and expts[-1] == 0:
        expts = expts[:-1]
    return expts


class CycleIndexPoly:
    """Polynomial in x_1, x_2, ... truncated by weighted degree.

    Monomials are exponent tuples (e_1, e_2, ...) with trailing zeros
    stripped; the weighted degree sum(i*e_i) of every stored monomial is at
    most `order`. Terms print in graded lexicographic order.
    """

    __slots__ = ("order", "terms")

    def __init__(self, terms: dict, order: int):
        clean = {}
        for expts, c in terms.items():
            expts = _trim(expts)
            c = _q(c)
            if c == 0 or _wdeg(expts) > order:
                continue
            clean[expts] = clean.get(expts, Q(0)) + c
        self.order = order
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def one(cls, order: int) -> "CycleIndexPoly":
        return cls({(): Q(1)}, order)

    def coefficient(self, expts) -> Fraction:
        return self.terms.get(_trim(expts), Q(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (_wdeg(kv[0]), kv[0]))

    def __eq__(self, other):
        return (isinstance(other, CycleIndexPoly)
                and self.order == other.order and self.terms == other.terms)

    def __hash__(self):
        return hash((self.order, tuple(self.sorted_terms())))

    def __add__(self, other) -> "CycleIndexPoly":
        n = min(self.order, other.order)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Q(0)) + c
        return CycleIndexPoly(out, n)

    def __sub__(self, other) -> "CycleIndexPoly":
        n = min(self.order, other.order)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Q(0)) - c
        return CycleIndexPoly(out, n)

    def __mul__(self, other) -> "CycleIndexPoly":
        n = min(self.order, other.order)
        out = {}
        for e1, c1 in self.terms.items():
            d1 = _wdeg(e1)
            for e2, c2 in other.terms.items():
                if d1 + _wdeg(e2) > n:
                    continue
                k = max(len(e1), len(e2))
                e = tuple((e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                          for i in range(k))
                out[e] = out.get(e, Q(0)) + c1 * c2
        return CycleIndexPoly(out, n)

    def div(self, other: "CycleIndexPoly") -> "CycleIndexPoly":
        """Quotient q with q*other == self up to weighted degree.

        The divisor must have constant term exactly 1.
        """
        n = min(self.order, other.order)
        if other.coefficient(()) != 1:
            raise BadConstantTerm("cycle index division needs constant term 1")
        rest = {e: c for e, c in other.terms.items() if e != ()}
        # Solve degree by degree: q_d = a_d - (q * (other - 1))_d, where the
        # subtracted product only involves q-terms of strictly smaller degree.
        out: dict = {}
        by_deg: dict = {}
        for e, c in self.terms.items():
            by_deg.setdefault(_wdeg(e), {})[e] = c
        for d in range(n + 1):
            acc = dict(by_deg.get(d, {}))
            for e1, c1 in out.items():
                d1 = _wdeg(e1)
                for e2, c2 in rest.items():
                    if d1 + _wdeg(e2) != d:
                        continue
                    k = max(len(e1), len(e2))
                    e = tuple((e1[i] if i < len(e1) else 0)
                              + (e2[i] if i < len(e2) else 0) for i in range(k))
                    acc[e] = acc.get(e, Q(0)) - c1 * c2
            for e, c in acc.items():
                if c != 0:
                    out[e] = out.get(e, Q(0)) + c
        return CycleIndexPoly(out, n)

    def specialize(self, mode: str) -> TruncatedSeries:
        """'exp': x_1 -> x, x_i -> 0 for i >= 2.  'type': x_i -> x^i."""
        n = self.order
        out = [Q(0)] * (n + 1)
        if mode == "exp":
            for e, c in self.terms.items():
                if any(e[i] for i in range(1, len(e))):
                    continue
                deg = e[0] if e else 0
                out[deg] += c
        elif mode == "type":
            for e, c in self.terms.items():
                out[_wdeg(e)] += c
        else:
            raise ValueError("mode must be 'exp' or 'type'")
        return TruncatedSeries(out, n)

    def __str__(self):
        def mono(e):
            if not e:
                return "1"
            return "*".join("x%d" % (i + 1) if k == 1 else "x%d^%d" % (i + 1, k)
                            for i, k in enumerate(e) if k)
        parts = ["%s*%s" % (qstr(c), mono(e)) for e, c in self.sorted_terms()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Generating series of a species
# ---------------------------------------------------------------------------

def egf(sp: SpeciesSpec, order: int) -> TruncatedSeries:
    return egf_from_counts(sp.dims(order))


def ogf(sp: SpeciesSpec, order: int) -> TruncatedSeries:
    return ogf_from_counts(sp.dims(order))


def tgf(sp: SpeciesSpec, order: int) -> TruncatedSeries:
    return ogf_from_counts([orbit_count(sp, n) for n in range(order + 1)])


def cycle_index(sp: SpeciesSpec, order: int) -> CycleIndexPoly:
    """Z = sum_n (1/n!) sum_{sigma in S_n} fix(sigma) x^{cycletype(sigma)},
    computed one conjugacy class at a time from `species.fixed_points`,
    the count `orbit_count` sums for a Hadamard species."""
    terms: dict = {}
    for n in range(order + 1):
        I = labelset(n)
        for lam in integer_partitions(n):
            fix = fixed_points(sp, I, _perm_of_type(I, lam))
            if fix:
                e = tuple(lam.count(i) for i in range(1, n + 1))
                terms[e] = terms.get(e, Q(0)) + Q(fix, _z_lambda(lam))
    return CycleIndexPoly(terms, order)
