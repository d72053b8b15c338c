"""Exact rational series and linear algebra.

Coefficients are exact: int or fractions.Fraction, never floating point.
Series coefficients are Fractions, since their arithmetic divides. A
TruncatedSeries stores coefficients 0..N for a fixed truncation order N and
binary operations truncate to the smaller order, which is the usual
semantics for formal power series prefixes. The generating series of a
species (`egf`, `ogf`, `tgf`, `cycle_index`) are computed here from its
structures.

The linear algebra is one sparse echelon engine (`Echelon`), used by the
kernel computations elsewhere. It eliminates integer rows by integer
cross-multiplication; Fractions appear only where rref()/kernel() divide by
a pivot entry other than 1. A reduced row with unit pivot stays integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .reports import FAIL, PASS, TestReport
from .species import FiniteSet, SpeciesSpec, labelset, orbit_count, qstr

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


def inverse_binomial_transform(b) -> list:
    """a_n = sum_i C(n,i) b_{n-i}; inverse of binomial_transform."""
    b = list(b)
    return [sum(comb(n, i) * b[n - i] for i in range(n + 1))
            for n in range(len(b))]


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


def integer_partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


def _perm_of_type(I: FiniteSet, lam) -> dict:
    """A permutation of I whose cycle type is the partition `lam`."""
    toks = tuple(I)
    sigma = {}
    pos = 0
    for part in lam:
        cyc = toks[pos: pos + part]
        for i, t in enumerate(cyc):
            sigma[t] = cyc[(i + 1) % part]
        pos += part
    return sigma


def _cycle_type_counts(lam, n: int) -> tuple:
    expts = [0] * n
    for part in lam:
        expts[part - 1] += 1
    return tuple(expts)


def _z_lambda(lam) -> int:
    z = 1
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m * factorial(m)
    return z


def cycle_index(sp: SpeciesSpec, order: int) -> CycleIndexPoly:
    """Z = sum_n (1/n!) sum_{sigma in S_n} fix(sigma) x^{cycletype(sigma)},
    computed one conjugacy class at a time."""
    terms: dict = {}
    for n in range(order + 1):
        I = labelset(n)
        structs = sp.structures(I)
        for lam in integer_partitions(n):
            sigma = _perm_of_type(I, lam)
            fix = sum(1 for s in structs if s.relabel(sigma) == s)
            if fix:
                e = _cycle_type_counts(lam, n) if n else ()
                terms[e] = terms.get(e, Q(0)) + Q(fix, _z_lambda(lam))
    return CycleIndexPoly(terms, order)


# ---------------------------------------------------------------------------
# Sparse fraction-free echelon engine
# ---------------------------------------------------------------------------

def _integer_row(row: dict) -> dict:
    """`row` itself when every entry is an int; otherwise its multiple by the
    least common denominator, an integer row on the same support."""
    if all(type(v) is int for v in row.values()):
        return row
    denom = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (denom // v.denominator) for c, v in row.items()}


def _row_gcd_normalize(row: dict) -> dict:
    """Scale a sparse integer row to coprime entries with positive leading
    entry."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g not in (0, 1):
        row = {c: v // g for c, v in row.items()}
    return row


class Echelon:
    """Incremental sparse row echelon over Q.

    Rows are dicts column -> int or Fraction; each row is scaled to an
    integer row once and eliminated fraction-free. Stored pivot rows are
    gcd-normalized integer rows; membership and rank queries never need
    back-substitution, which is deferred to rref()/kernel().
    """

    def __init__(self):
        self.pivots: dict = {}

    @classmethod
    def from_echelon_form(cls, rows) -> "Echelon":
        """Hold rows that already have pairwise distinct leading columns,
        as they are: nothing is eliminated, each row is only rescaled."""
        ech = cls()
        for row in rows:
            row = _row_gcd_normalize(_integer_row(row))
            ech.pivots[min(row)] = row
        return ech

    def reduce(self, row: dict) -> dict:
        """Forward-reduce a copy of `row` against the stored pivot rows.

        A row with Fraction entries is scaled to an integer row on entry, so
        the result is an integer multiple of the reduced row. The copy is
        private, so it is updated in place; it is scaled by the pivot entry
        (integer cross-multiplication, fraction-free) only when that entry
        is not 1, which gcd normalization makes the common case.
        """
        row = _integer_row({c: v for c, v in row.items() if v})
        pivots = self.pivots
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                return row
            f, p = row[c], prow[c]
            if p != 1:
                row = {cc: v * p for cc, v in row.items()}
            for cc, v in prow.items():
                # f and v are nonzero, so a zero result means cc was in row
                nv = row.get(cc, 0) - f * v
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        row = _row_gcd_normalize(row)
        self.pivots[min(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def rref(self) -> dict:
        """Fully reduced rows with pivot value 1, keyed by pivot column.

        Back-substitution stays fraction-free: each stored pivot row is
        reduced against the already reduced integer rows of the later pivot
        columns by cross-multiplication and gcd-normalized. A row whose
        pivot entry is then 1 is returned as ints; only the entries of a
        row with another pivot entry are Fractions, one division each.
        """
        reduced = {}
        out = {}
        for c in sorted(self.pivots, reverse=True):
            acc = self.pivots[c]
            for cc in [k for k in acc if k in reduced]:
                # reduced[cc] is zero at every other pivot column, so this
                # only adds entries at free columns
                prow = reduced[cc]
                g = gcd(acc[cc], prow[cc])
                f, p = acc[cc] // g, prow[cc] // g
                acc = {k: v * p for k, v in acc.items()}
                for k, v in prow.items():
                    nv = acc.get(k, 0) - f * v
                    if nv:
                        acc[k] = nv
                    else:
                        acc.pop(k, None)
            acc = reduced[c] = _row_gcd_normalize(acc)
            lead = acc[c]
            # a copy: acc may be the stored pivot row itself
            out[c] = (dict(acc) if lead == 1
                      else {k: Fraction(v, lead) for k, v in acc.items()})
        return out

    def kernel(self, ncols: int) -> list:
        """Deterministic kernel basis of the row system, one sparse vector
        {column: nonzero exact rational} per free column in ascending order:
        1 at its free column, minus that column's rref entry at each pivot.
        """
        rref = self.rref()
        basis = {f: {f: 1} for f in range(ncols) if f not in rref}
        for c, row in rref.items():
            for f, v in row.items():
                # an rref row is zero at every other pivot column
                if f != c:
                    basis[f][c] = -v
        return list(basis.values())
