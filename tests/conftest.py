import itertools
from fractions import Fraction

import pytest

from hopfspecies.axioms import AxiomReport, _memo, _sets
from hopfspecies.echelon import _integer_row, _row_gcd_normalize
from hopfspecies.exactalg import BadConstantTerm, TruncatedSeries, _q
from hopfspecies.kernels import _block, _kernel_space
from hopfspecies.species import (SetPartition, SpeciesSpec, _perm_of_type,
                                 _z_lambda, fixed_points, integer_partitions,
                                 labelset, species_PiPrime, species_el)
from hopfspecies.structures import (HopfMonoid, HopfMorphism, get_hopf,
                                    hadamard_hopf, make_E, make_Ek, make_L,
                                    make_Pal, make_Pi, make_Sigma, make_X)
from hopfspecies.vectors import qstr


def reference_reduce(pivots, row):
    """Echelon.reduce as a plain loop that finds each leading column with
    min(row): the same fraction-free steps, in the order the heap in
    Echelon.reduce must reproduce, over the stored pivot rows `pivots`."""
    row = _integer_row({c: v for c, v in row.items() if v})
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            return row
        f, p = row[c], prow[c]
        if p != 1:
            row = {cc: v * p for cc, v in row.items()}
        for cc, v in prow.items():
            nv = row.get(cc, 0) - f * v
            if nv:
                row[cc] = nv
            else:
                del row[cc]
    return row


def reference_add(pivots, row):
    """Echelon.add over `pivots` with reference_reduce; True if it stored
    a new pivot row."""
    row = reference_reduce(pivots, row)
    if not row:
        return False
    row = _row_gcd_normalize(row)
    pivots[min(row)] = row
    return True


def reference_rref(rows, ncols):
    """Naive dense Gauss-Jordan elimination over Fraction, independent of
    the sparse Echelon engine: the reduced row echelon form of `rows`
    (sequences of length ncols) as tuples, and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[:len(pivots)]], pivots


def reference_kernel(rows, ncols):
    """Kernel basis read off reference_rref: one vector per free column in
    ascending order, 1 there and 0 at every other free column."""
    rref, pivots = reference_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(rref, pivots):
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return basis


def orbits_by_relabeling(sp, I) -> int:
    """The orbits of the structures of `sp` on I, counted by applying every
    bijection of I to one stored structure of each orbit: a reference for
    the Burnside count of `species.orbit_count`, at desk scale only."""
    seen = set()
    count = 0
    perms = [dict(zip(I, img)) for img in itertools.permutations(tuple(I))]
    for s in sp.structures(I):
        if s in seen:
            continue
        count += 1
        for sigma in perms:
            seen.add(s.relabel(sigma))
    return count


# ---------------------------------------------------------------------------
# Cycle index polynomials: the oracle of exactalg.tgf
#
# Z(sp) is summed over the conjugacy classes of S_n from
# species.fixed_points; its 'type' specialization is the type series that
# tgf reads off orbit_count, and its 'exp' specialization the egf. No
# command builds one.
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
            clean[expts] = clean.get(expts, Fraction(0)) + c
        self.order = order
        self.terms = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def one(cls, order: int) -> "CycleIndexPoly":
        return cls({(): Fraction(1)}, order)

    def coefficient(self, expts) -> Fraction:
        return self.terms.get(_trim(expts), Fraction(0))

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
            out[e] = out.get(e, Fraction(0)) + c
        return CycleIndexPoly(out, n)

    def __sub__(self, other) -> "CycleIndexPoly":
        n = min(self.order, other.order)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
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
                out[e] = out.get(e, Fraction(0)) + c1 * c2
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
                    acc[e] = acc.get(e, Fraction(0)) - c1 * c2
            for e, c in acc.items():
                if c != 0:
                    out[e] = out.get(e, Fraction(0)) + c
        return CycleIndexPoly(out, n)

    def specialize(self, mode: str) -> TruncatedSeries:
        """'exp': x_1 -> x, x_i -> 0 for i >= 2.  'type': x_i -> x^i."""
        n = self.order
        out = [Fraction(0)] * (n + 1)
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
                terms[e] = terms.get(e, Fraction(0)) + Fraction(fix, _z_lambda(lam))
    return CycleIndexPoly(terms, order)


def check_commutative(h, nmax: int) -> AxiomReport:
    """mu_{S,T}(x . y) = mu_{T,S}(y . x) on every pair of basis structures,
    reported as the axiom battery reports its checks."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    mu, _ = _memo(h)
    for n, I in _sets(nmax):
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    rep.compare("commutativity", n, ("S=%r T=%r x=%s y=%s", S, T, x, y),
                                mu(S, T, x, y), mu(T, S, y, x))
    return rep


def coproduct_rows(h, I) -> list:
    """Every row of the primitive constraint system on I: the block of
    Delta_{S,T} for every decomposition with S, T nonempty, in subset
    order, each from the program's own block builder `kernels._block`. The
    program eliminates only the generator rows (`kernels._Chain`); the
    kernel of these rows is their oracle."""
    basis = h.species.structures(I)
    rows = []
    for S, T in I.decompositions():
        if S.labels and T.labels:
            rows += _block(h, basis, S, T).values()
    return rows


def full_kernel(h, I):
    """The primitive space on I as the kernel of every row of
    `coproduct_rows`, with no generator chosen."""
    return _kernel_space(h.species.structures(I), I, coproduct_rows(h, I))


def mutate_product(h, victim_xy, replacement, name="mutant"):
    """Replace the product value at one basis pair by the pairs of the
    QVector `replacement`; everything else delegates."""
    x0, y0 = victim_xy
    pairs = tuple(replacement.terms.items())

    def mu(S, T, x, y):
        if (x, y) == (x0, y0):
            return pairs
        return h.product(S, T, x, y)

    return HopfMonoid(h.species, mu, h.coproduct,
                      name="%s(%s)" % (name, h.name))


def mark_to_one_block() -> HopfMorphism:
    """E -> Pi sending the mark on I to the one-block partition of I (the
    empty partition on the empty set): an injective linear map that is not
    a morphism of Hopf monoids, since the product of two marks goes to a
    partition with two blocks."""

    def on_basis(s):
        labels = tuple(s.labels)
        return ((SetPartition((labels,) if labels else ()), 1),)

    return HopfMorphism("E->Pi", make_E(), make_Pi(), on_basis)


def mutate_coproduct(h, victim, split_labels, replacement, name="mutant"):
    """Replace the coproduct value at one (decomposition, basis) entry by
    the pairs of the QTensor `replacement`."""
    pairs = tuple(replacement.terms.items())

    def delta(S, T, s):
        if s == victim and S.labels == split_labels:
            return pairs
        return h.coproduct(S, T, s)

    return HopfMonoid(h.species, h.product, delta,
                      name="%s(%s)" % (name, h.name))


@pytest.fixture(scope="session")
def E():
    return make_E()


@pytest.fixture(scope="session")
def X():
    return make_X()


@pytest.fixture(scope="session")
def L():
    return make_L()


@pytest.fixture(scope="session")
def Pi():
    return make_Pi()


@pytest.fixture(scope="session")
def PiPrime():
    return species_PiPrime()


@pytest.fixture(scope="session")
def PiEven():
    return get_hopf("PiS:2")


@pytest.fixture(scope="session")
def Sigma():
    return make_Sigma()


@pytest.fixture(scope="session")
def Pal():
    return make_Pal()


@pytest.fixture(scope="session")
def E2():
    return make_Ek(2)


@pytest.fixture(scope="session")
def E3():
    return make_Ek(3)


@pytest.fixture(scope="session")
def el():
    return species_el()


@pytest.fixture(scope="session")
def LxPi(L, Pi):
    return hadamard_hopf(L, Pi)
