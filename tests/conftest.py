import itertools
from fractions import Fraction

import pytest

from hopfspecies.axioms import AxiomReport, _memo, _sets
from hopfspecies.echelon import _integer_row, _row_gcd_normalize
from hopfspecies.species import SetPartition
from hopfspecies.structures import (HopfMonoid, HopfMorphism, get_hopf,
                                    hadamard_hopf, make_E, make_Ek, make_el,
                                    make_L, make_Pal, make_Pi, make_PiPrime,
                                    make_Sigma, make_X)


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
    return make_PiPrime()


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
    return make_el()


@pytest.fixture(scope="session")
def LxPi(L, Pi):
    return hadamard_hopf(L, Pi)
