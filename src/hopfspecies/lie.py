"""The constructive bases inside linear orders: cyclic orders and brackets.

`lie_basis_p` builds the bracketing of a cyclic order against a reference
linear order (the Lyndon-style basis of the free Lie space inside linear
orders), and `hker_basis_derangement` multiplies those brackets along the
cycle decomposition of a derangement, a basis of the Hopf kernel of
L -> E. The commands `lie-basis` and `hker-basis` run them.
"""

from __future__ import annotations

import itertools

from .species import FiniteSet, LinearOrder
from .structures import HopfMonoid, iterated_product, make_L, product_vectors
from .vectors import QVector


class NotADerangement(ValueError):
    """The order agrees with the reference order in some position."""


# ---------------------------------------------------------------------------
# Cyclic orders and the p-basis of the free Lie space in linear orders
# ---------------------------------------------------------------------------

class CyclicOrder:
    """A single cycle on a nonempty label set, printed from its least label."""

    __slots__ = ("cycle", "_succ")

    def __init__(self, seq):
        seq = tuple(seq)
        if not seq or len(set(seq)) != len(seq):
            raise ValueError("a cyclic order is a nonempty tuple of distinct labels")
        k = seq.index(min(seq))
        self.cycle = seq[k:] + seq[:k]
        self._succ = {self.cycle[i]: self.cycle[(i + 1) % len(self.cycle)]
                      for i in range(len(self.cycle))}

    @property
    def labels(self) -> FiniteSet:
        return FiniteSet(self.cycle)

    def succ(self, t):
        return self._succ[t]

    def segment(self, start, stop) -> tuple:
        """Labels from `start` (inclusive) to `stop` (exclusive) along succ."""
        out = [start]
        t = self._succ[start]
        while t != stop:
            out.append(t)
            t = self._succ[t]
        return tuple(out)

    def restrict(self, keep) -> "CyclicOrder":
        """The induced cyclic order: successors skip labels outside `keep`."""
        keep = set(keep)
        start = min(t for t in self.cycle if t in keep)
        out = [start]
        t = self._succ[start]
        while t != start:
            if t in keep:
                out.append(t)
            t = self._succ[t]
        return CyclicOrder(out)

    def __eq__(self, other):
        return isinstance(other, CyclicOrder) and self.cycle == other.cycle

    def __hash__(self):
        return hash(self.cycle)

    def __lt__(self, other):
        return self.cycle < other.cycle

    def __repr__(self):
        return "(%s)" % ",".join(self.cycle)


def cyclic_orders(I: FiniteSet):
    """All (n-1)! cyclic orders on I, sorted by canonical tuple."""
    toks = tuple(I)
    if not toks:
        return
    first, rest = toks[0], toks[1:]
    for perm in sorted(itertools.permutations(rest)):
        yield CyclicOrder((first,) + perm)


def lie_bracket(x: QVector, y: QVector, h: HopfMonoid, S: FiniteSet,
                T: FiniteSet) -> QVector:
    """The commutator mu_{S,T}(x . y) - mu_{T,S}(y . x)."""
    return product_vectors(h, S, T, x, y) - product_vectors(h, T, S, y, x)


def _p_split(gamma: CyclicOrder, ell0: LinearOrder):
    """Split at the first two reference elements: S runs along the cycle
    from the first (inclusive) to the second (exclusive)."""
    i1, i2 = ell0.seq[0], ell0.seq[1]
    S_labels = gamma.segment(i1, i2)
    T_labels = tuple(t for t in gamma.labels if t not in S_labels)
    return FiniteSet(S_labels), FiniteSet(T_labels)


def lie_basis_p(gamma: CyclicOrder, ell0: LinearOrder,
                L: HopfMonoid | None = None) -> QVector:
    """The recursive bracketing of `gamma` with respect to `ell0`, an
    element of the span of linear orders on the common label set."""
    L = L or make_L()
    if gamma.labels != ell0.labels:
        raise ValueError("cyclic order and reference order disagree: %r vs %r"
                         % (gamma, ell0))
    if len(gamma.cycle) == 1:
        return QVector.basis(LinearOrder(gamma.cycle))
    S, T = _p_split(gamma, ell0)
    x = lie_basis_p(gamma.restrict(S), ell0.restrict(S), L)
    y = lie_basis_p(gamma.restrict(T), ell0.restrict(T), L)
    return lie_bracket(x, y, L, S, T)


def bracket_expr(gamma: CyclicOrder, ell0: LinearOrder) -> str:
    """The nested-bracket notation of lie_basis_p, e.g. '[a,[b,c]]'."""
    if len(gamma.cycle) == 1:
        return gamma.cycle[0]
    S, T = _p_split(gamma, ell0)
    return "[%s,%s]" % (bracket_expr(gamma.restrict(S), ell0.restrict(S)),
                        bracket_expr(gamma.restrict(T), ell0.restrict(T)))


# ---------------------------------------------------------------------------
# Derangements and the p-basis of the Hopf kernel of L -> E
# ---------------------------------------------------------------------------

def derangement_permutation(ell: LinearOrder, ell0: LinearOrder) -> dict:
    """sigma = ell o ell0^{-1} as a mapping, with the fixed-point check."""
    if ell.labels != ell0.labels:
        raise ValueError("orders on different label sets")
    sigma = {}
    for a, b in zip(ell0.seq, ell.seq):
        if a == b:
            raise NotADerangement("position of %r is fixed" % (a,))
        sigma[a] = b
    return sigma


def derangements(ell0: LinearOrder):
    """All derangements of the reference order, in lexicographic order."""
    for perm in itertools.permutations(ell0.seq):
        if all(a != b for a, b in zip(ell0.seq, perm)):
            yield LinearOrder(perm, ell0.labels)


def _orbit_cycles(sigma: dict, ell0: LinearOrder) -> list:
    """Cycles of sigma as CyclicOrders, ordered by least ell0-position."""
    pos = {t: i for i, t in enumerate(ell0.seq)}
    seen = set()
    cycles = []
    for t in ell0.seq:
        if t in seen:
            continue
        orbit = [t]
        seen.add(t)
        u = sigma[t]
        while u != t:
            orbit.append(u)
            seen.add(u)
            u = sigma[u]
        cycles.append((min(pos[v] for v in orbit), CyclicOrder(orbit)))
    cycles.sort()
    return [c for _, c in cycles]


def hker_basis_derangement(ell: LinearOrder, ell0: LinearOrder,
                           L: HopfMonoid | None = None) -> QVector:
    """Factor ell o ell0^{-1} into cycles and multiply their bracketings
    left-to-right in the order of least reference position."""
    L = L or make_L()
    sigma = derangement_permutation(ell, ell0)
    cycles = _orbit_cycles(sigma, ell0)
    parts = [g.labels for g in cycles]
    vectors = [lie_basis_p(g, ell0.restrict(g.labels), L) for g in cycles]
    return iterated_product(L, parts, vectors)


def p_ell_expr(ell: LinearOrder, ell0: LinearOrder) -> str:
    """Factored notation of hker_basis_derangement, e.g. '[s,[i,e]]*[m,t]'."""
    sigma = derangement_permutation(ell, ell0)
    cycles = _orbit_cycles(sigma, ell0)
    return "*".join(bracket_expr(g, ell0.restrict(g.labels)) for g in cycles)
