"""Primitive elements, Lie and Hopf kernels, and their explicit bases.

A primitive element is killed by every coproduct component with both sides
nonempty. The Hopf kernel of a morphism pi is the kernel of
(pi_+ . id) o Delta, the Lie kernel is the kernel of pi restricted to
primitives. Everything is computed as an exact kernel or span of sparse
integer rows over the canonical sorted structure basis.

The two constructive bases: `lie_basis_p` builds the bracketing of a cyclic
order against a reference linear order (the Lyndon-style basis of the free
Lie space inside linear orders), and `hker_basis_derangement` multiplies
those brackets along the cycle decomposition of a derangement.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .axioms import check_cocommutative
from .exactalg import Echelon, egf_from_counts
from .reports import FAIL, PASS, TestReport
from .species import FiniteSet, LinearOrder, QVector, labelset
from .structures import (HopfMonoid, HopfMorphism, block_partitions,
                         iterated_product, make_L, product_vectors)


class NotADerangement(ValueError):
    """The order agrees with the reference order in some position."""


class NotInjective(ValueError):
    """A morphism required to be injective has a kernel."""


class NotSurjective(ValueError):
    """A morphism required to be surjective misses part of the target."""


class NotCocommutative(ValueError):
    """A construction valid only for cocommutative Hopf monoids."""


class LagrangeFactorizationError(AssertionError):
    """The Cauchy-product dimension factorization failed."""


# ---------------------------------------------------------------------------
# Subspaces of one component h[I]
# ---------------------------------------------------------------------------

class SubspaceBasis:
    """A subspace of the span of `coords`, held in echelon form."""

    def __init__(self, ambient: FiniteSet, coords: tuple,
                 echelon: Echelon | None = None):
        self.ambient = ambient
        self.coords = tuple(coords)
        self.index = {s: i for i, s in enumerate(self.coords)}
        self._ech = Echelon() if echelon is None else echelon

    def add(self, v: QVector) -> bool:
        return self._ech.add(v.coordinates(self.index))

    @property
    def dim(self) -> int:
        return self._ech.rank

    def contains(self, v: QVector) -> bool:
        if v.ambient != self.ambient:
            return False
        return self._ech.contains(v.coordinates(self.index))

    def same_span(self, other: "SubspaceBasis") -> bool:
        return (self.dim == other.dim
                and all(other._ech.contains(row) for row in self._ech.pivots.values()))

    def vectors(self) -> list:
        """The canonical reduced echelon basis as QVectors."""
        rref = self._ech.rref()
        return [QVector(self.ambient,
                        {self.coords[j]: v for j, v in rref[c].items()})
                for c in sorted(rref)]

    def __repr__(self):
        return "SubspaceBasis(dim=%d of %d)" % (self.dim, len(self.coords))


def _kernel_space(basis, ambient, rows) -> SubspaceBasis:
    """Eliminate the stacked sparse rows once and read off their kernel.

    The rows go in with columns reversed (j -> n-1-j). Each vector that
    Echelon.kernel then returns is 1 at its own free column, zero at every
    other free column, and supported on later columns of the original order:
    read back to front, they are already the unique reduced echelon basis of
    the kernel, so they are stored without another elimination.
    """
    n = len(basis)
    ech = Echelon()
    seen = set()
    for row in rows:
        frozen = frozenset(row.items())
        if frozen in seen:
            continue
        seen.add(frozen)
        ech.add({n - 1 - j: c for j, c in row.items()})
    kernel = [{n - 1 - j: c for j, c in vec.items()}
              for vec in reversed(ech.kernel(n))]
    return SubspaceBasis(ambient, basis, Echelon.from_echelon_form(kernel))


# ---------------------------------------------------------------------------
# Primitive spaces and kernels of morphisms
# ---------------------------------------------------------------------------

def _cached(space_fn):
    """Memoize space_fn(owner, I) in `owner.space_cache`, so each entry lives
    exactly as long as the monoid or morphism it was computed for."""

    @functools.wraps(space_fn)
    def cached(owner, I: FiniteSet) -> SubspaceBasis:
        key = (space_fn.__name__, I.labels)
        got = owner.space_cache.get(key)
        if got is None:
            got = owner.space_cache[key] = space_fn(owner, I)
        return got
    return cached


def coproduct_rows(h: HopfMonoid, I: FiniteSet,
                   f: HopfMorphism | None = None) -> list:
    """Sparse rows of the stacked maps Delta_{S,T} over S, T nonempty, or of
    (f x id) o Delta_{S,T} when a morphism f out of h is given; columns
    index the sorted basis of h[I]. The rows are read off the maps'
    (output, coefficient) pairs; nothing is memoized, since each (S, s) is
    asked for once."""
    basis = h.species.structures(I)
    rows: dict = {}
    for S, T in I.decompositions():
        if not len(S) or not len(T):
            continue
        for j, s in enumerate(basis):
            for (u, w), c in h.coproduct_terms(S, T, s):
                for t, d in (f.on_basis_terms(u) if f else ((u, 1),)):
                    row = rows.setdefault((S.labels, t, w), {})
                    row[j] = row.get(j, 0) + c * d
    return list(rows.values())


@_cached
def primitive_space(h: HopfMonoid, I: FiniteSet) -> SubspaceBasis:
    """Joint kernel of all Delta_{S,T} with S, T nonempty; zero at the empty
    set, everything at singletons. A monoid that is not connected is
    refused (ValueError from h.one()), since primitives need the unit."""
    h.one()
    basis = h.species.structures(I)
    if len(I) == 0:
        return SubspaceBasis(I, basis)
    return _kernel_space(basis, I, coproduct_rows(h, I))


def morphism_rows(f: HopfMorphism, I: FiniteSet) -> dict:
    """Sparse rows of the matrix of f over I: one row per target structure."""
    src = f.source.species.structures(I)
    rows: dict = {}
    for j, s in enumerate(src):
        for t, c in f.on_basis_terms(s):
            row = rows.setdefault(t, {})
            row[j] = row.get(j, 0) + c
    return rows


def morphism_rank(f: HopfMorphism, I: FiniteSet) -> int:
    ech = Echelon()
    for row in morphism_rows(f, I).values():
        ech.add(row)
    return ech.rank


def is_injective_at(f: HopfMorphism, n: int) -> bool:
    I = labelset(n)
    return morphism_rank(f, I) == f.source.species.dimension(I)


def is_surjective_at(f: HopfMorphism, n: int) -> bool:
    I = labelset(n)
    return morphism_rank(f, I) == f.target.species.dimension(I)


@_cached
def hker_space(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Kernel of the stacked maps (pi x id) o Delta_{S,T} over all S != empty.

    The empty-S components never constrain (the positive part of the target
    kills them), so they are omitted; for nonempty I, T = empty contributes
    the condition pi(x) = 0 itself, which is the rows of f.
    """
    rows = coproduct_rows(f.source, I, f)
    if len(I):
        rows += morphism_rows(f, I).values()
    return _kernel_space(f.source.species.structures(I), I, rows)


@_cached
def lker_space(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Primitives of the source killed by f: intersect the primitive
    constraints with the rows of f."""
    basis = f.source.species.structures(I)
    if len(I) == 0:
        return SubspaceBasis(I, basis)
    rows = coproduct_rows(f.source, I) + list(morphism_rows(f, I).values())
    return _kernel_space(basis, I, rows)


def hker_dims(f: HopfMorphism, nmax: int) -> list:
    return [hker_space(f, labelset(n)).dim for n in range(nmax + 1)]


def primitive_dims(h: HopfMonoid, nmax: int) -> list:
    """dim of the primitive space per size; 0 at the empty set by definition."""
    return [primitive_space(h, labelset(n)).dim if n else 0
            for n in range(nmax + 1)]


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
            yield LinearOrder(perm)


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


# ---------------------------------------------------------------------------
# The ideal k_+ h and the Lagrange factorization
# ---------------------------------------------------------------------------

def ideal_kplus_h(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Span of mu_{S,T}(f(k[S]) . h[T]) over decompositions with S nonempty,
    inside the component h[I] of the big Hopf monoid."""
    h = f.target
    basis = h.species.structures(I)
    out = SubspaceBasis(I, basis)
    for S, T in I.decompositions():
        if not len(S):
            continue
        for x in f.source.species.structures(S):
            fx = f.on_basis(x)
            if fx.is_zero():
                continue
            for y in h.species.structures(T):
                out.add(product_vectors(h, S, T, fx, QVector.basis(y)))
    return out


def lagrange_quotient_dims(f: HopfMorphism, nmax: int) -> list:
    """Quotient dimensions q_n = dim h[n] - dim (k_+ h)[n] for an injective
    morphism of Hopf monoids k -> h, with the Cauchy factorization
    dim h[n] = sum_i C(n,i) dim k[i] q_{n-i} verified exactly."""
    for n in range(nmax + 1):
        if not is_injective_at(f, n):
            raise NotInjective("%s is not injective at size %d" % (f.name, n))
    kdims = [f.source.species.dimension(n) for n in range(nmax + 1)]
    hdims = [f.target.species.dimension(n) for n in range(nmax + 1)]
    q = [hdims[n] - ideal_kplus_h(f, labelset(n)).dim for n in range(nmax + 1)]
    for n in range(nmax + 1):
        total = sum(comb(n, i) * kdims[i] * q[n - i] for i in range(n + 1))
        if total != hdims[n]:
            raise LagrangeFactorizationError(
                "dim h[%d] = %d but the factorization gives %d (q = %r)"
                % (n, hdims[n], total, q))
    return q


def dual_factorization_check(f: HopfMorphism, nmax: int) -> TestReport:
    """For a surjection h ->> k: dim h[n] = sum_i C(n,i) dim k[i] dim Hker[n-i]."""
    for n in range(nmax + 1):
        if not is_surjective_at(f, n):
            raise NotSurjective("%s is not surjective at size %d" % (f.name, n))
    hdims = [f.source.species.dimension(n) for n in range(nmax + 1)]
    kdims = [f.target.species.dimension(n) for n in range(nmax + 1)]
    d = hker_dims(f, nmax)
    for n in range(nmax + 1):
        total = sum(comb(n, i) * kdims[i] * d[n - i] for i in range(n + 1))
        if total != hdims[n]:
            return TestReport("dual-factorization", FAIL, first_violation=n,
                              witness={"dim h[n]": hdims[n], "convolution": total},
                              details={"hker_dims": d})
    return TestReport("dual-factorization", PASS, details={"hker_dims": d})


# ---------------------------------------------------------------------------
# PBW series identity and generation of Hker by Lker
# ---------------------------------------------------------------------------

def _require_cocommutative(h: HopfMonoid, nmax: int):
    rep = check_cocommutative(h, min(nmax, 4))
    if not rep.ok:
        raise NotCocommutative(rep.summary())


def pbw_series_check(h: HopfMonoid, nmax: int) -> TestReport:
    """exp of the primitive-dimension exponential series must equal the
    exponential series of a cocommutative connected Hopf monoid."""
    _require_cocommutative(h, nmax)
    pdims = primitive_dims(h, nmax)
    lhs = egf_from_counts(pdims).exp()
    rhs = egf_from_counts([h.species.dimension(n) for n in range(nmax + 1)])
    if lhs == rhs:
        return TestReport("pbw-series", PASS,
                          details={"primitive_dims": pdims,
                                   "egf": rhs.to_json()})
    bad = min(n for n in range(nmax + 1) if lhs[n] != rhs[n])
    return TestReport("pbw-series", FAIL, first_violation=bad,
                      witness={"exp(primitives)": lhs[bad], "egf": rhs[bad]},
                      details={"primitive_dims": pdims})


def hker_generated_check(f: HopfMorphism, nmax: int) -> TestReport:
    """The span of all products of Lie-kernel elements over set compositions
    must equal the Hopf kernel, size by size.

    Blocks are restricted to sizes where the Lie kernel is nonzero; other
    block sizes contribute nothing to the span.
    """
    _require_cocommutative(f.source, nmax)
    _require_cocommutative(f.target, nmax)
    for n in range(nmax + 1):
        if not is_surjective_at(f, n):
            raise NotSurjective("%s is not surjective at size %d" % (f.name, n))
    dims_checked = []
    for n in range(nmax + 1):
        I = labelset(n)
        hk = hker_space(f, I)
        sizes = [s for s in range(1, n + 1)
                 if lker_space(f, labelset(s)).dim > 0]
        gen = SubspaceBasis(I, f.source.species.structures(I))
        if n == 0:
            gen.add(QVector.basis(f.source.one()))
        else:
            for blocks in block_partitions(I.labels, sizes):
                for comp in itertools.permutations(map(FiniteSet._fast, blocks)):
                    choices = [lker_space(f, S).vectors() for S in comp]
                    for pick in itertools.product(*choices):
                        gen.add(iterated_product(f.source, comp, pick))
        if not gen.same_span(hk):
            return TestReport("hker-generated", FAIL, first_violation=n,
                              witness={"span_dim": gen.dim, "hker_dim": hk.dim})
        dims_checked.append(hk.dim)
    return TestReport("hker-generated", PASS, details={"hker_dims": dims_checked})
