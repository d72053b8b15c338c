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

from .echelon import Echelon
from .reports import FAIL, PASS, TestReport
from .species import (EMPTY, FiniteSet, LinearOrder, QTensor, QVector,
                      check_coeff, labelset)
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


# ---------------------------------------------------------------------------
# Subspaces of one component h[I]
# ---------------------------------------------------------------------------

class SubspaceBasis:
    """A subspace of the span of `coords`.

    A space built here is spanned by the vectors `add`ed to it, held in
    echelon form. A space that `_kernel_space` returns is the kernel of an
    eliminated row system instead: its `dim` is columns - rank, its reduced
    basis is read off the system on the first `rows()` or `vectors()`
    (`Echelon.kernel`), and an echelon over that basis is built only on a
    first `add`, `contains` or `same_span`. No cache holds a space: it is
    its caller's, and goes with the caller's last reference."""

    def __init__(self, ambient: FiniteSet, coords: tuple,
                 system: Echelon | None = None):
        self.ambient = ambient
        self.coords = tuple(coords)
        # a kernel's eliminated rows, columns reversed, until rows() reads them
        self._system = system
        self._kernel_dim = None if system is None else len(self.coords) - system.rank
        self._reduced = None  # a kernel's rows(), once read
        self._spanned = Echelon() if system is None else None

    @functools.cached_property
    def index(self) -> dict:
        return {s: i for i, s in enumerate(self.coords)}

    @property
    def _ech(self) -> Echelon:
        """The echelon the space is held in; a kernel's is built over its
        reduced basis on first use."""
        if self._spanned is None:
            ech = Echelon()
            for row in self.rows():
                ech.add(dict(row))
            self._spanned, self._reduced = ech, None
        return self._spanned

    def add(self, v: QVector) -> bool:
        return self._ech.add(v.coordinates(self.index))

    @property
    def dim(self) -> int:
        return self._kernel_dim if self._spanned is None else self._spanned.rank

    def contains(self, v: QVector) -> bool:
        if v.ambient != self.ambient:
            return False
        return self._ech.contains(v.coordinates(self.index))

    def same_span(self, other: "SubspaceBasis") -> bool:
        return (self.dim == other.dim
                and all(other._ech.contains(row) for row in self._ech.pivots.values()))

    def rows(self) -> list:
        """The canonical reduced echelon basis in pivot order, each row a
        list of (column, coefficient) pairs sorted by column. `coords` is
        sorted, so column order is structure order, the order of
        `QVector.items()`. Each coefficient is checked to be exact and
        nonzero: TypeError or ValueError otherwise.

        A kernel reads its rows once, straight off `Echelon.kernel` of its
        system (see `_kernel_space`), and then drops the system; a spanned
        space reads them off the rref of its echelon on each call."""
        if self._spanned is not None:
            rref = self._spanned.rref()
            return self._checked(rref[c].items() for c in sorted(rref))
        if self._reduced is None:
            n = len(self.coords)
            self._reduced = self._checked([(n - 1 - j, c) for j, c in vec.items()]
                                          for vec in reversed(self._system.kernel(n)))
            self._system = None
        return list(self._reduced)

    @staticmethod
    def _checked(rows) -> list:
        out = []
        for row in rows:
            row = sorted(row)
            for _, v in row:
                if type(v) is not int or not v:
                    check_coeff(v)
                    if not v:
                        raise ValueError("reduced row %d holds a zero" % row[0][0])
            out.append(row)
        return out

    def names(self) -> list:
        """The text() of each coordinate structure, indexed by column; each
        structure is checked once to lie on the ambient."""
        ambient = self.ambient
        out = []
        for s in self.coords:
            QVector.check_key(ambient, s)
            out.append(s.text())
        return out

    def vectors(self) -> list:
        """The canonical reduced echelon basis as QVectors."""
        coords = self.coords
        return [QVector(self.ambient, {coords[j]: v for j, v in row})
                for row in self.rows()]

    def __repr__(self):
        return "SubspaceBasis(dim=%d of %d)" % (self.dim, len(self.coords))


def _kernel_space(basis, ambient, rows: list) -> SubspaceBasis:
    """Eliminate the stacked sparse rows once; the kernel is read off them
    lazily (`SubspaceBasis`). The list `rows` is emptied, and the dedup
    table dropped, once the rows are in the echelon. The space returned is
    new and is kept by no one but the caller.

    Repeated rows go in once. Each row is keyed by the hash of its items,
    computed on the spot, so no copy of a row is kept. A row is skipped
    only when it equals the row stored under its key; a different row with
    the same hash moves on to the next free key, so every repeat finds its
    first copy and no distinct row is lost.

    The rows go in with columns reversed (j -> n-1-j). Each vector that
    Echelon.kernel then returns is 1 at its own free column, zero at every
    other free column, and supported on later columns of the original order:
    read back to front, they are already the unique reduced echelon basis of
    the kernel, which `SubspaceBasis.rows` returns as they are.
    """
    n = len(basis)
    ech = Echelon()
    distinct: dict = {}
    for row in rows:
        key = hash(frozenset(row.items()))
        got = distinct.get(key)
        while got is not None and got != row:
            key += 1
            got = distinct.get(key)
        if got is None:
            distinct[key] = row
    rows.clear()
    # shortest rows first, stably, so the order stays deterministic: short
    # pivot rows keep the fill of every later reduction small, and the
    # kernel's reduced basis does not depend on the order
    for row in sorted(distinct.values(), key=len):
        ech.add({n - 1 - j: c for j, c in row.items()})
    del distinct
    return SubspaceBasis(ambient, basis, system=ech)


# ---------------------------------------------------------------------------
# Primitive spaces and kernels of morphisms
# ---------------------------------------------------------------------------

def coproduct_rows(h: HopfMonoid, I: FiniteSet,
                   f: HopfMorphism | None = None) -> list:
    """Sparse rows of the stacked maps Delta_{S,T} over S, T nonempty, or of
    (f x id) o Delta_{S,T} when a morphism f out of h is given; columns
    index the sorted basis of h[I]. The rows are read off Delta's (key
    pair, coefficient) pairs (see `_block`). No map result is memoized,
    since each (S, s) is asked for once; one S is held across every
    structure of a decomposition, so the block cuts memoized on it
    (`split_blocks`) are shared by all of them.

    Without f, a monoid declared cocommutative gives only the
    decompositions (S, T) whose S comes before T in the subset order of
    `I.decompositions()` (smaller, or as large and holding the first label
    of I). Delta_{T,S} is the twist of Delta_{S,T}, so the block of (T, S)
    repeats that of (S, T), row for row, and the earlier of the two is
    kept: the distinct rows then come in the order they first came among
    all decompositions, and elimination takes the same steps. The
    Hopf-kernel rows (f x id) o Delta_{T,S} are other constraints, so with
    f every decomposition is built. With f, T = empty is kept too: S = I
    comes last in subset order, and Delta_{I,empty}(s) = s (x) 1, so that
    last block is the matrix of f, one row per target structure. It asks
    for the unit, so a source that is not connected is refused.

    The rows come decomposition by decomposition, each block from
    `_block`."""
    basis = h.species.structures(I)
    skip_mirrors = f is None and h.cocommutative
    rows: list = []
    for S, T in I.decompositions():
        if not S.labels or not (T.labels or f):
            continue
        if skip_mirrors and (len(S), S.labels) > (len(T), T.labels):
            continue
        rows += _block(h, basis, S, T, f).values()
    return rows


def _block(h: HopfMonoid, basis, S: FiniteSet, T: FiniteSet,
           f: HopfMorphism | None = None) -> dict:
    """The sparse rows of Delta_{S,T}, or of (f x id) o Delta_{S,T}, whose
    columns index `basis`, the sorted basis of h[S u T]. Each row is keyed
    by its output pair, Delta's own (u, w) or (f(u), w), and the rows come
    in the order their keys first appear. With T empty and f given this is
    the matrix of f, one row per target structure.

    The columns are grouped by the key pairs that `h._delta` returns, and
    no output structure is built per column: each distinct key pair is
    interned and checked once, as `HopfMonoid.coproduct` checks it (equal
    keys intern to one structure), and with f, f is applied to it once.
    Each coefficient is checked where it is read. Delta_{I,empty}(s) =
    s (x) 1 has no keys, so that block reads `h.coproduct`."""
    if T.labels:
        delta, intern = h._delta, h.intern
    else:
        delta, intern = h.coproduct, HopfMonoid.intern
    left, right = S.labels, T.labels
    block: dict = {}
    targets: dict = {}  # key pair -> its row, or with f its (row, d) pairs
    for j, s in enumerate(basis):
        for key, c in delta(S, T, s):
            if type(c) is not int:
                check_coeff(c)
            got = targets.get(key)
            if got is None:
                x, y = key
                out = u, w = intern(x), intern(y)
                if u._labels.labels != left or w._labels.labels != right:
                    QTensor.check_key(S, T, out)
                if f is None:
                    got = block.setdefault(out, {})
                else:
                    got = tuple((block.setdefault((t, w), {}), d)
                                for t, d in f.on_basis(u))
                targets[key] = got
            if f is None:
                got[j] = got.get(j, 0) + c
                continue
            for row, d in got:
                row[j] = row.get(j, 0) + c * d
    return block


def primitive_space(h: HopfMonoid, I: FiniteSet) -> SubspaceBasis:
    """Joint kernel of all Delta_{S,T} with S, T nonempty; zero at the empty
    set, everything at singletons. A monoid that is not connected is
    refused at every size (ValueError from h.one()), since primitives need
    the unit."""
    h.one()
    basis = h.species.structures(I)
    if len(I) == 0:
        return SubspaceBasis(I, basis)
    return _kernel_space(basis, I, coproduct_rows(h, I))


def _require_full_rank(f: HopfMorphism, nmax: int, error) -> None:
    """Raise `error`, NotInjective or NotSurjective, at the first size up to
    nmax where the rank of f, its (I, empty) block, falls short of the
    dimension of its source or of its target."""
    injective = error is NotInjective
    sp = (f.source if injective else f.target).species
    for n in range(nmax + 1):
        I = labelset(n)
        ech = Echelon()
        for row in _block(f.source, f.source.species.structures(I), I, EMPTY,
                          f).values():
            ech.add(row)
        if ech.rank != sp.dimension(I):
            raise error("%s is not %s at size %d" % (
                f.name, "injective" if injective else "surjective", n))


def hker_space(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Kernel of the stacked maps (pi x id) o Delta_{S,T} over all S != empty.

    The empty-S components never constrain (the positive part of the target
    kills them), so they are omitted; for nonempty I, T = empty contributes
    the condition pi(x) = 0 itself, the last block of `coproduct_rows`.
    """
    return _kernel_space(f.source.species.structures(I), I,
                         coproduct_rows(f.source, I, f))


def lker_space(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Primitives of the source killed by f: intersect the primitive
    constraints with the matrix of f, the (I, empty) block with f."""
    basis = f.source.species.structures(I)
    if len(I) == 0:
        return SubspaceBasis(I, basis)
    rows = coproduct_rows(f.source, I)
    rows += _block(f.source, basis, I, EMPTY, f).values()
    return _kernel_space(basis, I, rows)


def hker_dims(f: HopfMorphism, nmax: int) -> list:
    return [hker_space(f, labelset(n)).dim for n in range(nmax + 1)]


def primitive_dims(h: HopfMonoid, nmax: int) -> list:
    """dim of the primitive space per size, the empty set included."""
    return [primitive_space(h, labelset(n)).dim for n in range(nmax + 1)]


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


# ---------------------------------------------------------------------------
# The ideal k_+ h and the Lagrange factorization
# ---------------------------------------------------------------------------

def ideal_kplus_h(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Span of mu_{S,T}(f(k[S]) . h[T]) over decompositions with S nonempty,
    inside the component h[I] of the big Hopf monoid. Each generator's row
    is summed from the pairs of f(x) and of mu_{S,T}(t . y), as the kernel
    rows are, and goes straight into the echelon."""
    h = f.target
    out = SubspaceBasis(I, h.species.structures(I))
    index = out.index
    add = out._ech.add
    product = h.product
    for S, T in I.decompositions():
        if not S.labels:
            continue
        ys = h.species.structures(T)
        for x in f.source.species.structures(S):
            fx = f.on_basis(x)
            for y in ys:
                row: dict = {}
                for t, d in fx:
                    for z, c in product(S, T, t, y):
                        j = index[z]
                        row[j] = row.get(j, 0) + c * d
                add(row)
    return out


def _factorization(name: str, hdims: list, kdims: list, d: list,
                   details: dict) -> TestReport:
    """dim h[n] = sum_i C(n,i) dim k[i] d[n-i] at every size, with the first
    size where it fails as the witness."""
    for n, hdim in enumerate(hdims):
        total = sum(comb(n, i) * kdims[i] * d[n - i] for i in range(n + 1))
        if total != hdim:
            return TestReport(name, FAIL, first_violation=n,
                              witness={"dim h[n]": hdim, "convolution": total},
                              details=details)
    return TestReport(name, PASS, details=details)


def lagrange_quotient_dims(f: HopfMorphism, nmax: int) -> list:
    """Quotient dimensions q_n = dim h[n] - dim (k_+ h)[n] for an injective
    morphism of Hopf monoids k -> h."""
    _require_full_rank(f, nmax, NotInjective)
    # the ideal's ambient basis is h[n], so dim h[n] is read off it
    ideals = (ideal_kplus_h(f, labelset(n)) for n in range(nmax + 1))
    return [len(ideal.coords) - ideal.dim for ideal in ideals]


def lagrange_factorization_check(f: HopfMorphism, nmax: int) -> TestReport:
    """For an injection k -> h: dim h[n] = sum_i C(n,i) dim k[i] q_{n-i}."""
    q = lagrange_quotient_dims(f, nmax)
    return _factorization("lagrange-factorization", f.target.species.dims(nmax),
                          f.source.species.dims(nmax), q, {"quotient_dims": q})


def dual_factorization_check(f: HopfMorphism, nmax: int) -> TestReport:
    """For a surjection h ->> k: dim h[n] = sum_i C(n,i) dim k[i] dim Hker[n-i]."""
    _require_full_rank(f, nmax, NotSurjective)
    d = hker_dims(f, nmax)
    return _factorization("dual-factorization", f.source.species.dims(nmax),
                          f.target.species.dims(nmax), d, {"hker_dims": d})


# ---------------------------------------------------------------------------
# PBW series identity and generation of Hker by Lker
# ---------------------------------------------------------------------------

def _require_cocommutative(h: HopfMonoid, nmax: int):
    # the axiom battery is loaded by the two checks that need it, not by
    # every command that computes a kernel
    from .axioms import check_cocommutative
    rep = check_cocommutative(h, min(nmax, 4))
    if not rep.ok:
        raise NotCocommutative(rep.summary())


def pbw_series_check(h: HopfMonoid, nmax: int) -> TestReport:
    """exp of the primitive-dimension exponential series must equal the
    exponential series of a cocommutative connected Hopf monoid."""
    # the series layer is loaded here only, not by every kernel command
    from .exactalg import egf_from_counts
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
    block sizes contribute nothing to the span. The Lie-kernel spaces, asked
    for again at every size, are kept in a dict that lives for this call.
    """
    _require_cocommutative(f.source, nmax)
    _require_cocommutative(f.target, nmax)
    _require_full_rank(f, nmax, NotSurjective)
    lker: dict = {}

    def lie(S: FiniteSet) -> SubspaceBasis:
        if S.labels not in lker:
            lker[S.labels] = lker_space(f, S)
        return lker[S.labels]

    dims_checked = []
    for n in range(nmax + 1):
        I = labelset(n)
        hk = hker_space(f, I)
        sizes = [s for s in range(1, n + 1) if lie(labelset(s)).dim > 0]
        gen = SubspaceBasis(I, f.source.species.structures(I))
        if n == 0:
            gen.add(QVector.basis(f.source.one()))
        else:
            for blocks in block_partitions(I.labels, sizes):
                for comp in itertools.permutations(map(FiniteSet._fast, blocks)):
                    choices = [lie(S).vectors() for S in comp]
                    for pick in itertools.product(*choices):
                        gen.add(iterated_product(f.source, comp, pick))
        if not gen.same_span(hk):
            return TestReport("hker-generated", FAIL, first_violation=n,
                              witness={"span_dim": gen.dim, "hker_dim": hk.dim})
        dims_checked.append(hk.dim)
    return TestReport("hker-generated", PASS, details={"hker_dims": dims_checked})
