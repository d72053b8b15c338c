"""Primitive spaces and the Hopf and Lie kernels of morphisms.

A primitive element is killed by every coproduct component with both sides
nonempty. The Hopf kernel of a morphism pi is the kernel of
(pi_+ . id) o Delta, the Lie kernel is the kernel of pi restricted to
primitives. Everything is computed as an exact kernel or span of sparse
integer rows over the canonical sorted structure basis.

This module holds the kernel spaces alone, which `primitives` and
`hker-dims` run. The constructive bases (cyclic orders, brackets and
derangements) are in `lie`, and the theorem checks (the ideal k_+ h, the
two factorizations, the PBW identity and the generation of the Hopf kernel
by the Lie kernel) in `lagrange`, so a kernel command compiles neither.
"""

from __future__ import annotations

import functools

from .echelon import Echelon
from .species import EMPTY, FiniteSet, labelset
from .structures import HopfMonoid, HopfMorphism
from .vectors import QTensor, QVector, check_coeff


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
