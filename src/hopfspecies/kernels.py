"""Primitive spaces and the Hopf and Lie kernels of morphisms.

A primitive element is killed by every coproduct component with both sides
nonempty. The Hopf kernel of a morphism pi is the kernel of
(pi_+ . id) o Delta, the Lie kernel is the kernel of pi restricted to
primitives. Everything is computed as an exact kernel or span of sparse
integer rows over the canonical sorted structure basis.

A primitive space is the kernel of the rows of a generating set of the
dual monoid's decomposables, not of every coproduct row: `_Chain` gives
the argument (Delta coassociative and natural, and cocommutative for the
rule that keeps only the S that hold the first label) and the choice of
generators, made size by size on the canonical label sets. A monoid that
breaks those axioms gets the kernel of its generator rows. The
Hopf-kernel rows are every decomposition's.

This module holds the kernel spaces alone, which `primitives` and
`hker-dims` run. The constructive bases (cyclic orders, brackets and
derangements) are in `lie`, and the theorem checks (the ideal k_+ h, the
two factorizations, the PBW identity and the generation of the Hopf kernel
by the Lie kernel) in `lagrange`, so a kernel command compiles neither.
"""

from __future__ import annotations

import functools

from .echelon import Echelon
from .species import EMPTY, FiniteSet, Structure, labelset
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

def _relabeled(key, to: dict):
    """A key of Delta's output moved along the label map `to`. A monoid
    built directly returns structures, which relabel themselves; a shipped
    monoid's key is a nested tuple whose strings are its labels and whose
    other entries (the values of an Ek function) stay as they are."""
    if type(key) is str:
        return to[key]
    if type(key) is tuple:
        return tuple([_relabeled(k, to) for k in key])
    if isinstance(key, Structure):
        return key.relabel(to)
    return key


def _block(h: HopfMonoid, basis, S: FiniteSet, T: FiniteSet,
           f: HopfMorphism | None = None, gens: frozenset | None = None) -> dict:
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
    s (x) 1 has no keys, so that block reads `h.coproduct`.

    With `gens`, the generators G_k of the canonical size k = |S| (see
    `_Chain`), only the rows whose u is in G(S) are kept: u's key moved to
    labelset(k) in label order, interned, is in `gens`. Every key pair is
    still interned and checked."""
    if T.labels:
        delta, intern = h._delta, h.intern
    else:
        delta, intern = h.coproduct, HopfMonoid.intern
    left, right = S.labels, T.labels
    if gens is not None:
        canon = labelset(len(left)).labels
        to = None if left == canon else dict(zip(left, canon))
        kept: dict = {}  # left key -> whether it names a generator
    block: dict = {}
    dropped: dict = {}  # the one row every dropped key pair sums into
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
                if gens is not None:
                    keep = kept.get(x)
                    if keep is None:
                        keep = kept[x] = (u if to is None
                                          else intern(_relabeled(x, to))) in gens
                if gens is not None and not keep:
                    got = dropped
                elif f is None:
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


class _Chain:
    """The generators of the dual monoid h*, size by size.

    The rows of Delta_{S,T} are the products mu*(delta_u . delta_w) of h*,
    the dual basis vectors multiplied by the dual of Delta. Their span over
    every decomposition of I with S, T nonempty is R[I], the decomposables
    of h*[I], and the primitive space P(h)[I] is the annihilator of R[I].
    When Delta is coassociative, mu* is associative, and R[I] is already
    spanned by the rows whose u lies in a set G(S) of generators: basis
    structures of h[S] whose delta_u span a complement of R[S] (Radford
    1979 reads the shuffle algebra off such a basis; Aguiar-Mahajan 2010
    for h*). Write delta_u as a combination of generators plus a sum of
    products mu*(a . b) over S = S1 u S2; by associativity the row of
    (mu*(a . b), w) is a row (a, mu*(b . w)) whose left set S1 is smaller,
    and induction on |S| ends at singletons, where R is zero and every
    structure is a generator. When h is cocommutative too, mu* is
    commutative, each product can be read with the factor that holds the
    first label on the left, and only the S that hold the first label of
    I are needed. Delta natural makes G(S) the relabeling of G_k =
    G(labelset(k)), k = |S|, in label order. A monoid that breaks these
    axioms gets the kernel of its generator rows, which need not be its
    primitive space.

    The delta_u of a set G span a complement of R[k] exactly when P[k]'s
    basis has a nonsingular minor on the columns of G. G_k is the greedy
    least-weight such set under the column order (weight, position): the
    pivot columns of P[k]'s reduced rows fed to an echelon in that order,
    which `_generators` finds without reading those rows. The weight of u
    is the number of entries of the rows of Delta onto (labelset(k), the
    last label of labelset(k + 1)) whose u is that structure: for a
    linearized Delta, the structures of h[labelset(k + 1)] that restrict
    to it. Light generators keep the rows short: the generator rows of
    Sigma, L and Pal need no reduction step at all, and those of Pi store
    less fill than every row did (2,966 pivot entries at n = 7 against
    3,338). The free columns of the constraints' own echelon are a valid G
    too, but they store 18,160 there, and Pi at n = 8 took 37 s against
    1.9 s.

    The chain is filled one canonical size at a time by `primitive_space`:
    at size n it chooses G_{n-1} from the eliminated constraints of
    size n - 1, which it then drops, and keeps those of size n."""

    def __init__(self, h: HopfMonoid):
        self.h = h
        self.gens: dict = {}  # k -> G_k, basis structures of h[labelset(k)]
        # (k, eliminated constraints, basis) of the largest canonical size
        # k built, until G_k is chosen
        self.top = None

    def rows(self, I: FiniteSet, basis) -> list:
        """The generator rows of the primitive constraints on I, whose
        columns index `basis`, the sorted basis of h[I]. The chain must hold
        G_1 ... G_{n-2}, and G_{n-1} or the size n - 1 it is chosen from,
        n = |I|. G_{n-1} is chosen from the block of labelset(n) at (its
        first n - 1 labels, its last label), which is one of I's own blocks
        when I is canonical."""
        h, labels, n = self.h, I.labels, len(I)
        cut = None  # I's block at (its first n - 1 labels, its last label)
        if n > 1 and n - 1 not in self.gens:
            if self.top is None or self.top[0] != n - 1:
                raise ValueError("the chain holds no size %d" % (n - 1))
            _, system, coords = self.top
            J = labelset(n)
            own = labels == J.labels
            head, tail = FiniteSet._fast(J.labels[:-1]), FiniteSet._fast(J.labels[-1:])
            full = _block(h, basis if own else h.species.structures(J), head, tail)
            gens = self.gens[n - 1] = _generators(system, coords, full)
            self.top = None
            if own:
                cut = {key: row for key, row in full.items() if key[0] in gens}
            del full  # the dropped rows go before the other blocks are built
        rows: list = []
        for S, T in I.decompositions():
            if not (S.labels and T.labels):
                continue
            if h.cocommutative and S.labels[0] != labels[0]:
                continue
            if cut is not None and len(T) == 1 and T.labels[0] == labels[-1]:
                rows += cut.values()
                continue
            rows += _block(h, basis, S, T, gens=self.gens[len(S)]).values()
        return rows

    def built(self, I: FiniteSet, space: SubspaceBasis) -> None:
        """Keep the eliminated constraints of I for the next size when I is
        canonical and the chain holds every generator below it."""
        n = len(I)
        if I.labels == labelset(n).labels and len(self.gens) == n - 1:
            self.top = n, space._system, space.coords


def _generators(system: Echelon, coords: tuple, full: dict) -> frozenset:
    """G_k from the eliminated primitive constraints of size k (`system`,
    columns reversed, over `coords`, the sorted basis of h[labelset(k)])
    and the rows `full` of Delta onto (labelset(k), the last label of
    labelset(k + 1)), keyed by their (u, w).

    The columns where P[k]'s basis has a nonsingular minor are the bases
    of the dual of the column matroid of the constraints: exactly the
    complements of the column sets where the constraints have full rank.
    So the greedy least-weight G_k (see `_Chain`) is the set of columns
    left free when the stored constraint rows are eliminated again with
    the columns numbered heaviest first, by (weight, position) descending,
    and no kernel basis is read."""
    weight: dict = {}
    for (u, _), row in full.items():
        weight[u] = weight.get(u, 0) + len(row)
    m = len(coords)
    order = sorted(range(m), key=lambda j: (weight.get(coords[j], 0), j))
    number = [0] * m  # column j -> its place, heaviest first
    for i, j in enumerate(order):
        number[j] = m - 1 - i
    ech = Echelon()
    for row in system.pivots.values():
        ech.add({number[m - 1 - c]: v for c, v in row.items()})
    return frozenset(coords[j] for j in range(m) if number[j] not in ech.pivots)


def _chain_below(h: HopfMonoid, n: int) -> _Chain:
    """A chain through the canonical sizes 1 ... n - 1."""
    chain = _Chain(h)
    for k in range(1, n):
        primitive_space(h, labelset(k), chain=chain)
    return chain


def primitive_space(h: HopfMonoid, I: FiniteSet, *,
                    chain: _Chain | None = None) -> SubspaceBasis:
    """Joint kernel of all Delta_{S,T} with S, T nonempty, read as the
    kernel of the generator rows (see `_Chain`); zero at the empty set,
    everything at singletons. `chain` holds the sizes below I; without it
    they are computed first. A monoid that is not connected is refused at
    every size (ValueError from h.one()), since primitives need the unit."""
    h.one()
    basis = h.species.structures(I)
    if len(I) == 0:
        return SubspaceBasis(I, basis)
    if chain is None:
        chain = _chain_below(h, len(I))
    space = _kernel_space(basis, I, chain.rows(I, basis))
    chain.built(I, space)
    return space


def primitive_spaces(h: HopfMonoid, nmax: int):
    """The primitive spaces on labelset(n), n = 0 ... nmax, from one chain:
    each size takes its generators from the sizes below it, and none is
    computed twice. Each space is yielded as soon as it is computed."""
    chain = _Chain(h)
    for n in range(nmax + 1):
        yield primitive_space(h, labelset(n), chain=chain)


def hker_rows(f: HopfMorphism, I: FiniteSet) -> list:
    """Sparse rows of the stacked maps (f x id) o Delta_{S,T} over S
    nonempty; columns index the sorted basis of I's source component.
    Every decomposition is built: (f x id) o Delta_{T,S} is another
    constraint than (f x id) o Delta_{S,T}. T = empty is kept too: S = I
    comes last in subset order, and Delta_{I,empty}(s) = s (x) 1, so that
    last block is the matrix of f, one row per target structure. It asks
    for the unit, so a source that is not connected is refused.

    The rows come decomposition by decomposition, each block from
    `_block`. No map result is memoized, since each (S, s) is asked for
    once; one S is held across every structure of a decomposition, so the
    block cuts memoized on it (`split_blocks`) are shared by all of them."""
    h = f.source
    basis = h.species.structures(I)
    rows: list = []
    for S, T in I.decompositions():
        if S.labels:
            rows += _block(h, basis, S, T, f).values()
    return rows


def hker_space(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Kernel of the stacked maps (pi x id) o Delta_{S,T} over all S != empty.

    The empty-S components never constrain (the positive part of the target
    kills them), so they are omitted; for nonempty I, T = empty contributes
    the condition pi(x) = 0 itself, the last block of `hker_rows`.
    """
    return _kernel_space(f.source.species.structures(I), I, hker_rows(f, I))


def lker_space(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Primitives of the source killed by f: the generator rows of the
    primitive constraints (see `_Chain`) with the matrix of f, the
    (I, empty) block with f, below them."""
    h = f.source
    basis = h.species.structures(I)
    if len(I) == 0:
        return SubspaceBasis(I, basis)
    rows = _chain_below(h, len(I)).rows(I, basis)
    rows += _block(h, basis, I, EMPTY, f).values()
    return _kernel_space(basis, I, rows)


def hker_dims(f: HopfMorphism, nmax: int) -> list:
    return [hker_space(f, labelset(n)).dim for n in range(nmax + 1)]


def primitive_dims(h: HopfMonoid, nmax: int) -> list:
    """dim of the primitive space per size, the empty set included."""
    return [space.dim for space in primitive_spaces(h, nmax)]
