"""Concrete connected Hopf monoids and the canonical morphisms between them.

Product and coproduct are given on basis structures for decompositions with
both parts nonempty; the empty-side cases are the canonical identifications
forced by connectedness and are handled once in HopfMonoid. All the monoids
built here are linearized: structure maps send basis elements to basis
elements (or to zero, for coproducts with an admissibility condition).

Coproducts of the partition and composition monoids are plain restriction,
which together with the union/concatenation products passes the full axiom
suite and gives the expected generating series.

Every structure map, and every canonical morphism, is a closure that
returns a tuple of (output, coefficient) pairs: `((out, 1),)` for the
monoids built here, `()` for zero. Each monoid holds one `intern_table`,
keyed by the canonical key of a structure (blocks, sequence, mapping or
sorted labels tuple), that fetches the one instance it holds for that
key, so each distinct output of the maps is built and validated once per
monoid. Every species enumerates the same canonical keys, and records the
kind that builds and checks them (`_keyed`); its `structures` builds the
basis apart from the table: a basis structure and the output with its key
are equal, not one object.

mu and Delta are defined on those keys: an output of a monoid's `mu` is
the key on S u T, one of its `delta` the pair (key on S, key on T), and
the monoid records its table's lookup as `intern`. `HopfMonoid.product`
and `HopfMonoid.coproduct` intern the keys and check them, and are the
structure-level view that the axiom battery and the linear extensions
read; the kernel rows read Delta's keys directly (`kernels._block`). A
canonical morphism interns its outputs through its target's `intern`, so
its images are the target's own structures.
"""

from __future__ import annotations

import itertools

from .species import (EMPTY, SIZE_CAP, Element, FiniteSet, FunctionToK,
                      LinearOrder, PairStructure, PalComposition, QTensor,
                      QVector, SetComposition, SetPartition, SingletonMark,
                      SpeciesSpec, Structure, check_coeff, hadamard)


class _InternTable(dict):
    """Canonical key -> the one structure built for it; a missing key is
    built on the spot and stored only once its build has returned."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        got = self[key] = self.build(key)
        return got


def intern_table(build):
    """A lookup from canonical keys to structures. The first request for a
    key runs `build(key)`, the ordinary validating constructor; every later
    one returns that same instance. The lookup is the table's own bound
    `__getitem__`, so a hit runs no Python code: only a miss calls
    `__missing__`. Each shipped monoid holds one table, recorded as its
    `intern`, so it lives exactly as long as the monoid; its maps and the
    morphisms into it fetch through that lookup."""
    return _InternTable(build).__getitem__


def split_blocks(blocks, S: FiniteSet) -> tuple:
    """The blocks restricted to S and to the rest: the nonempty
    intersections in block order, so sorted blocks stay sorted.

    Each block is cut once per label set: the (inside, outside) pair is
    memoized in `S.cuts`, created here on first use, so the many structures
    evaluated at one decomposition share their blocks' cuts."""
    try:
        cuts = S.cuts
    except AttributeError:
        cuts = S.cuts = {}
    left, right = [], []
    for b in blocks:
        cut = cuts.get(b)
        if cut is None:
            inside = set(S.labels).__contains__
            cut = cuts[b] = (tuple(filter(inside, b)),
                             tuple(itertools.filterfalse(inside, b)))
        bb, rest = cut
        if bb:
            left.append(bb)
        if rest:
            right.append(rest)
    return tuple(left), tuple(right)


class HopfMonoid:
    """A species with product mu_{S,T} and coproduct Delta_{S,T} on basis
    elements.

    `product`/`coproduct` return the maps' (output, coefficient) pairs,
    each output interned and checked to live where it must, and memoize
    no map result: the kernel rows ask for each value once, and the axiom
    battery keeps its own memo for the length of one check. The
    block-restricting coproducts memoize only the cut of each block, per
    label set S, on S (see `split_blocks`).

    `intern` and `cocommutative` are declarations a constructor records
    after building a monoid (`_declare`). `intern` looks up the keys that
    the maps' outputs are given by: a shipped monoid's `mu` returns
    (key on S u T, c), its `delta` ((key on S, key on T), c), and `intern`
    is its `intern_table`. A monoid built directly returns structures, and
    keeps the class default, the identity. `cocommutative` is never
    inferred: it is set for a monoid whose Delta_{T,S} is the twist of
    Delta_{S,T}, and the primitive rows then skip the mirrored
    decompositions. A monoid built directly keeps the class default,
    False, and every decomposition.
    """

    cocommutative = False

    @staticmethod
    def intern(key):
        return key

    def __init__(self, species: SpeciesSpec, mu, delta, name: str | None = None):
        self.species = species
        self.name = name or species.name
        self._mu = mu        # (S, T, x, y) -> pairs (key on S u T, c); S, T nonempty
        self._delta = delta  # (S, T, s) -> pairs ((key on S, key on T), c); S, T nonempty

    def one(self) -> Structure:
        structs = self.species.structures(EMPTY)
        if len(structs) != 1:
            raise ValueError("%s is not connected: dim at the empty set is %d"
                             % (self.name, len(structs)))
        return structs[0]

    def product(self, S: FiniteSet, T: FiniteSet, x: Structure,
                y: Structure) -> tuple:
        """mu_{S,T}(x . y) as interned, checked (structure on S u T, c) pairs."""
        if not S.labels:
            return ((y, 1),)
        if not T.labels:
            return ((x, 1),)
        intern = self.intern
        ambient = S.union(T)
        labels = ambient.labels
        terms = []
        for z, c in self._mu(S, T, x, y):
            z = intern(z)
            # the common case inline; the checks run only to raise
            if type(c) is not int or z._labels.labels != labels:
                check_coeff(c)
                QVector.check_key(ambient, z)
            terms.append((z, c))
        return tuple(terms)

    def coproduct(self, S: FiniteSet, T: FiniteSet, s: Structure) -> tuple:
        """Delta_{S,T}(s) as checked ((u on S, w on T), coefficient) pairs:
        each key pair of the map is interned, then checked."""
        if not S.labels:
            return (((self.one(), s), 1),)
        if not T.labels:
            return (((s, self.one()), 1),)
        intern = self.intern
        left, right = S.labels, T.labels
        terms = []
        for (x, y), c in self._delta(S, T, s):
            pair = intern(x), intern(y)
            # the common case inline; the checks run only to raise
            if (type(c) is not int or pair[0]._labels.labels != left
                    or pair[1]._labels.labels != right):
                check_coeff(c)
                QTensor.check_key(S, T, pair)
            terms.append((pair, c))
        return tuple(terms)

    def __repr__(self):
        return "HopfMonoid(%s)" % self.name


def _keyed(sp: SpeciesSpec, build, check) -> SpeciesSpec:
    """sp, with the kind of the keys its enumerator yields recorded:
    `build(key, I)` builds the structure of a key on the label set I, and
    `check(key, I)` runs that build's check alone and returns the key's
    orbit invariant."""
    sp.build = build
    sp.check = check
    return sp


def _declare(h: HopfMonoid, intern, cocommutative: bool = True) -> HopfMonoid:
    """h, with the lookup of the keys its mu and Delta return and whether
    it is cocommutative recorded."""
    h.intern = intern
    h.cocommutative = cocommutative
    return h


def product_vectors(h: HopfMonoid, S, T, xv: QVector, yv: QVector) -> QVector:
    """mu_{S,T} extended linearly to vectors."""
    return QVector(S.union(T), ((s, c * cx * cy)
                                for x, cx in xv.terms.items()
                                for y, cy in yv.terms.items()
                                for s, c in h.product(S, T, x, y)))


def iterated_product(h: HopfMonoid, parts, vectors) -> QVector:
    """mu applied left-to-right over a sequence of disjoint supports."""
    parts = list(parts)
    vectors = list(vectors)
    acc_support, acc = parts[0], vectors[0]
    for S, v in zip(parts[1:], vectors[1:]):
        acc = product_vectors(h, acc_support, S, acc, v)
        acc_support = acc_support.union(S)
    return acc


class HopfMorphism:
    """A morphism of Hopf monoids, given on basis structures by (structure,
    coefficient) pairs and extended linearly; naturality in the label set
    is part of the contract."""

    def __init__(self, name: str, source: HopfMonoid, target: HopfMonoid, on_basis):
        self.name = name
        self.source = source
        self.target = target
        self._on_basis = on_basis  # s -> pairs (t on the labels of s, c)

    def on_basis(self, s: Structure) -> tuple:
        """f(s) as checked (structure on the labels of s, coefficient) pairs."""
        terms = tuple(self._on_basis(s))
        labels = s._labels.labels
        for t, c in terms:
            # the common case inline; the checks run only to raise
            if type(c) is not int or t._labels.labels != labels:
                check_coeff(c)
                QVector.check_key(s._labels, t)
        return terms

    def __call__(self, v: QVector) -> QVector:
        return QVector(v.ambient, ((t, d * c) for s, c in v.terms.items()
                                   for t, d in self.on_basis(s)))

    def __repr__(self):
        return "HopfMorphism(%s)" % self.name


# ---------------------------------------------------------------------------
# The exponential monoid E, the singleton species X, linear orders L
# ---------------------------------------------------------------------------

def make_E() -> HopfMonoid:
    sp = _keyed(SpeciesSpec("E", lambda I: (I.labels,)),
                SingletonMark, SingletonMark.check)

    def mu(S, T, x, y):
        return ((S.union(T).labels, 1),)

    def delta(S, T, s):
        return (((S.labels, T.labels), 1),)

    return _declare(HopfMonoid(sp, mu, delta), intern_table(SingletonMark))


def make_X() -> HopfMonoid:
    """The species of singletons. Not connected (empty set carries nothing);
    it exists as the primitive part of E and fails check_connected."""
    sp = _keyed(SpeciesSpec("X", lambda I: (I.labels,) if len(I) == 1 else ()),
                SingletonMark, SingletonMark.check)
    return HopfMonoid(sp, lambda S, T, x, y: (), lambda S, T, s: ())


def make_L() -> HopfMonoid:
    # the orders are streamed: n! of them at n = 9 are never listed
    sp = _keyed(SpeciesSpec("L", lambda I: itertools.permutations(I.labels)),
                LinearOrder, LinearOrder.check)

    def mu(S, T, x, y):
        return ((x.seq + y.seq, 1),)

    def delta(S, T, s):
        inside = set(S.labels).__contains__
        return (((tuple(filter(inside, s.seq)),
                  tuple(itertools.filterfalse(inside, s.seq))), 1),)

    return _declare(HopfMonoid(sp, mu, delta), intern_table(LinearOrder))


# ---------------------------------------------------------------------------
# Set partitions
# ---------------------------------------------------------------------------

def block_partitions(labels: tuple, sizes=None):
    """Each set partition of the sorted label tuple `labels` once, as a tuple
    of sorted blocks ordered by their least labels; with `sizes`, only the
    partitions whose block sizes all lie in `sizes`.

    The block holding the least label is chosen first, so no partition is
    generated twice. This is the one partition generator: partitions,
    compositions and their filtered variants are all built from it.
    """
    if not labels:
        yield ()
        return
    head, rest = labels[0], labels[1:]
    n = len(labels)
    for size in range(1, n + 1) if sizes is None else sorted(sizes):
        if size > n:
            break
        for others in itertools.combinations(rest, size - 1):
            taken = set(others)
            remaining = tuple(t for t in rest if t not in taken)
            for tail in block_partitions(remaining, sizes):
                yield ((head,) + others,) + tail


def make_Pi() -> HopfMonoid:
    sp = _keyed(SpeciesSpec("Pi", lambda I: block_partitions(I.labels)),
                SetPartition, SetPartition.check)

    def mu(S, T, x, y):
        return ((tuple(sorted(x.blocks + y.blocks)), 1),)

    def delta(S, T, s):
        left, right = split_blocks(s.blocks, S)
        return (((tuple(sorted(left)), tuple(sorted(right))), 1),)

    return _declare(HopfMonoid(sp, mu, delta), intern_table(SetPartition))


def make_PiPrime() -> SpeciesSpec:
    """Set partitions with pairwise distinct block sizes. A species only:
    no Hopf structure is provided, and none exists on this basis."""

    def enum(I):
        for blocks in block_partitions(I.labels):
            if len({len(b) for b in blocks}) == len(blocks):
                yield blocks

    return _keyed(SpeciesSpec("PiPrime", enum), SetPartition, SetPartition.check)


def closed_sizes(generators, max_size: int) -> frozenset:
    """All sums of the generators up to max_size: the block-size support of
    the additive submonoid they generate."""
    gens = sorted(set(int(g) for g in generators))
    if not gens or gens[0] <= 0:
        raise ValueError("generators must be positive integers")
    reach = {0}
    for v in range(1, max_size + 1):
        if any(v - g in reach for g in gens if v >= g):
            reach.add(v)
    return frozenset(v for v in reach if v > 0)


def _make_PiS(allowed) -> tuple:
    """Quotient of Pi onto partitions with all block sizes in `allowed`,
    and `ok`, the one test of which partitions survive the projection.

    `allowed` must be closed under addition up to SIZE_CAP, i.e. be a
    numerical submonoid there; otherwise restriction-then-project is not
    coassociative. Product is union followed by projection (which never
    leaves the basis) and coproduct is restriction followed by projection.
    """
    allowed = frozenset(int(s) for s in allowed)
    if not allowed or min(allowed) <= 0:
        raise ValueError("allowed block sizes must be positive")
    for i in allowed:
        for j in allowed:
            if i + j <= SIZE_CAP and i + j not in allowed:
                raise ValueError(
                    "sizes %r are not closed under addition (%d+%d)" % (sorted(allowed), i, j))
    name = "PiS:" + ",".join(str(s) for s in sorted(allowed))

    def ok(blocks) -> bool:
        return all(len(b) in allowed for b in blocks)

    sp = _keyed(SpeciesSpec(name, lambda I: block_partitions(I.labels, allowed)),
                SetPartition, SetPartition.check)

    def mu(S, T, x, y):
        merged = tuple(sorted(x.blocks + y.blocks))
        return ((merged, 1),) if ok(merged) else ()

    def delta(S, T, s):
        left, right = (tuple(sorted(side)) for side in split_blocks(s.blocks, S))
        if ok(left) and ok(right):
            return (((left, right), 1),)
        return ()

    return _declare(HopfMonoid(sp, mu, delta), intern_table(SetPartition)), ok


def make_PiS(allowed) -> HopfMonoid:
    return _make_PiS(allowed)[0]


# ---------------------------------------------------------------------------
# Set compositions and palindromic set compositions
# ---------------------------------------------------------------------------

def set_compositions(I: FiniteSet):
    """Each set composition of I once, as its tuple of sorted blocks."""
    for blocks in block_partitions(I.labels):
        yield from itertools.permutations(blocks)


def make_Sigma() -> HopfMonoid:
    sp = _keyed(SpeciesSpec("Sigma", set_compositions),
                SetComposition, SetComposition.check)

    def mu(S, T, x, y):
        return ((x.blocks + y.blocks, 1),)

    def delta(S, T, s):
        return ((split_blocks(s.blocks, S), 1),)

    return _declare(HopfMonoid(sp, mu, delta), intern_table(SetComposition))


# the memo bound of pal_words: its pairs for remainders of up to 4 labels
# are 3,853 short tuples at n = 9, where every remainder listed in full
# would hold megabytes
_PAIRS_MEMO_MAX = 4


def pal_words(labels: tuple):
    """Each palindromic set composition of the sorted label tuple `labels`
    once, as a tuple of sorted blocks: outer pairs of equal-size blocks
    around at most one central block. The centre is the middle block of an
    odd word, so its size has the parity of len(labels).

    A word is built at the top level from its first pair, the (head, tail)
    words of the pairs inside it and the centre. The pairs of a remainder
    of at most _PAIRS_MEMO_MAX labels are listed once per call and reused
    for every centre and first pair around it, so such a word takes one
    step. A longer remainder is cut lazily, one generator level (and one
    more concatenation) per two labels above that bound, so memory stays
    small at any size. Every word up to n = 7 takes one step; at n = 8
    and 9 the words whose first pair leaves 5 or 6 labels (61,600 of
    108,347 and 554,400 of 774,763) climb one lazy level."""
    memo = {(): (((), ()),)}
    n = len(labels)
    for k in range(n % 2, n + 1, 2):
        for center in itertools.combinations(labels, k):
            rest = tuple(itertools.filterfalse(set(center).__contains__, labels))
            middle = (center,) if center else ()
            if not rest:
                yield middle
                continue
            for left, right, remaining in _first_pairs(rest):
                for head, tail in _outer_pairs(remaining, memo):
                    yield (left, *head, *middle, *tail, right)


def _first_pairs(labels: tuple):
    """Each pair (B, B') of disjoint equal-size blocks of the sorted label
    tuple, as (B, B', the labels in neither)."""
    m = len(labels)
    for size in range(1, m // 2 + 1):
        for left in itertools.combinations(labels, size):
            others = tuple(itertools.filterfalse(set(left).__contains__, labels))
            for right in itertools.combinations(others, size):
                yield left, right, tuple(
                    itertools.filterfalse(set(right).__contains__, others))


def _outer_pairs(labels: tuple, memo: dict):
    """Each way to cut the sorted label tuple into an ordered sequence of
    pairs of equal-size blocks (B1, B1'), ..., (Bh, Bh'), as the pair of
    words (B1, ..., Bh) and (Bh', ..., B1'); the empty tuple has one, with
    h = 0. `memo` keeps the pairs of short remainders (see pal_words)."""
    got = memo.get(labels)
    if got is None:
        got = (((left,) + head, tail + (right,))
               for left, right, remaining in _first_pairs(labels)
               for head, tail in _outer_pairs(remaining, memo))
        if len(labels) <= _PAIRS_MEMO_MAX:
            got = memo[labels] = tuple(got)
    return got


def pal_split(F: PalComposition):
    """The triple (initial blocks, central block or (), final blocks)."""
    r = len(F.blocks)
    half = r // 2
    center = F.blocks[half] if r % 2 else ()
    return F.blocks[:half], center, F.blocks[r - half:]


def make_Pal() -> HopfMonoid:
    sp = _keyed(SpeciesSpec("Pal", lambda I: pal_words(I.labels)),
                PalComposition, PalComposition.check)

    def mu(S, T, x, y):
        # concatenate initial runs, merge central blocks, concatenate final
        # runs in the opposite order
        xinit, xc, xfin = pal_split(x)
        yinit, yc, yfin = pal_split(y)
        center = tuple(sorted(xc + yc))
        blocks = xinit + yinit + ((center,) if center else ()) + yfin + xfin
        return ((blocks, 1),)

    def delta(S, T, s):
        # zero unless each block B_i and its mirror B_{r-1-i} meet S in
        # equally many labels, as read off the cuts split_blocks leaves on S
        left, right = split_blocks(s.blocks, S)
        blocks, cuts = s.blocks, S.cuts
        for b, mirror in zip(blocks[:len(blocks) // 2], reversed(blocks)):
            if len(cuts[b][0]) != len(cuts[mirror][0]):
                return ()
        return (((left, right), 1),)

    return _declare(HopfMonoid(sp, mu, delta), intern_table(PalComposition))


# ---------------------------------------------------------------------------
# Cauchy powers of E, and the species of elements
# ---------------------------------------------------------------------------

def make_Ek(k: int) -> HopfMonoid:
    """The k-th Cauchy power of E: basis the functions I -> {1..k};
    product glues graphs of functions with disjoint domains."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative integer")

    def enum(I):
        # streamed, like L's orders: k^n mappings are never listed
        return (tuple(zip(I.labels, values))
                for values in itertools.product(range(1, k + 1), repeat=len(I)))

    sp = _keyed(SpeciesSpec("Ek:%d" % k, enum),
                lambda mapping, I: FunctionToK(mapping, k, I),
                lambda mapping, I: FunctionToK.check(mapping, k, I))

    def mu(S, T, x, y):
        return ((tuple(sorted(x.mapping + y.mapping)), 1),)

    def delta(S, T, s):
        keep = set(S.labels)
        return (((tuple(m for m in s.mapping if m[0] in keep),
                  tuple(m for m in s.mapping if m[0] not in keep)), 1),)

    return _declare(HopfMonoid(sp, mu, delta),
                    intern_table(lambda mapping: FunctionToK(mapping, k)))


def make_el() -> SpeciesSpec:
    """The species of elements: the label set itself is the basis. Species
    only; its dimension sequence rules out any Hopf monoid structure."""
    return _keyed(SpeciesSpec("el", lambda I: I.labels),
                  lambda point, I: Element(I, point), Element.check)


def hadamard_hopf(a: HopfMonoid, b: HopfMonoid) -> HopfMonoid:
    """Componentwise structure maps on pair structures; declared
    cocommutative when both factors are.

    A pair's key is the pair of its factors' keys, so mu and Delta pair
    the keys of the factors' own mu and Delta; `intern` interns each
    factor key and then the pair."""
    sp = hadamard(a.species, b.species)
    pair = intern_table(lambda key: PairStructure(*key))
    a_intern, b_intern = a.intern, b.intern

    def mu(S, T, x, y):
        u = a._mu(S, T, x.left, y.left)
        v = tuple(b._mu(S, T, x.right, y.right))
        return tuple(((z1, z2), c1 * c2) for z1, c1 in u for z2, c2 in v)

    def delta(S, T, s):
        u = a._delta(S, T, s.left)
        v = tuple(b._delta(S, T, s.right))
        return tuple((((x1, x2), (y1, y2)), c1 * c2)
                     for (x1, y1), c1 in u for (x2, y2), c2 in v)

    def intern(key):
        return pair((a_intern(key[0]), b_intern(key[1])))

    h = HopfMonoid(sp, mu, delta, name="Hadamard(%s,%s)" % (a.name, b.name))
    return _declare(h, intern, a.cocommutative and b.cocommutative)


# ---------------------------------------------------------------------------
# Canonical morphisms
# ---------------------------------------------------------------------------

def morphism_L_to_E(L: HopfMonoid | None = None, E: HopfMonoid | None = None) -> HopfMorphism:
    """Collapse every linear order to the canonical basis element."""
    L = L or make_L()
    E = E or make_E()
    return HopfMorphism("L->E", L, E, lambda s: ((E.intern(s.labels.labels), 1),))


def morphism_E_to_Pi(E: HopfMonoid | None = None, Pi: HopfMonoid | None = None) -> HopfMorphism:
    """Embed E as the partitions into singletons."""
    E = E or make_E()
    Pi = Pi or make_Pi()
    return HopfMorphism("E->Pi", E, Pi, lambda s: (
        (Pi.intern(tuple((t,) for t in s.labels)), 1),))


def morphism_L_to_Sigma(L: HopfMonoid | None = None,
                        Sigma: HopfMonoid | None = None) -> HopfMorphism:
    """View a linear order as a composition into singleton blocks."""
    L = L or make_L()
    Sigma = Sigma or make_Sigma()
    return HopfMorphism("L->Sigma", L, Sigma, lambda s: (
        (Sigma.intern(tuple((t,) for t in s.seq)), 1),))


def morphism_Ek_to_Ek1(k: int) -> HopfMorphism:
    """Postcompose with the inclusion {1..k} into {1..k+1} sending i to i."""
    target = make_Ek(k + 1)
    return HopfMorphism("Ek:%d->Ek:%d" % (k, k + 1), make_Ek(k), target,
                        lambda s: ((target.intern(s.mapping), 1),))


def morphism_Pi_to_PiS(allowed) -> HopfMorphism:
    """Project a partition onto the quotient basis, killing partitions with
    a block size outside `allowed`."""
    PiS, ok = _make_PiS(allowed)

    def on_basis(s):
        return ((PiS.intern(s.blocks), 1),) if ok(s.blocks) else ()

    return HopfMorphism("Pi->%s" % PiS.name, make_Pi(), PiS, on_basis)


# ---------------------------------------------------------------------------
# Identifier registry (CLI surface)
# ---------------------------------------------------------------------------

def _parse(ident: str):
    """The one reading of an identifier, as (head, args). The families
    'Hadamard(A,B)' (split at the comma outside parentheses), 'Ek:k' and
    'PiS:g1,g2,...' (the block sizes the generators reach up to SIZE_CAP)
    have their template as head, which no bare name can equal; any other
    identifier is a bare name with no args."""
    ident = ident.strip()
    if ident.startswith("Hadamard(") and ident.endswith(")"):
        inner, depth = ident[len("Hadamard("):-1], 0
        for i, ch in enumerate(inner):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0:
                return "Hadamard(A,B)", (inner[:i], inner[i + 1:])
        raise ValueError("malformed Hadamard identifier: %r" % ident)
    head, colon, arg = ident.partition(":")
    if not colon or head not in ("Ek", "PiS"):
        return ident, ()
    if head == "Ek":
        try:
            k = int(arg)
        except ValueError:
            raise ValueError("bad identifier %r: k must be an integer" % ident) from None
        if k < 0:
            raise ValueError("bad identifier %r: k must be nonnegative" % ident)
        return "Ek:k", (k,)
    try:
        gens = [int(v) for v in arg.split(",") if v]
    except ValueError:
        raise ValueError("bad identifier %r: generators must be integers"
                         % ident) from None
    if not gens or min(gens) <= 0:
        raise ValueError("bad identifier %r: generators must be positive integers"
                         % ident)
    sizes = closed_sizes(gens, SIZE_CAP)
    if not sizes:
        raise ValueError("bad identifier %r: its generators reach no block"
                         " size up to the cap %d" % (ident, SIZE_CAP))
    return "PiS:g1,g2,...", (sizes,)


# Constructors by head; a family's takes the args its identifier parses to.
MONOIDS = {"E": make_E, "X": make_X, "L": make_L, "Pi": make_Pi,
           "Sigma": make_Sigma, "Pal": make_Pal, "Ek:k": make_Ek,
           "PiS:g1,g2,...": make_PiS,
           "Hadamard(A,B)": lambda a, b: hadamard_hopf(get_hopf(a), get_hopf(b))}
SPECIES_ONLY = {"PiPrime": make_PiPrime, "el": make_el}
MORPHISMS = {("L", "E"): morphism_L_to_E, ("E", "Pi"): morphism_E_to_Pi,
             ("L", "Sigma"): morphism_L_to_Sigma}


def get_species(ident: str) -> SpeciesSpec:
    head, args = _parse(ident)
    if head == "Hadamard(A,B)":
        return hadamard(*map(get_species, args))
    if head in SPECIES_ONLY:
        return SPECIES_ONLY[head]()
    return get_hopf(ident).species


def get_hopf(ident: str) -> HopfMonoid:
    head, args = _parse(ident)
    if head in SPECIES_ONLY:
        raise ValueError("%s is a species without a Hopf monoid structure" % head)
    if head not in MONOIDS:
        raise ValueError("unknown species identifier: %r" % head)
    return MONOIDS[head](*args)


def get_morphism(ident: str) -> HopfMorphism:
    ident = ident.strip()
    if "->" not in ident:
        raise ValueError("morphism identifier must look like 'L->E': %r" % ident)
    (src, src_args), (dst, dst_args) = map(_parse, ident.split("->", 1))
    if (src, dst) in MORPHISMS:
        return MORPHISMS[src, dst]()
    if (src, dst) == ("Ek:k", "Ek:k"):
        if dst_args[0] != src_args[0] + 1:
            raise ValueError("only the inclusion Ek:k->Ek:k+1 is available")
        return morphism_Ek_to_Ek1(*src_args)
    if (src, dst) == ("Pi", "PiS:g1,g2,..."):
        return morphism_Pi_to_PiS(*dst_args)
    raise ValueError("unknown morphism identifier: %r" % ident)
