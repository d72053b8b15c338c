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
monoid. Each monoid is built on its species from the catalog in
`species`, which enumerates the same canonical keys and records the kind
that builds and checks them, so this module adds mu, Delta and the table
and defines no species again. The species' `structures` builds the basis
apart from the table: a basis structure and the output with its key are
equal, not one object.

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

# set_compositions is re-exported: perfbench's tracer wraps it here
from .species import (CATALOG, EMPTY, SIZE_CAP, FiniteSet, FunctionToK,
                      LinearOrder, PairStructure, PalComposition,
                      SetComposition, SetPartition, SingletonMark, SpeciesSpec,
                      Structure, _parse, hadamard, set_compositions, species_E,
                      species_Ek, species_L, species_Pal, species_Pi,
                      species_PiS, species_Sigma, species_X)
from .vectors import QTensor, QVector, check_coeff


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
    Delta_{S,T}, and the primitive rows then keep only the
    decompositions whose S holds the first label (`kernels._Chain`). A
    monoid built directly keeps the class default, False, and every
    decomposition.
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
    def mu(S, T, x, y):
        return ((S.union(T).labels, 1),)

    def delta(S, T, s):
        return (((S.labels, T.labels), 1),)

    return _declare(HopfMonoid(species_E(), mu, delta), intern_table(SingletonMark))


def make_X() -> HopfMonoid:
    """The species of singletons. Not connected (empty set carries nothing);
    it exists as the primitive part of E and fails check_connected."""
    return HopfMonoid(species_X(), lambda S, T, x, y: (), lambda S, T, s: ())


def make_L() -> HopfMonoid:
    def mu(S, T, x, y):
        return ((x.seq + y.seq, 1),)

    def delta(S, T, s):
        inside = set(S.labels).__contains__
        return (((tuple(filter(inside, s.seq)),
                  tuple(itertools.filterfalse(inside, s.seq))), 1),)

    return _declare(HopfMonoid(species_L(), mu, delta), intern_table(LinearOrder))


# ---------------------------------------------------------------------------
# Set partitions
# ---------------------------------------------------------------------------

def make_Pi() -> HopfMonoid:
    def mu(S, T, x, y):
        return ((tuple(sorted(x.blocks + y.blocks)), 1),)

    def delta(S, T, s):
        left, right = split_blocks(s.blocks, S)
        return (((tuple(sorted(left)), tuple(sorted(right))), 1),)

    return _declare(HopfMonoid(species_Pi(), mu, delta), intern_table(SetPartition))


def _make_PiS(allowed) -> tuple:
    """Quotient of Pi onto partitions with all block sizes in `allowed`,
    and `ok`, its species' one test of which partitions survive the
    projection.

    `allowed` must be closed under addition up to SIZE_CAP, i.e. be a
    numerical submonoid there; otherwise restriction-then-project is not
    coassociative. Product is union followed by projection (which never
    leaves the basis) and coproduct is restriction followed by projection.
    """
    allowed = frozenset(int(s) for s in allowed)
    sp = species_PiS(allowed)
    for i in allowed:
        for j in allowed:
            if i + j <= SIZE_CAP and i + j not in allowed:
                raise ValueError(
                    "sizes %r are not closed under addition (%d+%d)" % (sorted(allowed), i, j))
    ok = sp.admits

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

def make_Sigma() -> HopfMonoid:
    def mu(S, T, x, y):
        return ((x.blocks + y.blocks, 1),)

    def delta(S, T, s):
        return ((split_blocks(s.blocks, S), 1),)

    return _declare(HopfMonoid(species_Sigma(), mu, delta), intern_table(SetComposition))


def pal_split(F: PalComposition):
    """The triple (initial blocks, central block or (), final blocks)."""
    r = len(F.blocks)
    half = r // 2
    center = F.blocks[half] if r % 2 else ()
    return F.blocks[:half], center, F.blocks[r - half:]


def make_Pal() -> HopfMonoid:
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

    return _declare(HopfMonoid(species_Pal(), mu, delta), intern_table(PalComposition))


# ---------------------------------------------------------------------------
# Cauchy powers of E
# ---------------------------------------------------------------------------

def make_Ek(k: int) -> HopfMonoid:
    """The k-th Cauchy power of E: basis the functions I -> {1..k};
    product glues graphs of functions with disjoint domains."""
    sp = species_Ek(k)

    def mu(S, T, x, y):
        return ((tuple(sorted(x.mapping + y.mapping)), 1),)

    def delta(S, T, s):
        keep = set(S.labels)
        return (((tuple(m for m in s.mapping if m[0] in keep),
                  tuple(m for m in s.mapping if m[0] not in keep)), 1),)

    return _declare(HopfMonoid(sp, mu, delta),
                    intern_table(lambda mapping: FunctionToK(mapping, k)))


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

# Constructors by head; a family's takes the args its identifier parses to.
MONOIDS = {"E": make_E, "X": make_X, "L": make_L, "Pi": make_Pi,
           "Sigma": make_Sigma, "Pal": make_Pal, "Ek:k": make_Ek,
           "PiS:g1,g2,...": make_PiS,
           "Hadamard(A,B)": lambda a, b: hadamard_hopf(get_hopf(a), get_hopf(b))}
# the species of the catalog that carry no Hopf monoid
SPECIES_ONLY = {head: make for head, make in CATALOG.items() if head not in MONOIDS}
MORPHISMS = {("L", "E"): morphism_L_to_E, ("E", "Pi"): morphism_E_to_Pi,
             ("L", "Sigma"): morphism_L_to_Sigma}


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
