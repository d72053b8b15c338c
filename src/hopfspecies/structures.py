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
monoids built here, `()` for zero. An output of Delta is a pair
(structure on S, structure on T). The outputs are interned: each map
computes the canonical key of an output (blocks, sequence, mapping, label
set or component pair) and fetches the one instance its `intern_table`
holds for that key, so each distinct output is built and validated once.
"""

from __future__ import annotations

import itertools

from .species import (EMPTY, SIZE_CAP, Element, FiniteSet, FunctionToK,
                      LinearOrder, PairStructure, PalComposition, QTensor,
                      QVector, SetComposition, SetPartition, SingletonMark,
                      SpeciesSpec, Structure, check_coeff, hadamard)


def intern_table(build):
    """A lookup from canonical keys to structures. The first request for a
    key runs `build(key)`, the ordinary validating constructor; every later
    one returns that same instance. Each monoid's structure maps (and each
    morphism) hold their own table, so it lives exactly as long as they do."""
    table = {}

    def get(key):
        got = table.get(key)
        if got is None:
            got = table[key] = build(key)
        return got
    return get


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
    each output checked to live where it must, and memoize no map result:
    the kernel rows ask for each value once, and the axiom battery keeps
    its own memo for the length of one check. The block-restricting
    coproducts memoize only the cut of each block, per label set S, on S
    (see `split_blocks`).
    """

    def __init__(self, species: SpeciesSpec, mu, delta, name: str | None = None):
        self.species = species
        self.name = name or species.name
        self._mu = mu        # (S, T, x, y) -> pairs (z on S u T, c); S, T nonempty
        self._delta = delta  # (S, T, s) -> pairs ((u on S, w on T), c); S, T nonempty
        self.space_cache: dict = {}  # kernels' subspaces, by (kind, labels)

    def one(self) -> Structure:
        structs = self.species.structures(EMPTY)
        if len(structs) != 1:
            raise ValueError("%s is not connected: dim at the empty set is %d"
                             % (self.name, len(structs)))
        return structs[0]

    def product(self, S: FiniteSet, T: FiniteSet, x: Structure,
                y: Structure) -> tuple:
        """mu_{S,T}(x . y) as checked (structure on S u T, coefficient) pairs."""
        if len(S) == 0:
            return ((y, 1),)
        if len(T) == 0:
            return ((x, 1),)
        terms = tuple(self._mu(S, T, x, y))
        ambient = S.union(T)
        for z, c in terms:
            check_coeff(c)
            QVector.check_key(ambient, z)
        return terms

    def coproduct(self, S: FiniteSet, T: FiniteSet, s: Structure) -> tuple:
        """Delta_{S,T}(s) as checked ((u on S, w on T), coefficient) pairs."""
        if len(S) == 0:
            return (((self.one(), s), 1),)
        if len(T) == 0:
            return (((s, self.one()), 1),)
        terms = tuple(self._delta(S, T, s))
        for key, c in terms:
            check_coeff(c)
            QTensor.check_key(S, T, key)
        return terms

    def __repr__(self):
        return "HopfMonoid(%s)" % self.name


def product_vectors(h: HopfMonoid, S, T, xv: QVector, yv: QVector) -> QVector:
    """mu_{S,T} extended linearly to vectors."""
    return QVector(S.union(T), ((s, c * cx * cy)
                                for x, cx in xv.terms.items()
                                for y, cy in yv.terms.items()
                                for s, c in h.product(S, T, x, y)))


def coproduct_vector(h: HopfMonoid, S, T, v: QVector) -> QTensor:
    """Delta_{S,T} extended linearly to vectors."""
    return QTensor(S, T, ((k, d * c) for s, c in v.terms.items()
                          for k, d in h.coproduct(S, T, s)))


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
        self.space_cache: dict = {}  # kernels' subspaces, by (kind, labels)

    def on_basis(self, s: Structure) -> tuple:
        """f(s) as checked (structure on the labels of s, coefficient) pairs."""
        terms = tuple(self._on_basis(s))
        for t, c in terms:
            check_coeff(c)
            QVector.check_key(s.labels, t)
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
    sp = SpeciesSpec("E", lambda I: [SingletonMark(I)])
    mark = intern_table(SingletonMark)

    def mu(S, T, x, y):
        return ((mark(S.union(T)), 1),)

    def delta(S, T, s):
        return (((mark(S), mark(T)), 1),)

    return HopfMonoid(sp, mu, delta)


def make_X() -> HopfMonoid:
    """The species of singletons. Not connected (empty set carries nothing);
    it exists as the primitive part of E and fails check_connected."""
    sp = SpeciesSpec("X", lambda I: [SingletonMark(I)] if len(I) == 1 else [])
    return HopfMonoid(sp, lambda S, T, x, y: (), lambda S, T, s: ())


def make_L() -> HopfMonoid:
    sp = SpeciesSpec(
        "L", lambda I: [LinearOrder(p, I) for p in itertools.permutations(I.labels)])
    order = intern_table(LinearOrder)

    def mu(S, T, x, y):
        return ((order(x.seq + y.seq), 1),)

    def delta(S, T, s):
        inside = set(S.labels).__contains__
        return (((order(tuple(filter(inside, s.seq))),
                  order(tuple(itertools.filterfalse(inside, s.seq)))), 1),)

    return HopfMonoid(sp, mu, delta)


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


def set_partitions(I: FiniteSet):
    for blocks in block_partitions(I.labels):
        yield SetPartition(blocks, I)


def make_Pi() -> HopfMonoid:
    sp = SpeciesSpec("Pi", set_partitions)
    partition = intern_table(SetPartition)

    def mu(S, T, x, y):
        return ((partition(tuple(sorted(x.blocks + y.blocks))), 1),)

    def delta(S, T, s):
        left, right = split_blocks(s.blocks, S)
        return (((partition(tuple(sorted(left))),
                  partition(tuple(sorted(right)))), 1),)

    return HopfMonoid(sp, mu, delta)


def make_PiPrime() -> SpeciesSpec:
    """Set partitions with pairwise distinct block sizes. A species only:
    no Hopf structure is provided, and none exists on this basis."""

    def enum(I):
        for blocks in block_partitions(I.labels):
            if len({len(b) for b in blocks}) == len(blocks):
                yield SetPartition(blocks, I)

    return SpeciesSpec("PiPrime", enum)


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


def make_PiS(allowed) -> HopfMonoid:
    """Quotient of Pi onto partitions with all block sizes in `allowed`.

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

    def enum(I):
        for blocks in block_partitions(I.labels, allowed):
            yield SetPartition(blocks, I)

    sp = SpeciesSpec(name, enum)
    partition = intern_table(SetPartition)

    def mu(S, T, x, y):
        merged = tuple(sorted(x.blocks + y.blocks))
        return ((partition(merged), 1),) if ok(merged) else ()

    def delta(S, T, s):
        left, right = (tuple(sorted(side)) for side in split_blocks(s.blocks, S))
        if ok(left) and ok(right):
            return (((partition(left), partition(right)), 1),)
        return ()

    return HopfMonoid(sp, mu, delta)


def make_Pi_even() -> HopfMonoid:
    return make_PiS(closed_sizes([2], SIZE_CAP))


# ---------------------------------------------------------------------------
# Set compositions and palindromic set compositions
# ---------------------------------------------------------------------------

def set_compositions(I: FiniteSet):
    for blocks in block_partitions(I.labels):
        for order in itertools.permutations(blocks):
            yield SetComposition(order, I)


def make_Sigma() -> HopfMonoid:
    sp = SpeciesSpec("Sigma", set_compositions)
    composition = intern_table(SetComposition)

    def mu(S, T, x, y):
        return ((composition(x.blocks + y.blocks), 1),)

    def delta(S, T, s):
        left, right = split_blocks(s.blocks, S)
        return (((composition(left), composition(right)), 1),)

    return HopfMonoid(sp, mu, delta)


def pal_words(labels: tuple):
    """Each palindromic set composition of the sorted label tuple `labels`
    once, as a tuple of sorted blocks: outer pairs of equal-size blocks
    around at most one central block. The centre is the middle block of an
    odd word, so its size has the parity of len(labels)."""
    n = len(labels)
    for k in range(n % 2, n + 1, 2):
        for center in itertools.combinations(labels, k):
            taken = set(center)
            rest = tuple(t for t in labels if t not in taken)
            middle = (center,) if center else ()
            if not rest:
                yield middle
                continue
            for head, tail in _outer_pairs(rest):
                yield head + middle + tail


def _outer_pairs(labels: tuple):
    """Each way to cut the nonempty sorted label tuple into an ordered
    sequence of pairs of equal-size blocks (B1, B1'), ..., (Bh, Bh'), as
    the pair of words (B1, ..., Bh) and (Bh', ..., B1')."""
    m = len(labels)
    for size in range(1, m // 2 + 1):
        for left in itertools.combinations(labels, size):
            taken = set(left)
            others = tuple(t for t in labels if t not in taken)
            for right in itertools.combinations(others, size):
                if 2 * size == m:
                    # the last pair: no recursion for the empty remainder
                    yield (left,), (right,)
                    continue
                taken = set(right)
                remaining = tuple(t for t in others if t not in taken)
                for head, tail in _outer_pairs(remaining):
                    yield (left,) + head, tail + (right,)


def pal_split(F: PalComposition):
    """The triple (initial blocks, central block or (), final blocks)."""
    r = len(F.blocks)
    half = r // 2
    center = F.blocks[half] if r % 2 else ()
    return F.blocks[:half], center, F.blocks[r - half:]


def make_Pal() -> HopfMonoid:
    def enum(I):
        for blocks in pal_words(I.labels):
            yield PalComposition(blocks, I)

    sp = SpeciesSpec("Pal", enum)
    pal = intern_table(PalComposition)

    def mu(S, T, x, y):
        # concatenate initial runs, merge central blocks, concatenate final
        # runs in the opposite order
        xinit, xc, xfin = pal_split(x)
        yinit, yc, yfin = pal_split(y)
        center = tuple(sorted(xc + yc))
        blocks = xinit + yinit + ((center,) if center else ()) + yfin + xfin
        return ((pal(blocks), 1),)

    def delta(S, T, s):
        # zero unless each block B_i and its mirror B_{r-1-i} meet S in
        # equally many labels, as read off the cuts split_blocks leaves on S
        left, right = split_blocks(s.blocks, S)
        blocks, cuts = s.blocks, S.cuts
        for b, mirror in zip(blocks[:len(blocks) // 2], reversed(blocks)):
            if len(cuts[b][0]) != len(cuts[mirror][0]):
                return ()
        return (((pal(left), pal(right)), 1),)

    return HopfMonoid(sp, mu, delta)


# ---------------------------------------------------------------------------
# Cauchy powers of E, and the species of elements
# ---------------------------------------------------------------------------

def make_Ek(k: int) -> HopfMonoid:
    """The k-th Cauchy power of E: basis the functions I -> {1..k};
    product glues graphs of functions with disjoint domains."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative integer")

    def enum(I):
        return [FunctionToK(zip(I.labels, values), k, I)
                for values in itertools.product(range(1, k + 1), repeat=len(I))]

    sp = SpeciesSpec("Ek:%d" % k, enum)
    function = intern_table(lambda mapping: FunctionToK(mapping, k))

    def mu(S, T, x, y):
        return ((function(tuple(sorted(x.mapping + y.mapping))), 1),)

    def delta(S, T, s):
        keep = set(S.labels)
        return (((function(tuple(m for m in s.mapping if m[0] in keep)),
                  function(tuple(m for m in s.mapping if m[0] not in keep))), 1),)

    return HopfMonoid(sp, mu, delta)


def make_el() -> SpeciesSpec:
    """The species of elements: the label set itself is the basis. Species
    only; its dimension sequence rules out any Hopf monoid structure."""
    return SpeciesSpec("el", lambda I: [Element(I, t) for t in I])


def hadamard_hopf(a: HopfMonoid, b: HopfMonoid) -> HopfMonoid:
    """Componentwise structure maps on pair structures."""
    sp = hadamard(a.species, b.species)
    pair = intern_table(lambda key: PairStructure(*key))

    def mu(S, T, x, y):
        u = a.product(S, T, x.left, y.left)
        v = b.product(S, T, x.right, y.right)
        return tuple((pair((s1, s2)), c1 * c2) for s1, c1 in u for s2, c2 in v)

    def delta(S, T, s):
        u = a.coproduct(S, T, s.left)
        v = b.coproduct(S, T, s.right)
        return tuple(((pair((x1, x2)), pair((y1, y2))), c1 * c2)
                     for (x1, y1), c1 in u for (x2, y2), c2 in v)

    return HopfMonoid(sp, mu, delta, name="Hadamard(%s,%s)" % (a.name, b.name))


# ---------------------------------------------------------------------------
# Canonical morphisms
# ---------------------------------------------------------------------------

def morphism_L_to_E(L: HopfMonoid | None = None, E: HopfMonoid | None = None) -> HopfMorphism:
    """Collapse every linear order to the canonical basis element."""
    L = L or make_L()
    E = E or make_E()
    mark = intern_table(SingletonMark)
    return HopfMorphism("L->E", L, E, lambda s: ((mark(s.labels), 1),))


def morphism_E_to_Pi(E: HopfMonoid | None = None, Pi: HopfMonoid | None = None) -> HopfMorphism:
    """Embed E as the partitions into singletons."""
    E = E or make_E()
    Pi = Pi or make_Pi()
    partition = intern_table(SetPartition)
    return HopfMorphism("E->Pi", E, Pi, lambda s: (
        (partition(tuple((t,) for t in s.labels)), 1),))


def morphism_L_to_Sigma(L: HopfMonoid | None = None,
                        Sigma: HopfMonoid | None = None) -> HopfMorphism:
    """View a linear order as a composition into singleton blocks."""
    L = L or make_L()
    Sigma = Sigma or make_Sigma()
    composition = intern_table(SetComposition)
    return HopfMorphism("L->Sigma", L, Sigma, lambda s: (
        (composition(tuple((t,) for t in s.seq)), 1),))


def morphism_Ek_to_Ek1(k: int) -> HopfMorphism:
    """Postcompose with the inclusion {1..k} into {1..k+1} sending i to i."""
    function = intern_table(lambda mapping: FunctionToK(mapping, k + 1))
    return HopfMorphism("Ek:%d->Ek:%d" % (k, k + 1), make_Ek(k), make_Ek(k + 1),
                        lambda s: ((function(s.mapping), 1),))


def morphism_Pi_to_PiS(allowed) -> HopfMorphism:
    """Project a partition onto the quotient basis, killing partitions with
    a block size outside `allowed`."""
    PiS = make_PiS(allowed)
    allowed = frozenset(int(s) for s in allowed)

    def on_basis(s):
        return ((s, 1),) if all(len(b) in allowed for b in s.blocks) else ()

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
