"""Set species over finite label sets, and the catalog of named species.

A species is given by a basis enumerator (finite label set -> the
canonical keys of its combinatorial structures) together with relabeling
along bijections. Each kind of structure has one check of a key on a label
set, which its constructor runs and which a count runs alone. The
structures themselves are immutable value objects with a total order, so
every enumeration, vector and matrix in the package is canonically sorted.

Each named species is defined once here, by its enumerator and its kind
(the catalog at the end, read by `get_species`); `structures` builds each
Hopf monoid on that same species. Counting a species loads nothing but
this module: the vectors (`vectors`), and with them `fractions`, load with
the commands that evaluate structure maps.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, prod
from operator import attrgetter

SEPARATOR_CHARS = frozenset(".|,:;()[]{}<>=→ \t\r\n")

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def check_label(tok: str) -> str:
    if not isinstance(tok, str) or not tok or not tok.isascii():
        raise ValueError("label must be a nonempty ASCII token: %r" % (tok,))
    if not SEPARATOR_CHARS.isdisjoint(tok):
        raise ValueError("label contains a separator character: %r" % (tok,))
    return tok


class FiniteSet:
    """A finite set of labels, kept sorted; the sorted order doubles as the
    default reference linear order used by the kernel constructions.

    Two memos live on the set, each unset until its first use. `cuts`,
    filled by `structures.split_blocks` when it cuts blocks at this set,
    memoizes each block's (inside, outside) pair. `masks`, built by
    `_blocks_on` on the first checked build on this set, maps each nonempty
    sorted sub-tuple of the labels to its bitmask: 2^n - 1 entries, 511 at
    SIZE_CAP. An entry of either depends only on the labels, so it lives
    exactly as long as the set and never answers for another one."""

    __slots__ = ("labels", "cuts", "masks")

    def __init__(self, labels=()):
        labels = tuple(sorted(map(check_label, labels)))
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct: %r" % (labels,))
        self.labels = labels

    @classmethod
    def _fast(cls, sorted_labels: tuple) -> "FiniteSet":
        # internal: callers guarantee a sorted tuple of valid distinct labels
        out = object.__new__(cls)
        out.labels = sorted_labels
        return out

    def __iter__(self):
        return iter(self.labels)

    def __len__(self):
        return len(self.labels)

    def __contains__(self, tok):
        return tok in self.labels

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self.labels == other.labels

    def __lt__(self, other):
        return self.labels < other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "{%s}" % ",".join(self.labels)

    def union(self, other) -> "FiniteSet":
        if set(self.labels) & set(other.labels):
            raise ValueError("union of non-disjoint label sets")
        return FiniteSet._fast(tuple(sorted(self.labels + other.labels)))

    def minus(self, other) -> "FiniteSet":
        drop = set(other)
        return FiniteSet._fast(tuple(t for t in self.labels if t not in drop))

    def restrict(self, keep) -> "FiniteSet":
        keep = set(keep)
        return FiniteSet._fast(tuple(t for t in self.labels if t in keep))

    def subsets(self):
        """All subsets as FiniteSets, by size then lexicographically."""
        for k in range(len(self.labels) + 1):
            for combo in itertools.combinations(self.labels, k):
                yield FiniteSet._fast(combo)

    def decompositions(self):
        """All ordered pairs (S, T) with S disjoint-union T = self."""
        for S in self.subsets():
            yield S, self.minus(S)

    def triple_decompositions(self):
        """All ordered triples (R, S, T) with R,S,T pairwise disjoint covering."""
        for R in self.subsets():
            rest = self.minus(R)
            for S in rest.subsets():
                yield R, S, rest.minus(S)


EMPTY = FiniteSet()

# The largest label set a command builds; the CLI's cap, the window in which
# PiS block sizes are closed and the shift's fresh labels derive from it.
SIZE_CAP = 9


def labelset(n: int) -> FiniteSet:
    """The canonical n-element label set {a, b, c, ...}."""
    if n > len(ALPHABET):
        raise ValueError("canonical label sets stop at %d labels" % len(ALPHABET))
    return FiniteSet(ALPHABET[:n])


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

class Structure:
    """Base for labeled combinatorial objects; immutable and totally ordered.

    Subclasses store their payload, then call _finish() once to freeze the
    label set, comparison key and hash.
    """

    __slots__ = ("_labels", "_key", "_hash")
    kind = "?"

    def _finish(self, labels: FiniteSet):
        self._labels = labels
        self._key = (self.kind, self.key())
        self._hash = hash(self._key)

    @property
    def labels(self) -> FiniteSet:
        return self._labels

    def relabel(self, mapping: dict) -> "Structure":
        raise NotImplementedError

    def key(self):
        raise NotImplementedError

    def text(self) -> str:
        raise NotImplementedError

    def orbit_key(self):
        """A complete relabeling-orbit invariant. A kind without a cheap one
        (the Hadamard pairs) has none; its species declares its `factors`,
        and orbit counting sums their fixed points by Burnside instead."""
        raise NotImplementedError("%s structures have no orbit key" % self.kind)

    def __eq__(self, other):
        return isinstance(other, Structure) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __repr__(self):
        return self.text()

    def to_json(self) -> dict:
        return {"kind": self.kind, "labels": list(self.labels), "value": self.text()}


class SingletonMark(Structure):
    """The canonical basis element attached to a whole label set; `on`, if
    given, is the label set `labels` must be, as for an enumerator building
    on a checked set, and is then shared."""

    __slots__ = ()
    kind = "mark"

    def __init__(self, labels, on: FiniteSet | None = None):
        if on is None:
            on = labels if isinstance(labels, FiniteSet) else FiniteSet(labels)
        else:
            self.check(labels, on)
        self._finish(on)

    @staticmethod
    def check(labels, on: FiniteSet) -> tuple:
        """The orbit invariant of the mark on `labels`, which must be on's
        labels; otherwise the constructor's ValueError."""
        if tuple(sorted(labels)) != on.labels:
            raise ValueError("mark on %r is not on %r" % (labels, on))
        return ("mark",)

    def relabel(self, mapping):
        return SingletonMark(FiniteSet(mapping[t] for t in self._labels))

    def key(self):
        return self._labels.labels

    def text(self):
        return "*"

    def orbit_key(self):
        return ("mark",)


class LinearOrder(Structure):
    """A linear order; `on`, if given, is the label set it must order, as
    for an enumerator building on a checked set, and is then shared."""

    __slots__ = ("seq",)
    kind = "order"

    def __init__(self, seq, on: FiniteSet | None = None):
        self.seq = tuple(seq)
        if on is None:
            if len(set(self.seq)) != len(self.seq):
                raise ValueError("linear order repeats a label: %r" % (self.seq,))
            on = FiniteSet(self.seq)
        else:
            self.check(self.seq, on)
        self._finish(on)

    @staticmethod
    def check(seq, on: FiniteSet) -> tuple:
        """("order", n) when `seq` orders the n labels of `on`; otherwise
        the constructor's ValueError. n labels among which all of on's
        occur are each met once, so one set of them decides, with no sort."""
        seq = tuple(seq)
        labels = on.labels
        if len(seq) != len(labels) or not set(seq).issuperset(labels):
            if len(set(seq)) != len(seq):
                raise ValueError("linear order repeats a label: %r" % (seq,))
            FiniteSet(seq)  # a malformed label is refused as FiniteSet refuses it
            raise ValueError("linear order %s is not on %r" % ("|".join(seq), on))
        return "order", len(seq)

    def relabel(self, mapping):
        return LinearOrder(mapping[t] for t in self.seq)

    def restrict(self, keep) -> "LinearOrder":
        keep = set(keep)
        return LinearOrder(t for t in self.seq if t in keep)

    def key(self):
        return self.seq

    def text(self):
        return "|".join(self.seq)

    def orbit_key(self):
        return ("order", len(self.seq))


def _canon_blocks(blocks, on: FiniteSet | None = None) -> tuple:
    """The blocks, each sorted, in the given order. An empty block, or a
    label met a second time, is refused at the first block that shows it.

    With `on`, the blocks must cover on's labels exactly; a label outside
    it, or one it has that no block holds, is refused. A build on a label
    set checks through `_blocks_on`'s table first and comes here only when
    the table does not accept the blocks as given."""
    out = tuple([tuple(sorted(b)) for b in blocks])
    seen = set()
    for i, b in enumerate(out):
        if not b:
            raise ValueError("empty block")
        before = len(seen)
        seen.update(b)
        if len(seen) - before != len(b):
            raise ValueError("blocks are not disjoint at %r"
                             % (_first_repeat(out[:i], b),))
    if on is not None:
        outside = seen.difference(on.labels)
        if outside:
            raise ValueError("label %r is not in %r" % (min(outside), on))
        missing = set(on.labels) - seen
        if missing:
            raise ValueError("blocks miss label %r of %r" % (min(missing), on))
    return out


def _label_masks(labels: tuple) -> dict:
    """Each nonempty sorted sub-tuple of the sorted tuple `labels` -> its
    bitmask, bit i standing for labels[i]."""
    masks = {(): 0}
    for i, t in enumerate(labels):
        bit = 1 << i
        masks.update([(sub + (t,), m | bit) for sub, m in masks.items()])
    del masks[()]
    return masks


def _blocks_on(blocks, on: FiniteSet) -> tuple:
    """The blocks, each sorted, in the given order, checked to cover the
    label set `on` exactly with none empty.

    A tuple of plain tuples, each a key of on's `masks` table (so sorted,
    nonempty and inside on), whose masks are pairwise disjoint and join to
    the full set, is returned as it is: one lookup per block, no copy. Any
    other input, unconsumed, goes to _canon_blocks, which returns the
    blocks sorted or raises its message."""
    try:
        masks = on.masks
    except AttributeError:
        masks = on.masks = _label_masks(on.labels)
    if type(blocks) is tuple:
        union = 0
        for b in blocks:
            m = masks.get(b) if type(b) is tuple else None
            if m is None or union & m:
                break
            union |= m
        else:
            # 2^n - 1 entries: the table's size is the full mask
            if union == len(masks):
                return blocks
    return _canon_blocks(blocks, on)


def _first_repeat(blocks, b):
    """The first label of `b` already met in `blocks` or earlier in `b`."""
    seen = {t for bb in blocks for t in bb}
    for t in b:
        if t in seen:
            return t
        seen.add(t)


class SetPartition(Structure):
    """A set partition; `on`, if given, is the label set the blocks must
    cover exactly, as for an enumerator building on a checked set."""

    __slots__ = ("blocks",)
    kind = "partition"

    def __init__(self, blocks, on: FiniteSet | None = None):
        if on is None:
            self.blocks = tuple(sorted(_canon_blocks(blocks)))
            on = FiniteSet(itertools.chain.from_iterable(self.blocks))
        else:
            self.blocks = tuple(sorted(_blocks_on(blocks, on)))
        self._finish(on)

    @staticmethod
    def check(blocks, on: FiniteSet | None) -> tuple:
        """The orbit invariant of the blocks as a partition of `on`, its
        block sizes largest first; otherwise the constructor's ValueError.
        With `on` None the blocks are taken as checked already."""
        if on is not None:
            blocks = _blocks_on(blocks, on)
        return "partition", tuple(sorted(map(len, blocks), reverse=True))

    def relabel(self, mapping):
        return SetPartition(tuple(mapping[t] for t in b) for b in self.blocks)

    def key(self):
        return self.blocks

    def text(self):
        return ".".join("".join(b) for b in self.blocks) if self.blocks else "()"

    def orbit_key(self):
        return self.check(self.blocks, None)


class SetComposition(Structure):
    """A set composition; `on` as for SetPartition."""

    __slots__ = ("blocks",)
    kind = "composition"
    palindromic = False  # whether the block-size word must be a palindrome

    def __init__(self, blocks, on: FiniteSet | None = None):
        self.blocks = b = _canon_blocks(blocks) if on is None else _blocks_on(blocks, on)
        if self.palindromic:
            self.check(b, None)
        self._finish(FiniteSet(itertools.chain.from_iterable(b)) if on is None else on)

    @classmethod
    def check(cls, blocks, on: FiniteSet | None) -> tuple:
        """The orbit invariant (kind, block-size word) of the blocks as a
        composition of this class on `on`; otherwise the constructor's
        ValueError. The word is refused unless palindromic where the class
        says it must be. With `on` None the blocks are taken as checked
        already, and only the word is."""
        if on is not None:
            blocks = _blocks_on(blocks, on)
        w = tuple(map(len, blocks))
        if cls.palindromic and w != w[::-1]:
            raise ValueError("block sizes %r are not palindromic" % (w,))
        return cls.kind, w

    def relabel(self, mapping):
        return type(self)(tuple(mapping[t] for t in b) for b in self.blocks)

    def key(self):
        return self.blocks

    def text(self):
        return "|".join("".join(b) for b in self.blocks) if self.blocks else "()"

    def orbit_key(self):
        return self.check(self.blocks, None)


class PalComposition(SetComposition):
    """A set composition whose block-size word is palindromic."""

    __slots__ = ()
    kind = "pal"
    palindromic = True


class FunctionToK(Structure):
    """A function from the label set to {1, ..., k}; `on` as for
    LinearOrder."""

    __slots__ = ("mapping", "k")
    kind = "function"

    def __init__(self, mapping, k: int, on: FiniteSet | None = None):
        self.mapping = items = self._items(mapping, k, on)
        self.k = k
        self._finish(FiniteSet(t for t, _ in items) if on is None else on)

    @staticmethod
    def _items(mapping, k: int, on: FiniteSet | None) -> tuple:
        """The (label, value) pairs of `mapping` sorted by label, each value
        checked to lie in 1..k and, with `on`, the labels to be on's."""
        items = tuple(sorted(dict(mapping).items()))
        if any(not (1 <= v <= k) for _, v in items):
            raise ValueError("function value out of range 1..%d" % k)
        if on is not None and on.labels != tuple(t for t, _ in items):
            raise ValueError("function %s is not on %r"
                             % (",".join("%s→%d" % (t, v) for t, v in items), on))
        return items

    @classmethod
    def check(cls, mapping, k: int, on: FiniteSet) -> tuple:
        """The orbit invariant of `mapping` as a function from on's labels
        to 1..k; otherwise the constructor's ValueError."""
        return cls._fibers(cls._items(mapping, k, on), k)

    @staticmethod
    def _fibers(items, k: int) -> tuple:
        sizes = [0] * k
        for _, v in items:
            sizes[v - 1] += 1
        return "function", k, tuple(sizes)

    def relabel(self, mapping):
        return FunctionToK({mapping[t]: v for t, v in self.mapping}, self.k)

    def key(self):
        return (self.k, self.mapping)

    def text(self):
        return ",".join("%s→%d" % (t, v) for t, v in self.mapping)

    def orbit_key(self):
        return self._fibers(self.mapping, self.k)


class Element(Structure):
    """One distinguished label of the underlying set."""

    __slots__ = ("point",)
    kind = "element"

    def __init__(self, labels, point):
        labels = labels if isinstance(labels, FiniteSet) else FiniteSet(labels)
        self.check(point, labels)
        self.point = point
        self._finish(labels)

    @staticmethod
    def check(point, on: FiniteSet) -> tuple:
        """The orbit invariant of `point` as an element of `on`; otherwise
        the constructor's ValueError."""
        if point not in on:
            raise ValueError("%r is not in the label set" % (point,))
        return "element", len(on)

    def relabel(self, mapping):
        return Element(FiniteSet(mapping[t] for t in self._labels), mapping[self.point])

    def key(self):
        return (self._labels.labels, self.point)

    def text(self):
        return self.point

    def orbit_key(self):
        return ("element", len(self._labels))


class PairStructure(Structure):
    """A Hadamard-product structure: a pair on one common label set."""

    __slots__ = ("left", "right")
    kind = "pair"

    def __init__(self, left: Structure, right: Structure):
        if left.labels != right.labels:
            raise ValueError("pair components live on different label sets")
        self.left = left
        self.right = right
        self._finish(left.labels)

    def relabel(self, mapping):
        return PairStructure(self.left.relabel(mapping), self.right.relabel(mapping))

    def key(self):
        return (self.left._key, self.right._key)

    def text(self):
        return "(%s ; %s)" % (self.left.text(), self.right.text())


# ---------------------------------------------------------------------------
# Species
# ---------------------------------------------------------------------------

class SpeciesSpec:
    """A species presented by a basis enumerator.

    `enumerator(I)` yields the canonical key of each basis structure on the
    label set I: the tuple its monoid's intern table is keyed by (for a
    mark the sorted labels, for an element its point). The kind of those
    keys is recorded after construction (`_keyed`): `build(key, I)` is
    the kind's constructor on a checked set, and `check(key, I)` is the
    one check that constructor runs, which returns the key's orbit
    invariant, its structure's `orbit_key()`. A species built directly from
    structures keeps the defaults: a structure is its own key, checked when
    it was built, with its `orbit_key()` as its invariant.

    `structures` is the one path that builds structures and keeps them: it
    memoizes the enumeration, built and sorted, for the kernels and the
    axioms. `dimension` and `orbit_count` only count: `dimension` reads
    that memo when it is filled, and otherwise both read one pass over the
    checked keys (`_tally`), which builds no structure. A Hadamard species
    multiplies its factors' dimensions, and counts its orbits from its
    factors' stored structures, so neither builds a pair. Relabeling is
    the structures' own relabel, so functoriality holds by construction.
    """

    # the two factors of a Hadamard species, whose pairs have no orbit key
    factors = ()

    @staticmethod
    def build(key, I: FiniteSet) -> Structure:
        return key

    @staticmethod
    def check(key, I: FiniteSet):
        return key.orbit_key()

    def __init__(self, name: str, enumerator, linearized: bool = True):
        # every species is a set species whose structures relabel
        # themselves; `linearized` is ignored, kept only because the
        # benchmark tracer (perfbench/tracer.py) passes it through
        self.name = name
        self._enumerator = enumerator
        self._cache: dict = {}
        self._counts: dict = {}  # (dimension, orbit count) per label set

    def structures(self, I: FiniteSet) -> tuple:
        """The basis on I, each key built through `build` (so checked), in
        the order of Structure.__lt__, read off the stored keys; memoized
        per label set."""
        got = self._cache.get(I.labels)
        if got is None:
            got = tuple(sorted(map(self.build, self._enumerator(I), itertools.repeat(I)),
                               key=attrgetter("_key")))
            self._cache[I.labels] = got
        return got

    def _tally(self, I: FiniteSet) -> tuple:
        """(dimension, orbit count) on I from one enumerator pass that
        checks each key and keeps only the distinct invariants and how often
        each was met; memoized per label set."""
        got = self._counts.get(I.labels)
        if got is None:
            seen = Counter(map(self.check, self._enumerator(I), itertools.repeat(I)))
            got = self._counts[I.labels] = (sum(seen.values()), len(seen))
        return got

    def dimension(self, I) -> int:
        if isinstance(I, int):
            I = labelset(I)
        got = self._cache.get(I.labels)
        if got is not None:
            return len(got)
        if self.factors:
            a, b = self.factors
            return a.dimension(I) * b.dimension(I)
        return self._tally(I)[0]

    def dims(self, nmax: int) -> list:
        return [self.dimension(n) for n in range(nmax + 1)]

    def __repr__(self):
        return "SpeciesSpec(%s)" % self.name


def orbit_count(sp: SpeciesSpec, n: int) -> int:
    """Number of S_n-orbits on the basis structures over an n-element set.

    One pass over the checked keys (`SpeciesSpec._tally`) collects their
    orbit invariants, a complete invariant; the pass also leaves the
    dimension behind, and builds no structure. The pairs of a Hadamard
    species have no invariant, so it is counted by Burnside: the sum of
    fixed_points(sigma) times the class size n!/z_lambda over the cycle
    types lambda of n, divided by n!. A remainder is refused.
    """
    I = labelset(n)
    if not sp.factors:
        return sp._tally(I)[1]
    group = factorial(n)
    total = sum(fixed_points(sp, I, _perm_of_type(I, lam)) * (group // _z_lambda(lam))
                for lam in integer_partitions(n))
    orbits, rest = divmod(total, group)
    if rest:
        raise ValueError("fixed points of %s on %d labels sum to %d, not a multiple"
                         " of %d!: relabeling is not a group action"
                         % (sp.name, n, total, n))
    return orbits


def fixed_points(sp: SpeciesSpec, I: FiniteSet, sigma: dict) -> int:
    """The number of structures of `sp` on I that `sigma` fixes. A pair
    is fixed when both sides are (Z_{FxG} = Z_F x Z_G), so a Hadamard
    species multiplies its factors' counts and builds no pair."""
    if sp.factors:
        a, b = sp.factors
        return fixed_points(a, I, sigma) * fixed_points(b, I, sigma)
    return sum(1 for s in sp.structures(I) if s.relabel(sigma) == s)


def integer_partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - part, part):
            yield (part,) + rest


def _perm_of_type(I: FiniteSet, lam) -> dict:
    """A permutation of I whose cycle type is the partition `lam`."""
    toks, sigma, pos = I.labels, {}, 0
    for part in lam:
        cyc = toks[pos:pos + part]
        sigma.update(zip(cyc, cyc[1:] + cyc[:1]))
        pos += part
    return sigma


def _z_lambda(lam) -> int:
    """z_lambda, the number of permutations that commute with one of cycle
    type `lam`: n!/z_lambda permutations of n have that type."""
    return prod(k ** lam.count(k) * factorial(lam.count(k)) for k in set(lam))


def hadamard(a: SpeciesSpec, b: SpeciesSpec) -> SpeciesSpec:
    """Structures are pairs on the same label set; dimensions multiply."""

    def enumerate_pairs(I):
        # a generator, so a count keeps no pair
        ys = b.structures(I)
        return (PairStructure(x, y) for x in a.structures(I) for y in ys)

    sp = SpeciesSpec("Hadamard(%s,%s)" % (a.name, b.name), enumerate_pairs)
    sp.factors = (a, b)
    return sp


# ---------------------------------------------------------------------------
# Enumerators of keys
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


def set_compositions(I: FiniteSet):
    """Each set composition of I once, as its tuple of sorted blocks."""
    for blocks in block_partitions(I.labels):
        yield from itertools.permutations(blocks)


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


# ---------------------------------------------------------------------------
# The catalog: each named species by its enumerator and its kind
# ---------------------------------------------------------------------------

def _keyed(sp: SpeciesSpec, build, check) -> SpeciesSpec:
    """sp, with the kind of the keys its enumerator yields recorded:
    `build(key, I)` builds the structure of a key on the label set I, and
    `check(key, I)` runs that build's check alone and returns the key's
    orbit invariant."""
    sp.build = build
    sp.check = check
    return sp


def species_E() -> SpeciesSpec:
    """One mark on every label set."""
    return _keyed(SpeciesSpec("E", lambda I: (I.labels,)),
                  SingletonMark, SingletonMark.check)


def species_X() -> SpeciesSpec:
    """The singletons: one mark on each one-element set, none elsewhere."""
    return _keyed(SpeciesSpec("X", lambda I: (I.labels,) if len(I) == 1 else ()),
                  SingletonMark, SingletonMark.check)


def species_L() -> SpeciesSpec:
    """Linear orders, streamed: n! of them at n = 9 are never listed."""
    return _keyed(SpeciesSpec("L", lambda I: itertools.permutations(I.labels)),
                  LinearOrder, LinearOrder.check)


def species_Pi() -> SpeciesSpec:
    """Set partitions."""
    return _keyed(SpeciesSpec("Pi", lambda I: block_partitions(I.labels)),
                  SetPartition, SetPartition.check)


def _sized_partitions(name: str, enumerator, admits, refusal) -> SpeciesSpec:
    """The set partitions whose sorted blocks `admits`, keyed as Pi's. The
    key check is SetPartition's, followed by `admits`; a key it refuses
    raises ValueError(refusal(its blocks, sorted)), so the constructor and
    the check name the same block."""

    def check(blocks, I: FiniteSet):
        blocks = _blocks_on(blocks, I)
        if not admits(blocks):
            raise ValueError(refusal(sorted(blocks)))
        return SetPartition.check(blocks, None)

    def build(blocks, I: FiniteSet) -> SetPartition:
        s = SetPartition(blocks, I)
        if not admits(s.blocks):
            raise ValueError(refusal(s.blocks))
        return s

    return _keyed(SpeciesSpec(name, enumerator), build, check)


def species_PiS(allowed) -> SpeciesSpec:
    """Set partitions with every block size in `allowed`, named by those
    sizes ('PiS:2,4,6,8'); a key with a block of another size is refused,
    naming that block. `admits`, recorded on the species, is the one test
    of which partitions it holds."""
    allowed = frozenset(int(s) for s in allowed)
    if not allowed or min(allowed) <= 0:
        raise ValueError("allowed block sizes must be positive")
    name = "PiS:" + ",".join(str(s) for s in sorted(allowed))

    def admits(blocks) -> bool:
        return all(len(b) in allowed for b in blocks)

    def refusal(blocks) -> str:
        b = next(b for b in blocks if len(b) not in allowed)
        return "block %s has size %d, which %s does not allow" % (
            "".join(b), len(b), name)

    sp = _sized_partitions(name, lambda I: block_partitions(I.labels, allowed),
                           admits, refusal)
    sp.admits = admits
    return sp


def species_PiPrime() -> SpeciesSpec:
    """Set partitions with pairwise distinct block sizes; a key with two
    blocks of one size is refused, naming both."""

    def admits(blocks) -> bool:
        return len({len(b) for b in blocks}) == len(blocks)

    def refusal(blocks) -> str:
        first = {}
        for b in blocks:
            if len(b) in first:
                return "blocks %s and %s have the same size %d, which PiPrime" \
                       " does not allow" % ("".join(first[len(b)]), "".join(b), len(b))
            first[len(b)] = b

    return _sized_partitions("PiPrime",
                             lambda I: filter(admits, block_partitions(I.labels)),
                             admits, refusal)


def species_Sigma() -> SpeciesSpec:
    """Set compositions."""
    return _keyed(SpeciesSpec("Sigma", set_compositions),
                  SetComposition, SetComposition.check)


def species_Pal() -> SpeciesSpec:
    """Set compositions whose block-size word is a palindrome."""
    return _keyed(SpeciesSpec("Pal", lambda I: pal_words(I.labels)),
                  PalComposition, PalComposition.check)


def species_Ek(k: int) -> SpeciesSpec:
    """Functions from the label set to {1, ..., k}, streamed like L's
    orders: k^n mappings are never listed."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative integer")

    def enum(I):
        return (tuple(zip(I.labels, values))
                for values in itertools.product(range(1, k + 1), repeat=len(I)))

    return _keyed(SpeciesSpec("Ek:%d" % k, enum),
                  lambda mapping, I: FunctionToK(mapping, k, I),
                  lambda mapping, I: FunctionToK.check(mapping, k, I))


def species_el() -> SpeciesSpec:
    """The species of elements: the label set itself is the basis."""
    return _keyed(SpeciesSpec("el", lambda I: I.labels),
                  lambda point, I: Element(I, point), Element.check)


# Constructors by head; a family's takes the args its identifier parses to.
CATALOG = {"E": species_E, "X": species_X, "L": species_L, "Pi": species_Pi,
           "Sigma": species_Sigma, "Pal": species_Pal, "Ek:k": species_Ek,
           "PiS:g1,g2,...": species_PiS, "PiPrime": species_PiPrime,
           "el": species_el}


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


def get_species(ident: str) -> SpeciesSpec:
    """The species an identifier names; a Hadamard species is built on its
    factors, and no Hopf monoid is built."""
    head, args = _parse(ident)
    if head == "Hadamard(A,B)":
        return hadamard(*map(get_species, args))
    if head not in CATALOG:
        raise ValueError("unknown species identifier: %r" % head)
    return CATALOG[head](*args)


def __getattr__(name: str):
    # QVector and QTensor live in `vectors`, which this module does not load;
    # perfbench's tracer wraps them under this module's name, so they resolve
    # here, loading `vectors` on the first lookup
    if name in ("QVector", "QTensor"):
        from . import vectors
        return getattr(vectors, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
