"""Set species over finite label sets.

A species is given by a basis enumerator (finite label set -> the
canonical keys of its combinatorial structures) together with relabeling
along bijections. Each kind of structure has one check of a key on a label
set, which its constructor runs and which a count runs alone. The
structures themselves are immutable value objects with a total order, so
every enumeration, vector and matrix in the package is canonically sorted.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
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
    keys is recorded after construction (`structures._keyed`): `build(key,
    I)` is the kind's constructor on a checked set, and `check(key, I)` is
    the one check that constructor runs, which returns the key's orbit
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
# Vectors and tensors over a fixed label set
# ---------------------------------------------------------------------------

def qstr(x) -> str:
    """Render an exact number as 'p' or 'p/q'. Never a decimal."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return "%d/%d" % (x.numerator, x.denominator)
    return str(int(x)) if isinstance(x, (int, Fraction)) else str(x)


def terms_text(items, key_text) -> str:
    """Print sorted (key, coeff) pairs as a signed sum, '0' when empty."""
    parts = []
    for key, c in items:
        parts.append(("- " if c < 0 else ("+ " if parts else ""))
                     + ("" if abs(c) == 1 else qstr(abs(c)) + "*") + key_text(key))
    return " ".join(parts) if parts else "0"


def tensor_text(key) -> str:
    """A tuple of structures printed as a tensor, 'a|b (x) c'."""
    return " (x) ".join(x.text() for x in key)


def check_coeff(c):
    """Refuse a coefficient that is not an exact int or Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("exact coefficient expected, got %r" % (c,))


def summed(pairs) -> dict:
    """The nonzero sums of (key, coefficient) pairs by key; each coefficient
    must be exact."""
    acc = {}
    for key, c in pairs:
        check_coeff(c)
        acc[key] = acc[key] + c if key in acc else c
    return {key: c for key, c in acc.items() if c}


class _Combination:
    """A sparse exact combination: keys -> nonzero int or Fraction coefficients.

    Coefficients are kept as given, so integer data stays integer; Fractions
    appear only where a caller divides. `terms` may be a dict or an iterable
    of (key, coeff) pairs with repeated keys, which are summed once here.
    Subclasses fix the ambient (`_frame`), the key check and the key printer.
    """

    __slots__ = ("terms",)

    def _collect(self, terms):
        self.terms = summed(terms.items() if isinstance(terms, dict) else terms or ())
        self._check_keys()

    def _like(self, terms):
        return type(self)(*self._frame(), terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        return self._like(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self._like(itertools.chain(
            self.terms.items(), ((k, -c) for k, c in other.terms.items())))

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (type(other) is type(self) and self._frame() == other._frame()
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self._frame() + (tuple(self.items()),))

    def __repr__(self):
        return terms_text(self.items(), self._key_text)


class QVector(_Combination):
    """A sparse exact-rational combination of structures on one label set."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: FiniteSet, terms=None):
        self.ambient = ambient
        self._collect(terms)

    def _frame(self):
        return (self.ambient,)

    def _check_keys(self):
        for s in self.terms:
            self.check_key(self.ambient, s)

    @staticmethod
    def check_key(ambient: FiniteSet, s: Structure) -> None:
        # the labels tuples compare in C; FiniteSet.__eq__ would not
        if s._labels.labels != ambient.labels:
            raise ValueError("structure %r not on ambient %r" % (s, ambient))

    @staticmethod
    def _key_text(s):
        return s.text()

    @classmethod
    def basis(cls, s: Structure, coeff=1) -> "QVector":
        # s lies on its own label set, so only the coefficient needs a check
        check_coeff(coeff)
        out = object.__new__(cls)
        out.ambient = s.labels
        out.terms = {s: coeff} if coeff else {}
        return out

    @classmethod
    def zero(cls, ambient: FiniteSet) -> "QVector":
        return cls(ambient)

    def coordinates(self, basis_index: dict) -> dict:
        """Sparse coordinate row {index: coeff} for a fixed basis ordering."""
        return {basis_index[s]: c for s, c in self.terms.items()}

    def to_json(self) -> dict:
        return {"ambient": list(self.ambient),
                "terms": [{"structure": s.text(), "coeff": qstr(c)}
                          for s, c in self.items()]}


class QTensor(_Combination):
    """A sparse combination of pairs (structure on S, structure on T)."""

    __slots__ = ("left", "right")

    def __init__(self, left: FiniteSet, right: FiniteSet, terms=None):
        self.left = left
        self.right = right
        self._collect(terms)

    def _frame(self):
        return (self.left, self.right)

    def _check_keys(self):
        for key in self.terms:
            self.check_key(self.left, self.right, key)

    @staticmethod
    def check_key(left: FiniteSet, right: FiniteSet, key: tuple) -> None:
        x, y = key
        if x._labels.labels != left.labels or y._labels.labels != right.labels:
            raise ValueError("tensor term (%r, %r) off ambient (%r, %r)"
                             % (x, y, left, right))

    _key_text = staticmethod(tensor_text)

    @classmethod
    def basis(cls, x: Structure, y: Structure, coeff=1) -> "QTensor":
        # (x, y) lies on its own label sets, so only the coefficient needs a check
        check_coeff(coeff)
        out = object.__new__(cls)
        out.left = x.labels
        out.right = y.labels
        out.terms = {(x, y): coeff} if coeff else {}
        return out

    @classmethod
    def zero(cls, left: FiniteSet, right: FiniteSet) -> "QTensor":
        return cls(left, right)
