"""Set species over finite label sets.

A species is given by a basis enumerator (finite label set -> list of
combinatorial structures) together with relabeling along bijections. The
structures themselves are immutable value objects with a total order, so
every enumeration, vector and matrix in the package is canonically sorted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

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

    `cuts`, unset until `structures.split_blocks` first cuts blocks at this
    set, memoizes each block's (inside, outside) pair. An entry depends only
    on the labels and the block, so it lives exactly as long as the set and
    never answers for another one."""

    __slots__ = ("labels", "cuts")

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
        """A complete relabeling-orbit invariant, or None if the kind has no
        cheap one (then orbit counting falls back to orbit enumeration)."""
        return None

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
    """The canonical basis element attached to a whole label set."""

    __slots__ = ()
    kind = "mark"

    def __init__(self, labels):
        self._finish(labels if isinstance(labels, FiniteSet) else FiniteSet(labels))

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
        if on is None or tuple(sorted(self.seq)) != on.labels:
            if len(set(self.seq)) != len(self.seq):
                raise ValueError("linear order repeats a label: %r" % (self.seq,))
            labels = FiniteSet(self.seq)
            if on is not None:
                raise ValueError("linear order %s is not on %r" % (self.text(), on))
            on = labels
        self._finish(on)

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
    it, or one it has that no block holds, is refused. Blocks whose labels,
    sorted, equal on.labels pass at once: on's labels are distinct and were
    checked when on was built, so these blocks are disjoint and valid."""
    out = tuple([tuple(sorted(b)) for b in blocks])
    if (on is not None and all(out)
            and tuple(sorted(itertools.chain.from_iterable(out))) == on.labels):
        return out
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
        raise ValueError("blocks miss label %r of %r"
                         % (min(set(on.labels) - seen), on))
    return out


def _first_repeat(blocks, b):
    """The first label of `b` already met in `blocks` or earlier in `b`."""
    seen = {t for bb in blocks for t in bb}
    for t in b:
        if t in seen:
            return t
        seen.add(t)


def _covered(blocks, on: FiniteSet | None) -> FiniteSet:
    """The label set of blocks checked by _canon_blocks: `on` itself, shared,
    or else a new FiniteSet, which checks every label."""
    if on is not None:
        return on
    return FiniteSet(itertools.chain.from_iterable(blocks))


class SetPartition(Structure):
    """A set partition; `on`, if given, is the label set the blocks must
    cover exactly, as for an enumerator building on a checked set."""

    __slots__ = ("blocks",)
    kind = "partition"

    def __init__(self, blocks, on: FiniteSet | None = None):
        self.blocks = tuple(sorted(_canon_blocks(blocks, on)))
        self._finish(_covered(self.blocks, on))

    def relabel(self, mapping):
        return SetPartition(tuple(mapping[t] for t in b) for b in self.blocks)

    def block_sizes(self):
        return sorted((len(b) for b in self.blocks), reverse=True)

    def key(self):
        return self.blocks

    def text(self):
        return ".".join("".join(b) for b in self.blocks) if self.blocks else "()"

    def orbit_key(self):
        return ("partition", tuple(self.block_sizes()))


class SetComposition(Structure):
    """A set composition; `on` as for SetPartition."""

    __slots__ = ("blocks",)
    kind = "composition"

    def __init__(self, blocks, on: FiniteSet | None = None):
        self.blocks = _canon_blocks(blocks, on)
        self._check_blocks()
        self._finish(_covered(self.blocks, on))

    def _check_blocks(self):
        pass

    def relabel(self, mapping):
        return type(self)(tuple(mapping[t] for t in b) for b in self.blocks)

    def size_word(self):
        return tuple(map(len, self.blocks))

    def key(self):
        return self.blocks

    def text(self):
        return "|".join("".join(b) for b in self.blocks) if self.blocks else "()"

    def orbit_key(self):
        return ("composition", self.size_word())


class PalComposition(SetComposition):
    """A set composition whose block-size word is palindromic."""

    __slots__ = ()
    kind = "pal"

    def _check_blocks(self):
        w = self.size_word()
        if w != w[::-1]:
            raise ValueError("block sizes %r are not palindromic" % (w,))

    def orbit_key(self):
        return ("pal", self.size_word())


class FunctionToK(Structure):
    """A function from the label set to {1, ..., k}; `on` as for
    LinearOrder."""

    __slots__ = ("mapping", "k")
    kind = "function"

    def __init__(self, mapping, k: int, on: FiniteSet | None = None):
        items = tuple(sorted(dict(mapping).items()))
        if any(not (1 <= v <= k) for _, v in items):
            raise ValueError("function value out of range 1..%d" % k)
        self.mapping = items
        self.k = k
        labels = tuple(t for t, _ in items)
        if on is None or on.labels != labels:
            if on is not None:
                raise ValueError("function %s is not on %r" % (self.text(), on))
            on = FiniteSet(labels)
        self._finish(on)

    def relabel(self, mapping):
        return FunctionToK({mapping[t]: v for t, v in self.mapping}, self.k)

    def key(self):
        return (self.k, self.mapping)

    def text(self):
        return ",".join("%s→%d" % (t, v) for t, v in self.mapping)

    def orbit_key(self):
        sizes = [0] * self.k
        for _, v in self.mapping:
            sizes[v - 1] += 1
        return ("function", self.k, tuple(sizes))


class Element(Structure):
    """One distinguished label of the underlying set."""

    __slots__ = ("point",)
    kind = "element"

    def __init__(self, labels, point):
        labels = labels if isinstance(labels, FiniteSet) else FiniteSet(labels)
        if point not in labels:
            raise ValueError("%r is not in the label set" % (point,))
        self.point = point
        self._finish(labels)

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

    `enumerator(I)` yields the basis structures on the label set I.
    `structures` is the one path that keeps them: it memoizes the
    enumeration and returns it sorted, for the kernels and the axioms.
    `dimension` and `orbit_count` only count: they read that memo when it
    is filled, and otherwise make one enumerator pass (`stream`) that
    stores no structure. Relabeling is the structures' own relabel, so
    functoriality holds by construction.
    """

    def __init__(self, name: str, enumerator, linearized: bool = True):
        # every species is a set species whose structures relabel
        # themselves; `linearized` is ignored, kept only because the
        # benchmark tracer (perfbench/tracer.py) passes it through
        self.name = name
        self._enumerator = enumerator
        self._cache: dict = {}
        self._counts: dict = {}  # structures per label set, from a pass

    def structures(self, I: FiniteSet) -> tuple:
        got = self._cache.get(I.labels)
        if got is None:
            got = tuple(sorted(self._enumerator(I)))
            self._cache[I.labels] = got
        return got

    def stream(self, I: FiniteSet):
        """Each structure on I once, in no fixed order: the memo of
        `structures` when it is filled, else one enumerator pass that keeps
        none of them. A pass run to its end records how many it yielded,
        which `dimension` then reads."""
        got = self._cache.get(I.labels)
        if got is not None:
            yield from got
            return
        count = 0
        for s in self._enumerator(I):
            count += 1
            yield s
        self._counts[I.labels] = count

    def dimension(self, I) -> int:
        if isinstance(I, int):
            I = labelset(I)
        got = self._cache.get(I.labels)
        if got is not None:
            return len(got)
        if I.labels not in self._counts:
            for _ in self.stream(I):
                pass
        return self._counts[I.labels]

    def dims(self, nmax: int) -> list:
        return [self.dimension(n) for n in range(nmax + 1)]

    def __repr__(self):
        return "SpeciesSpec(%s)" % self.name


def orbit_count(sp: SpeciesSpec, n: int) -> int:
    """Number of S_n-orbits on the basis structures over an n-element set.

    One `stream` pass collects the structures' orbit keys, a complete
    invariant; the pass also leaves the dimension behind. A kind without
    one falls back to the stored structures and enumerates orbits by
    applying all n! relabelings (desk scale, n <= 8).
    """
    I = labelset(n)
    keys = set()
    for s in sp.stream(I):
        key = s.orbit_key()
        if key is None:
            return _orbits_by_relabeling(sp.structures(I), I)
        keys.add(key)
    return len(keys)


def _orbits_by_relabeling(structs: tuple, I: FiniteSet) -> int:
    """The orbits of `structs`, counted by applying every bijection of I."""
    if len(I) > 8:
        raise ValueError("orbit enumeration without invariants is capped at n = 8")
    seen = set()
    count = 0
    perms = [dict(zip(I, img)) for img in itertools.permutations(tuple(I))]
    for s in structs:
        if s in seen:
            continue
        count += 1
        for sigma in perms:
            seen.add(s.relabel(sigma))
    return count


def hadamard(a: SpeciesSpec, b: SpeciesSpec) -> SpeciesSpec:
    """Structures are pairs on the same label set; dimensions multiply."""

    def enumerate_pairs(I):
        return [PairStructure(x, y) for x in a.structures(I) for y in b.structures(I)]

    return SpeciesSpec("Hadamard(%s,%s)" % (a.name, b.name), enumerate_pairs)


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
        if s._labels != ambient:
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
        if x._labels != left or y._labels != right:
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
