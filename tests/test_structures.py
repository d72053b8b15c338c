import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction as Q
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_commutative
from hopfspecies.axioms import (check_all, check_cocommutative,
                                check_connected, check_morphism)
from hopfspecies import cli, species
from hopfspecies.exactalg import TruncatedSeries, egf, ogf
from hopfspecies.kernels import primitive_dims
from hopfspecies.species import (EMPTY, FiniteSet, FunctionToK, LinearOrder,
                                 PairStructure, PalComposition,
                                 SetComposition, SetPartition, SingletonMark,
                                 SpeciesSpec, labelset, orbit_count)
from hopfspecies.structures import (MONOIDS, MORPHISMS, SPECIES_ONLY,
                                    _keyed, _parse, block_partitions,
                                    closed_sizes,
                                    get_hopf, get_morphism, get_species,
                                    hadamard_hopf, intern_table, make_Ek,
                                    make_Pal, make_PiS, make_Sigma,
                                    morphism_Ek_to_Ek1, morphism_E_to_Pi,
                                    morphism_L_to_E, morphism_L_to_Sigma,
                                    morphism_Pi_to_PiS, pal_words,
                                    split_blocks)


class TestExponentialMonoid:
    def test_product_merges_marks(self, E):
        S, T = FiniteSet("a"), FiniteSet("bc")
        out = E.product(S, T, SingletonMark(S), SingletonMark(T))
        assert out == ((SingletonMark(FiniteSet("abc")), 1),)

    def test_coproduct_splits_marks(self, E):
        I = FiniteSet("abc")
        S, T = FiniteSet("ab"), FiniteSet("c")
        out = E.coproduct(S, T, SingletonMark(I))
        assert out == (((SingletonMark(S), SingletonMark(T)), 1),)


class TestLinearOrders:
    def test_concatenation(self, L):
        out = L.product(FiniteSet("a"), FiniteSet("bc"),
                        LinearOrder("a"), LinearOrder(("b", "c")))
        assert out == ((LinearOrder(("a", "b", "c")), 1),)

    def test_restriction(self, L):
        out = L.coproduct(FiniteSet("ac"), FiniteSet("b"),
                          LinearOrder(("b", "a", "c")))
        assert out == (((LinearOrder(("a", "c")), LinearOrder("b")), 1),)

    def test_not_commutative(self, L):
        assert not check_commutative(L, 2).ok

    def test_cocommutative(self, L):
        assert check_cocommutative(L, 4).ok


class TestPartitions:
    def test_product_disjoint_union(self, Pi):
        out = Pi.product(FiniteSet("ab"), FiniteSet("c"),
                         SetPartition((("a", "b"),)), SetPartition((("c",),)))
        assert out == ((SetPartition((("a", "b"), ("c",))), 1),)

    def test_dims(self, Pi):
        assert Pi.species.dims(5) == [1, 1, 2, 5, 15, 52]

    def test_even_quotient_dims(self, PiEven):
        assert PiEven.species.dims(6) == [1, 0, 1, 0, 4, 0, 31]

    def test_even_dims_against_series_oracle(self, PiEven):
        # exp(cosh(x) - 1) generates partitions into even blocks
        coshm1 = TruncatedSeries(
            [Q(1, factorial(n)) if n and n % 2 == 0 else 0 for n in range(7)], 6)
        expected = coshm1.exp()
        assert egf(PiEven.species, 6) == expected

    def test_pis_requires_closed_sizes(self):
        # {1} and {3} are closed below their own maximum only; closure is
        # needed up to max_size (9), where 1+1 = 2 and 3+3 = 6 are missing
        for sizes in ({2, 3, 5}, {1}, {3}):  # {2,3,5}: 2+2 = 4 missing
            with pytest.raises(ValueError):
                make_PiS(sizes)
        make_PiS({2, 4, 6, 8})
        for gens in ([1], [2], [3], [2, 3], [3, 5], [4, 5, 6]):
            make_PiS(closed_sizes(gens, 9))

    def test_closed_sizes_generates_submonoid(self):
        assert closed_sizes([2], 9) == frozenset({2, 4, 6, 8})
        assert closed_sizes([2, 3], 9) == frozenset({2, 3, 4, 5, 6, 7, 8, 9})
        assert closed_sizes([3, 5], 12) == frozenset({3, 5, 6, 8, 9, 10, 11, 12})

    def test_pi_prime_is_species_only(self):
        with pytest.raises(ValueError):
            get_hopf("PiPrime")
        assert get_species("PiPrime").dims(6) == [1, 1, 1, 4, 5, 16, 82]


def integer_compositions(n):
    """Ordered compositions of n, one per set of cut points among n-1 gaps."""
    if n == 0:
        yield ()
        return
    for cuts in range(2 ** (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        yield tuple(parts + [run])


def integer_partitions(n):
    return {tuple(sorted(c, reverse=True)) for c in integer_compositions(n)}


def compositions_of_shape(word):
    """Set compositions whose block sizes read `word`: a multinomial."""
    return factorial(sum(word)) // prod(factorial(k) for k in word)


def partitions_of_type(lam):
    """Set partitions whose block sizes are the multiset `lam`."""
    return (compositions_of_shape(lam)
            // prod(factorial(m) for m in Counter(lam).values()))


def bell(n):
    return sum(partitions_of_type(lam) for lam in integer_partitions(n))


def fubini(n):
    return sum(compositions_of_shape(w) for w in integer_compositions(n))


def palindromic(n):
    return sum(compositions_of_shape(w) for w in integer_compositions(n)
               if w == w[::-1])


def even_block_partitions(n):
    return sum(partitions_of_type(lam) for lam in integer_partitions(n)
               if all(k % 2 == 0 for k in lam))


# closed-form dimension counts of the shipped cocommutative Hopf monoids
CLOSED_FORM_DIMS = {
    "E": lambda n: 1,
    "Pi": bell,
    "PiS:2": even_block_partitions,
    "Ek:2": lambda n: 2 ** n,
    "L": factorial,
    "Sigma": fubini,
    "Pal": palindromic,
    "Hadamard(Pi,E)": bell,
}


def log_egf_counts(counts):
    """n! [x^n] log A(x) for the EGF A of `counts` (counts[0] == 1), from
    n P_n = n A_n - sum_{k<n} k P_k A_{n-k} on the EGF coefficients."""
    a = [Q(c, factorial(n)) for n, c in enumerate(counts)]
    p = [Q(0)]
    for n in range(1, len(a)):
        p.append(a[n] - sum((k * p[k] * a[n - k] for k in range(1, n)), Q(0)) / n)
    return [v * factorial(n) for n, v in enumerate(p)]


@pytest.fixture(scope="module")
def pal_counted_to_eight():
    """A fresh Pal species counted as `species-dims --types` counts it, orbit
    counts first, sizes 0..8, under tracemalloc: (species, dims, orbits,
    peak traced bytes)."""
    sp = make_Pal().species
    tracemalloc.start()
    try:
        orbits = [orbit_count(sp, n) for n in range(9)]
        dims = sp.dims(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sp, dims, orbits, peak


class TestClosedFormDims:
    """Dimensions against counts from integer partitions or compositions
    and multinomials, computed without any set partition generator. Each
    species is fresh, so the counts come from the streaming pass."""

    def test_pi_bell(self):
        assert get_species("Pi").dims(9) == [bell(n) for n in range(10)]

    def test_pis_even_blocks(self):
        assert get_species("PiS:2").dims(9) == [
            even_block_partitions(n) for n in range(10)]

    def test_piprime_distinct_block_sizes(self):
        assert get_species("PiPrime").dims(9) == [
            sum(partitions_of_type(lam) for lam in integer_partitions(n)
                if len(set(lam)) == len(lam))
            for n in range(10)]

    def test_sigma_fubini(self):
        # 545,835 compositions at n = 8, each built and checked on I
        assert get_species("Sigma").dims(8) == [fubini(n) for n in range(9)]

    def test_pal_palindromic_words(self, pal_counted_to_eight):
        _, dims, orbits, _ = pal_counted_to_eight
        assert dims == [palindromic(n) for n in range(9)]
        assert orbits == [2 ** (n // 2) for n in range(9)]

    def test_l_factorials(self):
        assert get_species("L").dims(9) == [factorial(n) for n in range(10)]

    @pytest.mark.parametrize("k", range(4))
    def test_ek_powers(self, k):
        assert make_Ek(k).species.dims(6) == [k ** n for n in range(7)]


class TestPrimitiveDimsOracle:
    """Primitive dims of every shipped cocommutative monoid against the
    logarithm of its exponential series (the Milnor-Moore/PBW count), with
    the series built from closed-form counts, never from the enumerators."""

    @pytest.mark.parametrize("ident", sorted(CLOSED_FORM_DIMS))
    def test_primitive_dims_are_log_of_egf(self, ident):
        h = get_hopf(ident)
        assert check_cocommutative(h, 4).ok
        counts = [CLOSED_FORM_DIMS[ident](n) for n in range(6)]
        assert primitive_dims(h, 5) == log_egf_counts(counts)

    def test_sigma_at_six(self):
        # 8,311 distinct rows over 4,683 columns: the size where the heap
        # order of Echelon.reduce does the most work
        counts = [fubini(n) for n in range(7)]
        assert primitive_dims(make_Sigma(), 6) == log_egf_counts(counts)


class TestBlockPartitions:
    def test_each_partition_once(self):
        for n in range(8):
            labels = labelset(n).labels
            got = list(block_partitions(labels))
            assert len(got) == len(set(got)) == sum(
                partitions_of_type(lam) for lam in integer_partitions(n))
            for blocks in got:
                assert sorted(t for b in blocks for t in b) == list(labels)
                assert all(b == tuple(sorted(b)) for b in blocks)
                assert list(blocks) == sorted(blocks)

    def test_sizes_equal_filtered_output(self):
        for sizes in ({1}, {2}, {3}, {1, 2}, {2, 3}, {1, 3, 5}, {2, 4, 6}):
            for n in range(8):
                labels = labelset(n).labels
                assert list(block_partitions(labels, sizes)) == [
                    blocks for blocks in block_partitions(labels)
                    if all(len(b) in sizes for b in blocks)]

    def test_pal_builds_only_what_it_keeps(self, monkeypatch):
        # palindromic words are built directly: every object built is kept,
        # and no plain composition is built along the way
        built = Counter()
        init = SetComposition.__init__

        def counting(self, blocks, on=None):
            built[type(self).__name__] += 1
            init(self, blocks, on)

        monkeypatch.setattr(SetComposition, "__init__", counting)
        make_Pal().species.structures(labelset(6))
        assert built == {"PalComposition": 1581}

    def test_pal_words_equal_the_ordering_filter(self):
        # the filter Pal used before building its words directly: every
        # ordering of every partition, kept when its size word is a palindrome
        for n in range(8):
            I = labelset(n)
            filtered = sorted(
                order for blocks in block_partitions(I.labels)
                for order in itertools.permutations(blocks)
                if [len(b) for b in order] == [len(b) for b in order][::-1])
            assert sorted(pal_words(I.labels)) == filtered
            assert [s.blocks for s in make_Pal().species.structures(I)] == filtered

    def test_enumerated_structures_share_their_label_set(self):
        I = labelset(4)
        for ident in ("Pi", "PiS:2", "PiPrime", "Sigma", "Pal", "L"):
            assert all(s.labels is I for s in get_species(ident).structures(I))

    def test_functions_share_the_enumerated_label_set(self, monkeypatch):
        calls = Counter()
        check = species.check_label

        def counting(tok):
            calls[n] += 1
            return check(tok)

        E2 = get_species("Ek:2")
        monkeypatch.setattr(species, "check_label", counting)
        for n in range(6):
            I = labelset(n)
            calls[n] = 0
            assert all(s.labels is I for s in E2.structures(I))
            assert calls[n] == 0, n

    def test_linear_orders_check_no_label_again(self, monkeypatch):
        # the n! orders of a checked label set are built on it: no label is
        # checked again (n * n! calls when each order built its own set)
        calls = Counter()
        check = species.check_label

        def counting(tok):
            calls[n] += 1
            return check(tok)

        L = get_species("L")
        monkeypatch.setattr(species, "check_label", counting)
        for n in range(7):
            I = labelset(n)
            calls[n] = 0
            assert len(L.structures(I)) == factorial(n)
            assert calls[n] == 0, n


class TestCountingWithoutStoring:
    def test_counting_keeps_no_structure(self, pal_counted_to_eight):
        # storing the 108,347 structures at n = 8 peaks near 90 MB traced
        sp, _, _, peak = pal_counted_to_eight
        assert sp._cache == {}
        assert peak < 8 * 2 ** 20

    def test_hadamard_count_keeps_no_pair(self):
        # the 146,160 pairs of L and Pi at n = 6 are streamed; a list of
        # them peaks near 32 MB traced
        sp = species.hadamard(get_species("L"), get_species("Pi"))
        tracemalloc.start()
        try:
            dims = sp.dims(6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dims == [factorial(n) * bell(n) for n in range(7)]
        assert sp._cache == {}
        assert peak < 2 ** 20

    def test_each_size_is_enumerated_once(self):
        pal = make_Pal().species
        passes = Counter()

        def enumerator(I):
            passes[len(I)] += 1
            return pal._enumerator(I)

        # the copy enumerates Pal's keys, so it records Pal's kind of key
        sp = SpeciesSpec("Pal", enumerator)
        sp.build, sp.check = pal.build, pal.check
        assert [orbit_count(sp, n) for n in range(6)] == [1, 1, 2, 2, 4, 4]
        assert sp.dims(5) == [1, 1, 3, 7, 43, 171]
        assert passes == {n: 1 for n in range(6)} and sp._cache == {}
        # once stored, the counts read the stored tuple
        assert len(sp.structures(labelset(5))) == 171
        assert (sp.dimension(5), orbit_count(sp, 5)) == (171, 4)
        assert passes[5] == 2


# every shipped species whose structures have an orbit key
KEYED = ["E", "X", "L", "Pi", "PiS:2", "Sigma", "Pal", "Ek:2", "PiPrime", "el"]

# (species, size, a fresh key that its constructor refuses on that size)
MUTANT_KEYS = [
    ("Pal", 3, lambda: (("a",), ("b", "c"))),              # not palindromic
    ("Sigma", 2, lambda: (("a",), ("z",))),                # a foreign label
    ("Pi", 3, lambda: (("a", "b"), ("c", "b"))),           # a repeated label
    ("L", 3, lambda: ("a", "b", "a")),                     # a repeated label
    ("Sigma", 3, lambda: (("a",), ("b",))),                # a missing label
    ("L", 3, lambda: ("c", "a")),                          # a missing label
    ("PiPrime", 3, lambda: (["b", "a"], ["z"])),           # list blocks
    ("Pal", 3, lambda: (b for b in (("a",), ("c",)))),     # a generator
    ("L", 3, lambda: iter("ab")),                          # a generator
    ("Ek:2", 2, lambda: (("a", 1), ("b", 3))),             # a value past k
    ("el", 2, lambda: "z"),                                # a foreign point
    ("E", 2, lambda: ("a",)),                              # a mark off I
]


class TestCountingOnKeys:
    """dimension and orbit_count make one pass over the enumerated keys,
    each checked by the check its kind's constructor runs, and build no
    structure."""

    @pytest.mark.parametrize("ident", KEYED)
    def test_key_pass_counts_what_the_built_basis_holds(self, ident):
        counted, built = get_species(ident), get_species(ident)
        for n in range(7):
            I = labelset(n)
            structs = built.structures(I)
            assert (counted.dimension(n), orbit_count(counted, n)) == (
                len(structs), len({s.orbit_key() for s in structs})), n
            # each key's invariant is the orbit key of its structure
            keys = list(counted._enumerator(I))
            assert [counted.check(k, I) for k in keys] == [
                counted.build(k, I).orbit_key() for k in keys], n
        assert counted._cache == {}

    @pytest.mark.parametrize("ident, n, bad", MUTANT_KEYS)
    def test_a_mutant_key_is_refused_with_the_constructors_message(
            self, ident, n, bad):
        I = labelset(n)
        kind = get_species(ident)
        with pytest.raises(ValueError) as err:
            kind.build(bad(), I)
        message = str(err.value)

        def mutant():
            # the shipped keys, then the bad one
            sp = SpeciesSpec(ident, lambda J: itertools.chain(
                kind._enumerator(J), [bad()]))
            return _keyed(sp, kind.build, kind.check)

        for count in (lambda sp: sp.dimension(n), lambda sp: orbit_count(sp, n),
                      lambda sp: sp.structures(I)):
            with pytest.raises(ValueError) as err:
                count(mutant())
            assert str(err.value) == message

    @pytest.mark.parametrize("ident", KEYED)
    def test_species_dims_builds_no_structure(self, ident, monkeypatch, capsys):
        built = []
        finish = species.Structure._finish

        def counting(self, labels):
            built.append(self)
            finish(self, labels)

        monkeypatch.setattr(species.Structure, "_finish", counting)
        argv = ["species-dims", "--species", ident, "--max-n", "6", "--types"]
        assert cli.run(argv) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert built == []
        # the same counts from built structures, which the counter does see
        sp = get_species(ident)
        assert [[int(v) for v in row.split()] for row in rows] == [
            [n, len(sp.structures(labelset(n))),
             len({s.orbit_key() for s in sp.structures(labelset(n))})]
            for n in range(7)]
        assert built

    @pytest.mark.parametrize("ident", ["L", "Ek:3"])
    def test_keys_are_streamed(self, ident):
        # listing the 40,320 orders of L, or the 6,561 mappings of Ek:3,
        # at n = 8 peaks at several MB traced
        sp = get_species(ident)
        tracemalloc.start()
        try:
            counts = sp.dimension(8), orbit_count(sp, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == ((40320, 1) if ident == "L" else (6561, 45))
        assert peak < 2 ** 20


class TestInterning:
    def test_table_builds_each_key_once(self):
        built = []

        def build(key):
            built.append(key)
            return SetComposition(key)

        get = intern_table(build)
        first = get((("a",), ("b",)))
        assert get((("a",), ("b",))) is first
        assert get(tuple([("a",), ("b",)])) is first
        assert get((("b",), ("a",))) is not first
        assert built == [(("a",), ("b",)), (("b",), ("a",))]

    def test_failed_build_stores_nothing(self):
        # the first build of the key raises; the next request builds again
        built = []

        def build(key):
            built.append(key)
            if len(built) == 1:
                raise ValueError("first build fails")
            return SetComposition(key)

        get = intern_table(build)
        with pytest.raises(ValueError, match="first build fails"):
            get((("a",),))
        got = get((("a",),))
        assert got == SetComposition((("a",),)) and get((("a",),)) is got
        assert len(built) == 2

    def test_sigma_maps_build_each_structure_once(self, monkeypatch):
        # once the basis is enumerated, Delta builds each distinct output
        # once: 540 constructions, where building two per call makes 34,728
        h = make_Sigma()
        for n in range(6):
            h.species.structures(labelset(n))
        built = Counter()
        init = SetComposition.__init__

        def counting(self, blocks):
            init(self, blocks)
            built[self.blocks] += 1

        monkeypatch.setattr(SetComposition, "__init__", counting)
        assert primitive_dims(h, 5) == [0, 1, 2, 6, 26, 150]
        assert set(built.values()) == {1}
        assert len(built) < 1200

    def test_basis_structures_are_built_apart_from_the_table(self):
        # the enumerator does not fetch from the intern table: an output
        # with a basis structure's key is equal to it, not the same object
        h = make_Sigma()
        basis = h.species.structures(labelset(3))
        assert primitive_dims(h, 4) == [0, 1, 2, 6, 26]
        for s in basis:
            assert h.intern(s.blocks) == s and h.intern(s.blocks) is not s

    @pytest.mark.parametrize("ident", ["E", "Sigma", "Pi", "Pal", "L", "Ek:2",
                                       "PiS:2", "Hadamard(Pi,L)"])
    def test_equal_outputs_are_one_object(self, ident):
        h = get_hopf(ident)
        I = labelset(4)
        seen = {}
        repeats = 0
        for S, T in I.decompositions():
            if not (len(S) and len(T)):
                continue
            for s in h.species.structures(I):
                for pair, _ in h.coproduct(S, T, s):
                    for x in pair:
                        repeats += x in seen
                        assert seen.setdefault(x, x) is x
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    for z, _ in h.product(S, T, x, y):
                        repeats += z in seen
                        assert seen.setdefault(z, z) is z
        assert repeats > 0


def naive_split(blocks, labels) -> tuple:
    """split_blocks by a fresh filter of every block, with no memo."""
    inside = [tuple(t for t in b if t in labels) for b in blocks]
    outside = [tuple(t for t in b if t not in labels) for b in blocks]
    return (tuple(b for b in inside if b), tuple(b for b in outside if b))


LABELS = "abcdefg"
label_subsets = st.lists(st.sampled_from(LABELS), unique=True).map(sorted)
block_words = st.lists(st.lists(st.sampled_from(LABELS), min_size=1,
                                unique=True).map(lambda b: tuple(sorted(b))),
                       max_size=5).map(tuple)


class TestSplitBlocks:
    """split_blocks memoizes each block's cut in the label set it cuts at;
    a cut must never answer for a set with other labels."""

    @given(label_subsets, label_subsets,
           st.lists(st.tuples(block_words, st.integers(0, 2)), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_equals_a_fresh_filter(self, first, second, calls):
        # two sets with different labels, and a second set object with the
        # labels of the first, asked in an arbitrary interleaving
        sets = [FiniteSet(first), FiniteSet(second), FiniteSet(first)]
        for blocks, which in calls:
            S = sets[which]
            want = naive_split(blocks, set(S.labels))
            assert split_blocks(blocks, S) == want

    def test_one_block_cut_at_different_sets(self):
        block = ("a", "b", "c")
        for _ in range(2):
            for labels, want in (("a", ((("a",),), (("b", "c"),))),
                                 ("ab", ((("a", "b"),), (("c",),))),
                                 ("abc", ((("a", "b", "c"),), ())),
                                 ("d", ((), (("a", "b", "c"),)))):
                assert split_blocks((block,), FiniteSet(labels)) == want

    def test_cuts_live_on_the_set(self):
        S, twin = FiniteSet("ac"), FiniteSet("ac")
        assert not hasattr(S, "cuts")
        split_blocks((("a", "b"), ("c", "d")), S)
        assert S.cuts == {("a", "b"): (("a",), ("b",)),
                          ("c", "d"): (("c",), ("d",))}
        assert not hasattr(twin, "cuts") and twin == S

    def test_masks_live_on_the_set(self):
        I, twin = FiniteSet("abcd"), FiniteSet("abcd")
        assert not hasattr(I, "masks")
        get_species("Sigma").structures(I)
        assert len(I.masks) == 2 ** 4 - 1
        assert I.masks[("a",)] == 0b1 and I.masks[("b", "d")] == 0b1010
        assert I.masks[I.labels] == 0b1111
        assert not hasattr(twin, "masks") and twin == I

    @pytest.mark.parametrize("ident", ["Pi", "PiS:2", "Sigma", "Pal"])
    def test_checked_builds_are_the_unchecked_ones(self, ident):
        # the enumerators build on a checked set through the mask table;
        # rebuilding each structure from its blocks alone gives it back
        sp = get_species(ident)
        for n in range(6):
            I = labelset(n)
            built = sp.structures(I)
            rebuilt = sorted(type(s)(s.blocks) for s in built)
            assert [s._key for s in built] == [t._key for t in rebuilt]
            assert [hash(s) for s in built] == [hash(t) for t in rebuilt]
            assert all(s.labels is I and t.labels == I
                       for s, t in zip(built, rebuilt))

    def test_coproducts_of_one_decomposition_share_the_cuts(self, Sigma):
        I = labelset(4)
        S, T = FiniteSet("ab"), FiniteSet("cd")
        for s in Sigma.species.structures(I):
            Sigma.coproduct(S, T, s)
        # 15 distinct blocks occur in the set compositions of four labels
        assert len(S.cuts) == 15


class TestCompositions:
    def test_dims_fubini(self, Sigma):
        assert Sigma.species.dims(5) == [1, 1, 3, 13, 75, 541]

    def test_product_concatenates(self, Sigma):
        out = Sigma.product(FiniteSet("a"), FiniteSet("bc"),
                            SetComposition((("a",),)),
                            SetComposition((("b", "c"),)))
        assert out == ((SetComposition((("a",), ("b", "c"))), 1),)

    def test_egf_against_closed_form(self, Sigma):
        # 1/(2 - exp(x)) up to order 5
        expx = TruncatedSeries([Q(1, factorial(n)) for n in range(6)], 5)
        expected = TruncatedSeries.one(5) / (TruncatedSeries([2], 5) - expx)
        assert egf(Sigma.species, 5) == expected


class TestPal:
    def test_product_worked_example(self, Pal):
        S, T = FiniteSet("ab"), FiniteSet("cdef")
        F = PalComposition((("a",), ("b",)))
        G = PalComposition((("c",), ("d", "e"), ("f",)))
        out = Pal.product(S, T, F, G)
        assert out == (
            (PalComposition((("a",), ("c",), ("d", "e"), ("f",), ("b",))), 1),)

    def test_coproduct_admissible_example(self, Pal):
        I = FiniteSet("abcdef")
        S = FiniteSet("ab")
        F = PalComposition((("e",), ("a", "b", "c", "d"), ("f",)))
        out = Pal.coproduct(S, I.minus(S), F)
        assert out == (((PalComposition((("a", "b"),)),
                          PalComposition((("e",), ("c", "d"), ("f",)))), 1),)

    def test_coproduct_inadmissible_example(self, Pal):
        I = FiniteSet("abcdef")
        S = FiniteSet("ab")
        F = PalComposition((("a", "d"), ("b",), ("e",), ("c", "f")))
        assert Pal.coproduct(S, I.minus(S), F) == ()

    def test_dims(self, Pal):
        assert Pal.species.dims(6) == [1, 1, 3, 7, 43, 171, 1581]

    def test_dim_five_shape_decomposition(self, Pal):
        # 171 = 1 + 5*C(4,3) + C(5,2)*3 + 5!, one summand per shape
        assert 171 == 1 + 5 * comb(4, 3) + comb(5, 2) * 3 + factorial(5)
        by_shape = {}
        for s in Pal.species.structures(labelset(5)):
            shape = s.orbit_key()[1]
            by_shape[shape] = by_shape.get(shape, 0) + 1
        assert by_shape == {(5,): 1, (1, 3, 1): 20, (2, 1, 2): 30,
                            (1, 1, 1, 1, 1): 120}

    def test_cocommutative_not_commutative(self, Pal):
        assert check_cocommutative(Pal, 4).ok
        assert check_commutative(Pal, 3).ok          # too small to see it
        rep = check_commutative(Pal, 4)
        assert not rep.ok                            # first witness at size 4


class TestCauchyPowers:
    def test_dimensions(self):
        for k in (0, 1, 2, 3):
            ek = make_Ek(k)
            assert ek.species.dims(4) == [k ** n if n else 1 for n in range(5)]

    def test_e1_matches_exponential(self, E):
        e1 = make_Ek(1)
        assert e1.species.dims(5) == E.species.dims(5)
        S, T = FiniteSet("a"), FiniteSet("b")
        out = e1.product(S, T, FunctionToK({"a": 1}, 1), FunctionToK({"b": 1}, 1))
        assert out == ((FunctionToK({"a": 1, "b": 1}, 1), 1),)

    def test_product_glues_graphs(self, E2):
        out = E2.product(FiniteSet("a"), FiniteSet("b"),
                         FunctionToK({"a": 2}, 2), FunctionToK({"b": 1}, 2))
        assert out == ((FunctionToK({"a": 2, "b": 1}, 2), 1),)

    def test_function_labels_are_checked(self):
        with pytest.raises(ValueError, match="separator character: 'a,b'"):
            FunctionToK({"a,b": 1}, 1)
        with pytest.raises(ValueError, match="nonempty ASCII token: ''"):
            FunctionToK({"": 1}, 1)
        with pytest.raises(ValueError, match="function a→1 is not on {a,b}"):
            FunctionToK({"a": 1}, 1, FiniteSet("ab"))

    def test_k_must_be_a_nonnegative_integer(self):
        for k in (2.5, -1, "2"):
            with pytest.raises(ValueError, match="k must be a nonnegative integer"):
                make_Ek(k)

    def test_element_species_dims(self, el):
        assert el.dims(6) == [0, 1, 2, 3, 4, 5, 6]


class TestHadamardHopf:
    def test_axioms_small(self, LxPi):
        assert check_all(LxPi, 3).ok

    def test_unit_behaviour(self, E, Pi):
        h = hadamard_hopf(E, Pi)
        S, T = FiniteSet("a"), FiniteSet("b")
        x = PairStructure(SingletonMark(S), SetPartition((("a",),)))
        y = PairStructure(SingletonMark(T), SetPartition((("b",),)))
        out = h.product(S, T, x, y)
        assert out == ((PairStructure(
            SingletonMark(FiniteSet("ab")), SetPartition((("a",), ("b",)))), 1),)

    def test_egf_of_l_twist_is_ogf(self, L, Pal):
        h = hadamard_hopf(L, Pal)
        assert egf(h.species, 5) == ogf(Pal.species, 5)

    def test_unit_component_erases_to_bare_maps(self, E, Pi):
        # structure maps of the E-twist agree with the bare monoid's once
        # the mark component is dropped
        h = hadamard_hopf(E, Pi)
        for n in range(4):
            I = labelset(n)
            for S, T in I.decompositions():
                for x in Pi.species.structures(S):
                    px = PairStructure(SingletonMark(S), x)
                    for y in Pi.species.structures(T):
                        py = PairStructure(SingletonMark(T), y)
                        got = h.product(S, T, px, py)
                        bare = Pi.product(S, T, x, y)
                        assert got == tuple(
                            (PairStructure(SingletonMark(I), s), c)
                            for s, c in bare)
                for s in Pi.species.structures(I):
                    got = h.coproduct(S, T, PairStructure(SingletonMark(I), s))
                    bare = Pi.coproduct(S, T, s)
                    assert got == tuple(
                        ((PairStructure(SingletonMark(S), u),
                          PairStructure(SingletonMark(T), w)), c)
                        for (u, w), c in bare)


class TestMorphisms:
    def test_l_to_e(self, L):
        f = morphism_L_to_E(L)
        v = f.on_basis(LinearOrder(("a", "b", "c")))
        assert v == ((SingletonMark(FiniteSet("abc")), 1),)

    def test_e_to_pi(self, E, Pi):
        f = morphism_E_to_Pi(E, Pi)
        v = f.on_basis(SingletonMark(FiniteSet("ab")))
        assert v == ((SetPartition((("a",), ("b",))), 1),)

    def test_l_to_sigma(self, L, Sigma):
        f = morphism_L_to_Sigma(L, Sigma)
        v = f.on_basis(LinearOrder(("b", "a")))
        assert v == ((SetComposition((("b",), ("a",))), 1),)

    def test_ek_inclusion(self):
        f = morphism_Ek_to_Ek1(2)
        v = f.on_basis(FunctionToK({"a": 2, "b": 1}, 2))
        assert v == ((FunctionToK({"a": 2, "b": 1}, 3), 1),)

    def test_pi_projection(self):
        f = morphism_Pi_to_PiS(closed_sizes([2], 9))
        assert f.on_basis(SetPartition((("a", "b"), ("c",)))) == ()
        kept = SetPartition((("a", "b"), ("c", "d")))
        assert f.on_basis(kept) == ((kept, 1),)

    @pytest.mark.parametrize("ident", ["PiS:2", "PiS:3", "PiS:2,3"])
    def test_pi_projection_keeps_exactly_the_quotient_basis(self, ident):
        # the projection and the quotient share one test of which
        # partitions survive
        f = get_morphism("Pi->" + ident)
        PiS = f.target
        for n in range(7):
            I = labelset(n)
            kept = []
            for s in f.source.species.structures(I):
                image = f.on_basis(s)
                if image:
                    (t, c), = image
                    assert c == 1 and t is PiS.intern(s.blocks)
                    kept.append(t)
            assert kept == list(PiS.species.structures(I))


# Every identifier the registry ships, with its built name and dims(4): the
# bare names of the tables and samples of each family. A name added to a
# table is tested here once its expected values are added.
FAMILY_SAMPLES = {"Ek:k": ("Ek:0", "Ek:3"),
                  "PiS:g1,g2,...": ("PiS:2", "PiS:2,3"),
                  "Hadamard(A,B)": ("Hadamard(L,Hadamard(Pi,E))",)}
REGISTRY_CASES = {
    "E": ("E", [1, 1, 1, 1, 1]),
    "X": ("X", [0, 1, 0, 0, 0]),
    "L": ("L", [1, 1, 2, 6, 24]),
    "Pi": ("Pi", [1, 1, 2, 5, 15]),
    "Sigma": ("Sigma", [1, 1, 3, 13, 75]),
    "Pal": ("Pal", [1, 1, 3, 7, 43]),
    "PiPrime": ("PiPrime", [1, 1, 1, 4, 5]),
    "el": ("el", [0, 1, 2, 3, 4]),
    "Ek:0": ("Ek:0", [1, 0, 0, 0, 0]),
    "Ek:3": ("Ek:3", [1, 3, 9, 27, 81]),
    "PiS:2": ("PiS:2,4,6,8", [1, 0, 1, 0, 4]),
    "PiS:2,3": ("PiS:2,3,4,5,6,7,8,9", [1, 0, 1, 1, 4]),
    "Hadamard(L,Hadamard(Pi,E))": ("Hadamard(L,Hadamard(Pi,E))",
                                   [1, 1, 4, 30, 360]),
}
MORPHISM_SAMPLES = {("Ek:k", "Ek:k"): ("Ek:0->Ek:1", "Ek:2->Ek:3"),
                    ("Pi", "PiS:g1,g2,..."): ("Pi->PiS:2", "Pi->PiS:2,3")}
MORPHISM_NAMES = {"Pi->PiS:2": "Pi->PiS:2,4,6,8",
                  "Pi->PiS:2,3": "Pi->PiS:2,3,4,5,6,7,8,9"}


def registry_identifiers():
    bare = [head for head in list(MONOIDS) + list(SPECIES_ONLY)
            if head not in FAMILY_SAMPLES]
    return bare + [ident for samples in FAMILY_SAMPLES.values()
                   for ident in samples]


class TestRegistry:
    @pytest.mark.parametrize("ident", registry_identifiers())
    def test_registry_identifier(self, ident):
        name, dims = REGISTRY_CASES[ident]
        sp = get_species(ident)
        assert (sp.name, sp.dims(4)) == (name, dims)
        if ident in SPECIES_ONLY:
            with pytest.raises(ValueError, match="without a Hopf monoid"):
                get_hopf(ident)
        else:
            assert get_hopf(ident).name == name

    def test_every_family_has_samples(self):
        # a head that is not a bare name is a family template
        for head in list(MONOIDS) + list(SPECIES_ONLY):
            assert head in FAMILY_SAMPLES or _parse(head) == (head, ()), head
        for head, samples in FAMILY_SAMPLES.items():
            assert all(_parse(ident)[0] == head for ident in samples)
        for heads, samples in MORPHISM_SAMPLES.items():
            assert all(tuple(_parse(side)[0] for side in ident.split("->"))
                       == heads for ident in samples)

    @pytest.mark.parametrize("ident", ["%s->%s" % pair for pair in MORPHISMS]
                             + [ident for samples in MORPHISM_SAMPLES.values()
                                for ident in samples])
    def test_registry_morphism(self, ident):
        f = get_morphism(ident)
        assert f.name == MORPHISM_NAMES.get(ident, ident)
        assert check_morphism(f, 3).ok

    def test_species_identifiers(self):
        assert get_species("E").dims(3) == [1, 1, 1, 1]
        assert get_species("PiS:2").dims(4) == [1, 0, 1, 0, 4]
        assert get_species("Ek:3").dimension(2) == 9
        assert get_species("Hadamard(L,Pi)").dimension(3) == 30
        nested = "Hadamard(L,Hadamard(Pi,E))"
        assert get_hopf(nested).name == nested
        assert get_species("el").dims(3) == [0, 1, 2, 3]

    def test_morphism_identifiers(self):
        for ident in ("L->E", "E->Pi", "L->Sigma", "Ek:2->Ek:3", "Pi->PiS:2"):
            assert get_morphism(ident).name.startswith(ident.split("->")[0])

    def test_unknown_identifiers(self):
        with pytest.raises(ValueError):
            get_species("Qsym")
        with pytest.raises(ValueError):
            get_morphism("Pal->L")
        for ident in ("Hadamard(L)", "Hadamard((L,Pi))"):
            with pytest.raises(ValueError, match="malformed Hadamard"):
                get_species(ident)
            with pytest.raises(ValueError, match="malformed Hadamard"):
                get_hopf(ident)

    def test_x_not_connected(self, X):
        assert not check_connected(X).ok
        assert X.species.dims(3) == [0, 1, 0, 0]


class TestConnectedIdentifications:
    def test_empty_side_product(self, Pal):
        I = FiniteSet("ab")
        s = PalComposition((("a",), ("b",)))
        assert Pal.product(EMPTY, I, Pal.one(), s) == ((s, 1),)
        assert Pal.product(I, EMPTY, s, Pal.one()) == ((s, 1),)

    def test_empty_side_coproduct(self, Sigma):
        I = FiniteSet("ab")
        s = SetComposition((("a", "b"),))
        assert Sigma.coproduct(EMPTY, I, s) == (((Sigma.one(), s), 1),)
        assert Sigma.coproduct(I, EMPTY, s) == (((s, Sigma.one()), 1),)
