from collections import Counter
from fractions import Fraction as Q
from math import comb, factorial, prod

import pytest

from hopfspecies.axioms import (check_all, check_cocommutative,
                                check_commutative, check_connected)
from hopfspecies.exactalg import TruncatedSeries
from hopfspecies.kernels import primitive_dims
from hopfspecies.species import (EMPTY, FiniteSet, FunctionToK, LinearOrder,
                                 PairStructure, PalComposition, QTensor,
                                 QVector, SetComposition, SetPartition,
                                 SingletonMark, egf, labelset, ogf,
                                 orbit_count)
from hopfspecies.structures import (block_partitions, closed_sizes, get_hopf,
                                    get_morphism, get_species, hadamard_hopf,
                                    make_Ek, make_Pal, make_PiS, make_Sigma,
                                    morphism_Ek_to_Ek1, morphism_E_to_Pi,
                                    morphism_L_to_E, morphism_L_to_Sigma,
                                    morphism_Pi_to_PiS)


class TestExponentialMonoid:
    def test_product_merges_marks(self, E):
        S, T = FiniteSet("a"), FiniteSet("bc")
        out = E.product(S, T, SingletonMark(S), SingletonMark(T))
        assert out == QVector.basis(SingletonMark(FiniteSet("abc")))

    def test_coproduct_splits_marks(self, E):
        I = FiniteSet("abc")
        S, T = FiniteSet("ab"), FiniteSet("c")
        out = E.coproduct(S, T, SingletonMark(I))
        assert out == QTensor.basis(SingletonMark(S), SingletonMark(T))


class TestLinearOrders:
    def test_concatenation(self, L):
        out = L.product(FiniteSet("a"), FiniteSet("bc"),
                        LinearOrder("a"), LinearOrder(("b", "c")))
        assert out == QVector.basis(LinearOrder(("a", "b", "c")))

    def test_restriction(self, L):
        out = L.coproduct(FiniteSet("ac"), FiniteSet("b"),
                          LinearOrder(("b", "a", "c")))
        assert out == QTensor.basis(LinearOrder(("a", "c")), LinearOrder("b"))

    def test_not_commutative(self, L):
        assert not check_commutative(L, 2).ok

    def test_cocommutative(self, L):
        assert check_cocommutative(L, 4).ok


class TestPartitions:
    def test_product_disjoint_union(self, Pi):
        out = Pi.product(FiniteSet("ab"), FiniteSet("c"),
                         SetPartition((("a", "b"),)), SetPartition((("c",),)))
        assert out == QVector.basis(SetPartition((("a", "b"), ("c",))))

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


class TestClosedFormDims:
    """Dimensions against counts from integer partitions or compositions
    and multinomials, computed without any set partition generator."""

    def test_pi_bell(self, Pi):
        assert Pi.species.dims(8) == [bell(n) for n in range(9)]

    def test_pis_even_blocks(self):
        assert get_species("PiS:2").dims(8) == [
            even_block_partitions(n) for n in range(9)]

    def test_piprime_distinct_block_sizes(self, PiPrime):
        assert PiPrime.dims(8) == [
            sum(partitions_of_type(lam) for lam in integer_partitions(n)
                if len(set(lam)) == len(lam))
            for n in range(9)]

    def test_sigma_fubini(self, Sigma):
        assert Sigma.species.dims(6) == [fubini(n) for n in range(7)]

    def test_pal_palindromic_words(self, Pal):
        assert Pal.species.dims(7) == [palindromic(n) for n in range(8)]
        assert [orbit_count(Pal.species, n) for n in range(8)] == [
            2 ** (n // 2) for n in range(8)]

    def test_l_factorials(self, L):
        assert L.species.dims(7) == [factorial(n) for n in range(8)]

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
        # palindromes are chosen on the raw blocks: every object built is
        # kept, and no plain composition is built along the way
        built = Counter()
        init = SetComposition.__init__

        def counting(self, blocks):
            built[type(self).__name__] += 1
            init(self, blocks)

        monkeypatch.setattr(SetComposition, "__init__", counting)
        make_Pal().species.structures(labelset(6))
        assert built == {"PalComposition": 1581}


class TestInterning:
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

    @pytest.mark.parametrize("ident", ["Sigma", "Pi", "Pal", "L", "Ek:2", "PiS:2",
                                       "Hadamard(Pi,L)"])
    def test_equal_outputs_are_one_object(self, ident):
        h = get_hopf(ident)
        I = labelset(4)
        seen = {}
        repeats = 0
        for S, T in I.decompositions():
            if not (len(S) and len(T)):
                continue
            for s in h.species.structures(I):
                for pair in h.coproduct(S, T, s).terms:
                    for x in pair:
                        repeats += x in seen
                        assert seen.setdefault(x, x) is x
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    for z in h.product(S, T, x, y).terms:
                        repeats += z in seen
                        assert seen.setdefault(z, z) is z
        assert repeats > 0

    @pytest.mark.parametrize("ident", ["Sigma", "Pal"])
    def test_memoized_product_shares_its_outputs_label_set(self, ident):
        # a memo entry holds no FiniteSet of its own: its ambient is the
        # label set the interned output already carries
        h = get_hopf(ident)
        for n in range(5):
            for S, T in labelset(n).decompositions():
                for x in h.species.structures(S):
                    for y in h.species.structures(T):
                        h.product(S, T, x, y)
        memo = [v for v in h._mu_cache.values() if v.terms]
        assert len(memo) > 100
        for v in memo:
            assert all(v.ambient is z.labels for z in v.terms)


class TestCompositions:
    def test_dims_fubini(self, Sigma):
        assert Sigma.species.dims(5) == [1, 1, 3, 13, 75, 541]

    def test_product_concatenates(self, Sigma):
        out = Sigma.product(FiniteSet("a"), FiniteSet("bc"),
                            SetComposition((("a",),)),
                            SetComposition((("b", "c"),)))
        assert out == QVector.basis(SetComposition((("a",), ("b", "c"))))

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
        assert out == QVector.basis(
            PalComposition((("a",), ("c",), ("d", "e"), ("f",), ("b",))))

    def test_coproduct_admissible_example(self, Pal):
        I = FiniteSet("abcdef")
        S = FiniteSet("ab")
        F = PalComposition((("e",), ("a", "b", "c", "d"), ("f",)))
        out = Pal.coproduct(S, I.minus(S), F)
        assert out == QTensor.basis(
            PalComposition((("a", "b"),)),
            PalComposition((("e",), ("c", "d"), ("f",))))

    def test_coproduct_inadmissible_example(self, Pal):
        I = FiniteSet("abcdef")
        S = FiniteSet("ab")
        F = PalComposition((("a", "d"), ("b",), ("e",), ("c", "f")))
        assert Pal.coproduct(S, I.minus(S), F).is_zero()

    def test_dims(self, Pal):
        assert Pal.species.dims(6) == [1, 1, 3, 7, 43, 171, 1581]

    def test_dim_five_shape_decomposition(self, Pal):
        # 171 = 1 + 5*C(4,3) + C(5,2)*3 + 5!, one summand per shape
        assert 171 == 1 + 5 * comb(4, 3) + comb(5, 2) * 3 + factorial(5)
        by_shape = {}
        for s in Pal.species.structures(labelset(5)):
            by_shape[s.size_word()] = by_shape.get(s.size_word(), 0) + 1
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
        assert out == QVector.basis(FunctionToK({"a": 1, "b": 1}, 1))

    def test_product_glues_graphs(self, E2):
        out = E2.product(FiniteSet("a"), FiniteSet("b"),
                         FunctionToK({"a": 2}, 2), FunctionToK({"b": 1}, 2))
        assert out == QVector.basis(FunctionToK({"a": 2, "b": 1}, 2))

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
        assert out == QVector.basis(PairStructure(
            SingletonMark(FiniteSet("ab")), SetPartition((("a",), ("b",)))))

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
                        assert got == QVector(I, {
                            PairStructure(SingletonMark(I), s): c
                            for s, c in bare.terms.items()})
                for s in Pi.species.structures(I):
                    got = h.coproduct(S, T, PairStructure(SingletonMark(I), s))
                    bare = Pi.coproduct(S, T, s)
                    assert got == QTensor(S, T, {
                        (PairStructure(SingletonMark(S), u),
                         PairStructure(SingletonMark(T), w)): c
                        for (u, w), c in bare.terms.items()})


class TestMorphisms:
    def test_l_to_e(self, L):
        f = morphism_L_to_E(L)
        v = f.on_basis(LinearOrder(("a", "b", "c")))
        assert v == QVector.basis(SingletonMark(FiniteSet("abc")))

    def test_e_to_pi(self, E, Pi):
        f = morphism_E_to_Pi(E, Pi)
        v = f.on_basis(SingletonMark(FiniteSet("ab")))
        assert v == QVector.basis(SetPartition((("a",), ("b",))))

    def test_l_to_sigma(self, L, Sigma):
        f = morphism_L_to_Sigma(L, Sigma)
        v = f.on_basis(LinearOrder(("b", "a")))
        assert v == QVector.basis(SetComposition((("b",), ("a",))))

    def test_ek_inclusion(self):
        f = morphism_Ek_to_Ek1(2)
        v = f.on_basis(FunctionToK({"a": 2, "b": 1}, 2))
        assert v == QVector.basis(FunctionToK({"a": 2, "b": 1}, 3))

    def test_pi_projection(self):
        f = morphism_Pi_to_PiS(closed_sizes([2], 9))
        assert f.on_basis(SetPartition((("a", "b"), ("c",)))).is_zero()
        kept = SetPartition((("a", "b"), ("c", "d")))
        assert f.on_basis(kept) == QVector.basis(kept)


class TestRegistry:
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
        assert Pal.product(EMPTY, I, Pal.one(), s) == QVector.basis(s)
        assert Pal.product(I, EMPTY, s, Pal.one()) == QVector.basis(s)

    def test_empty_side_coproduct(self, Sigma):
        I = FiniteSet("ab")
        s = SetComposition((("a", "b"),))
        assert Sigma.coproduct(EMPTY, I, s) == QTensor.basis(Sigma.one(), s)
        assert Sigma.coproduct(I, EMPTY, s) == QTensor.basis(s, Sigma.one())
