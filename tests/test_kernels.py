from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_kernel, reference_rref
from hopfspecies.exactalg import Echelon, TruncatedSeries, egf_from_counts
from hopfspecies.kernels import (CyclicOrder, NotADerangement,
                                 NotCocommutative,
                                 NotInjective, NotSurjective, SubspaceBasis,
                                 _kernel_space, bracket_expr,
                                 coproduct_rows, cyclic_orders,
                                 derangement_permutation, derangements,
                                 dual_factorization_check,
                                 hker_basis_derangement, hker_dims,
                                 hker_generated_check, hker_space,
                                 ideal_kplus_h, lagrange_quotient_dims,
                                 lie_basis_p, lie_bracket, lker_space,
                                 morphism_rows, p_ell_expr, pbw_series_check, primitive_dims,
                                 primitive_space)
from hopfspecies.species import (EMPTY, FiniteSet, LinearOrder, QTensor,
                                 QVector, SetPartition, SingletonMark,
                                 labelset)
from hopfspecies.structures import (HopfMonoid, HopfMorphism, closed_sizes,
                                    coproduct_vector, get_hopf, get_morphism,
                                    make_E, make_L, make_Sigma,
                                    morphism_E_to_Pi, morphism_L_to_E,
                                    morphism_L_to_Sigma, morphism_Pi_to_PiS,
                                    product_vectors)


def derangement_egf_counts(order):
    # exp(-x)/(1-x), scaled back to counts
    expm = TruncatedSeries([Q((-1) ** n, factorial(n)) for n in range(order + 1)],
                           order)
    geom = TruncatedSeries([1] * (order + 1), order)
    quot = expm * geom
    return [quot[n] * factorial(n) for n in range(order + 1)]


@pytest.fixture(scope="module")
def pi_to_e(L, E):
    return morphism_L_to_E(L, E)


@pytest.fixture(scope="module")
def e_to_pi(E, Pi):
    return morphism_E_to_Pi(E, Pi)


class TestPrimitiveSpaces:
    def test_linear_orders(self, L):
        assert primitive_dims(L, 5) == [0, 1, 1, 2, 6, 24]

    def test_exponential(self, E):
        assert primitive_dims(E, 4) == [0, 1, 0, 0, 0]

    def test_partitions_via_series_oracle(self, Pi):
        # log of the partition series is exp(x) - 1, so one primitive per size
        got = primitive_dims(Pi, 5)
        bell_egf = egf_from_counts([1, 1, 2, 5, 15, 52])
        lg = bell_egf.log()
        assert got == [lg[n] * factorial(n) for n in range(6)]
        assert got == [0, 1, 1, 1, 1, 1]

    def test_empty_set_is_zero_space(self, L):
        assert primitive_space(L, EMPTY).dim == 0

    def test_vectors_killed_by_all_coproducts(self, L, Pi, Sigma):
        # re-verify the defining property independently of the solver
        for h in (L, Pi, Sigma):
            for n in (2, 3, 4):
                I = labelset(n)
                vecs = primitive_space(h, I).vectors()
                assert vecs
                for v in vecs:
                    for S, T in I.decompositions():
                        if len(S) and len(T):
                            assert coproduct_vector(h, S, T, v).is_zero()

    def test_pal_primitives_match_pbw(self, Pal):
        # cocommutative, so exp of the primitive series gives the series back
        rep = pbw_series_check(Pal, 4)
        assert rep.ok


class TestStackedMatrixOracle:
    def test_qmatrix_stack_of_coproducts_has_nullity_two(self, L):
        # the dense-matrix route to the same kernel: stack every coproduct
        # component of the three-letter orders into one rational matrix and
        # solve it with the naive reference elimination
        I = labelset(3)
        basis = L.species.structures(I)
        rows = []
        for S, T in I.decompositions():
            if not len(S) or not len(T):
                continue
            row_index = {}
            for j, s in enumerate(basis):
                for (u, w), c in L.coproduct(S, T, s).terms.items():
                    row_index.setdefault((u, w), [0] * len(basis))[j] = c
            rows.extend(row_index.values())
        ker = reference_kernel(rows, len(basis))
        assert len(ker) == 2
        assert len(reference_rref(rows, len(basis))[0]) + 2 == len(basis)
        space = primitive_space(L, I)
        assert space.dim == 2
        assert ([tuple(v.terms.get(s, 0) for s in basis) for v in space.vectors()]
                == reference_rref(ker, len(basis))[0])

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=6))))
    @settings(max_examples=150, deadline=None)
    def test_kernel_is_stored_in_reduced_echelon_form(self, case):
        # _kernel_space stores the kernel vectors without reducing them; they
        # must already be the reference RREF of the kernel
        n, rows = case
        space = _kernel_space(tuple(range(n)), EMPTY,
                              [{j: v for j, v in enumerate(r) if v} for r in rows])
        stored = [tuple(Q(row.get(j, 0), row[c]) for j in range(n))
                  for c, row in sorted(space._ech.pivots.items())]
        assert stored == reference_rref(reference_kernel(rows, n), n)[0]


class TestSpaceCaches:
    # CPython soon hands a freed object's id to a new one; a cache keyed by
    # id() then answers for the dead object
    ROUNDS = 40

    def test_primitive_space_not_served_for_a_dead_monoid(self):
        for _ in range(self.ROUNDS):
            L = make_L()
            assert primitive_dims(L, 3) == [0, 1, 1, 2]
            del L
            E = make_E()
            assert primitive_dims(E, 3) == [0, 1, 0, 0]
            del E

    def test_hker_space_not_served_for_a_dead_morphism(self, L, E, Pi):
        I = labelset(3)
        for _ in range(self.ROUNDS):
            f = morphism_L_to_E(L, E)
            assert hker_space(f, I).dim == 2
            del f
            g = morphism_E_to_Pi(E, Pi)
            assert hker_space(g, I).dim == 0
            del g


class TestLieBracket:
    def test_two_letter_commutator(self, L):
        a, b = FiniteSet("a"), FiniteSet("b")
        v = lie_bracket(QVector.basis(LinearOrder("a")),
                        QVector.basis(LinearOrder("b")), L, a, b)
        assert v == (QVector.basis(LinearOrder(("a", "b")))
                     - QVector.basis(LinearOrder(("b", "a"))))

    def test_bracket_of_primitives_is_primitive(self, L):
        for sizes in ((1, 1), (1, 2), (2, 2), (1, 3)):
            I = labelset(sizes[0] + sizes[1])
            toks = tuple(I)
            S = FiniteSet(toks[:sizes[0]])
            T = FiniteSet(toks[sizes[0]:])
            target = primitive_space(L, I)
            for x in primitive_space(L, S).vectors():
                for y in primitive_space(L, T).vectors():
                    assert target.contains(lie_bracket(x, y, L, S, T))

    def test_commutative_monoid_kills_brackets(self, Pi):
        S, T = FiniteSet("a"), FiniteSet("b")
        x = QVector.basis(SetPartition((("a",),)))
        y = QVector.basis(SetPartition((("b",),)))
        assert lie_bracket(x, y, Pi, S, T).is_zero()


class TestCyclicOrders:
    def test_canonical_rotation(self):
        g = CyclicOrder(("b", "a", "c", "d"))
        assert g.cycle == ("a", "c", "d", "b")
        assert g == CyclicOrder(("d", "b", "a", "c"))

    def test_count(self):
        for n in (1, 2, 3, 4, 5):
            assert sum(1 for _ in cyclic_orders(labelset(n))) == factorial(n - 1)

    def test_segment_and_restrict(self):
        g = CyclicOrder(("b", "a", "c", "d"))
        assert g.segment("a", "b") == ("a", "c", "d")
        assert g.restrict(("a", "c", "d")).cycle == ("a", "c", "d")
        assert g.restrict(("b", "c")).cycle == ("b", "c")


class TestLieBasis:
    def test_worked_expansion(self, L):
        # the eight-term signed expansion of the bracketing of (b,a,c,d)
        gamma = CyclicOrder(("b", "a", "c", "d"))
        ell0 = LinearOrder("abcd")
        v = lie_basis_p(gamma, ell0, L)
        expected = {LinearOrder(word): sign for word, sign in [
            ("acdb", 1), ("adcb", -1), ("cdab", -1), ("dcab", 1),
            ("bacd", -1), ("badc", 1), ("bcda", 1), ("bdca", -1)]}
        assert v == QVector(labelset(4), expected)
        assert bracket_expr(gamma, ell0) == "[[a,[c,d]],b]"

    def test_two_letter_base_case(self, L):
        v = lie_basis_p(CyclicOrder(("a", "b")), LinearOrder("ab"), L)
        assert v == (QVector.basis(LinearOrder(("a", "b")))
                     - QVector.basis(LinearOrder(("b", "a"))))
        v2 = lie_basis_p(CyclicOrder(("a", "b")), LinearOrder("ba"), L)
        assert v2 == v.scale(-1)

    def test_three_letter_brackets(self, L):
        ell0 = LinearOrder("abc")
        exprs = [bracket_expr(g, ell0) for g in cyclic_orders(labelset(3))]
        assert exprs == ["[a,[b,c]]", "[[a,c],b]"]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_basis_of_lie_space(self, L, n):
        # independence, primitivity and the right count, so a basis
        I = labelset(n)
        ell0 = LinearOrder(tuple(I))
        prim = primitive_space(L, I)
        span = SubspaceBasis(I, L.species.structures(I))
        count = 0
        for gamma in cyclic_orders(I):
            v = lie_basis_p(gamma, ell0, L)
            assert prim.contains(v)
            assert span.add(v)
            count += 1
        assert count == factorial(n - 1) == prim.dim == span.dim

    def test_reference_order_matters(self, L):
        gamma = CyclicOrder(("a", "b", "c"))
        v1 = lie_basis_p(gamma, LinearOrder("abc"), L)
        v2 = lie_basis_p(gamma, LinearOrder("bca"), L)
        assert v1 != v2

    def test_basis_at_six(self, L):
        I = labelset(6)
        ell0 = LinearOrder(tuple(I))
        span = SubspaceBasis(I, L.species.structures(I))
        for gamma in cyclic_orders(I):
            v = lie_basis_p(gamma, ell0, L)
            for S, T in I.decompositions():
                if len(S) and len(T):
                    assert coproduct_vector(L, S, T, v).is_zero()
            span.add(v)
        assert span.dim == 120 == primitive_space(L, I).dim


class TestHopfKernelSpace:
    def test_dims_match_derangement_egf(self, pi_to_e):
        assert hker_dims(pi_to_e, 5) == [1, 0, 1, 2, 9, 44]
        assert derangement_egf_counts(6) == [1, 0, 1, 2, 9, 44, 265]

    def test_identity_morphism_has_zero_kernel(self, Pi):
        ident = HopfMorphism("id", Pi, Pi, lambda s: ((s, 1),))
        for n in (1, 2, 3):
            assert hker_space(ident, labelset(n)).dim == 0
        assert hker_space(ident, EMPTY).dim == 1

    def test_dims_at_six(self, pi_to_e):
        assert hker_space(pi_to_e, labelset(6)).dim == 265


class TestLieKernel:
    def test_equals_primitives_above_one(self, L, pi_to_e):
        for n in (2, 3, 4):
            I = labelset(n)
            assert lker_space(pi_to_e, I).same_span(primitive_space(L, I))

    def test_zero_at_singletons(self, pi_to_e):
        assert lker_space(pi_to_e, labelset(1)).dim == 0

    def test_identity_morphism(self, Pi):
        ident = HopfMorphism("id", Pi, Pi, lambda s: ((s, 1),))
        for n in (1, 2, 3):
            assert lker_space(ident, labelset(n)).dim == 0


class TestDerangements:
    def test_counts_by_size(self):
        expected = derangement_egf_counts(6)
        for n in (1, 2, 3, 4, 5):
            ell0 = LinearOrder(tuple(labelset(n)))
            assert sum(1 for _ in derangements(ell0)) == expected[n]

    def test_cycle_shapes_at_four(self):
        ell0 = LinearOrder("abcd")
        shapes = {"four-cycle": 0, "two-two": 0}
        for ell in derangements(ell0):
            sigma = derangement_permutation(ell, ell0)
            seen, cycles = set(), []
            for t in ell0.seq:
                if t in seen:
                    continue
                orbit = [t]
                seen.add(t)
                u = sigma[t]
                while u != t:
                    orbit.append(u)
                    seen.add(u)
                    u = sigma[u]
                cycles.append(len(orbit))
            if cycles == [4]:
                shapes["four-cycle"] += 1
            else:
                assert sorted(cycles) == [2, 2]
                shapes["two-two"] += 1
        assert shapes == {"four-cycle": 6, "two-two": 3}

    def test_non_derangement_rejected(self):
        with pytest.raises(NotADerangement):
            derangement_permutation(LinearOrder("acb"), LinearOrder("abc"))


class TestHopfKernelBasis:
    def test_worked_factorization(self, L):
        ell0 = LinearOrder(("s", "m", "i", "t", "e"))
        ell = LinearOrder(("i", "t", "e", "m", "s"))
        assert p_ell_expr(ell, ell0) == "[s,[i,e]]*[m,t]"
        got = hker_basis_derangement(ell, ell0, L)
        # independent expansion of [s,[i,e]] * [m,t]
        b_ie = lie_bracket(QVector.basis(LinearOrder("i")),
                           QVector.basis(LinearOrder("e")),
                           L, FiniteSet("i"), FiniteSet("e"))
        b_sie = lie_bracket(QVector.basis(LinearOrder("s")), b_ie,
                            L, FiniteSet("s"), FiniteSet("ie"))
        b_mt = lie_bracket(QVector.basis(LinearOrder("m")),
                           QVector.basis(LinearOrder("t")),
                           L, FiniteSet("m"), FiniteSet("t"))
        expected = product_vectors(L, FiniteSet("eis"), FiniteSet("mt"),
                                   b_sie, b_mt)
        assert got == expected

    def test_two_letter_case(self, L):
        v = hker_basis_derangement(LinearOrder("ba"), LinearOrder("ab"), L)
        assert v == (QVector.basis(LinearOrder(("a", "b")))
                     - QVector.basis(LinearOrder(("b", "a"))))

    def test_three_letter_cases(self, L):
        ell0 = LinearOrder("abc")
        exprs = {ell.text(): p_ell_expr(ell, ell0) for ell in derangements(ell0)}
        assert exprs == {"b|c|a": "[a,[b,c]]", "c|a|b": "[[a,c],b]"}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_basis_of_hker(self, L, pi_to_e, n):
        I = labelset(n)
        ell0 = LinearOrder(tuple(I))
        hk = hker_space(pi_to_e, I)
        span = SubspaceBasis(I, L.species.structures(I))
        count = 0
        for ell in derangements(ell0):
            v = hker_basis_derangement(ell, ell0, L)
            assert hk.contains(v)
            assert span.add(v)
            count += 1
        assert count == span.dim == hk.dim

    def test_basis_at_six(self, L, pi_to_e):
        I = labelset(6)
        ell0 = LinearOrder(tuple(I))
        hk = hker_space(pi_to_e, I)
        span = SubspaceBasis(I, L.species.structures(I))
        for ell in derangements(ell0):
            v = hker_basis_derangement(ell, ell0, L)
            assert hk.contains(v)
            span.add(v)
        assert span.dim == 265 == hk.dim


class TestKernelLemmas:
    def test_lker_inside_hker(self, pi_to_e):
        for n in (1, 2, 3, 4):
            I = labelset(n)
            hk = hker_space(pi_to_e, I)
            assert all(hk.contains(v) for v in lker_space(pi_to_e, I).vectors())

    def test_lker_inside_hker_partition_quotient(self):
        f = morphism_Pi_to_PiS(closed_sizes([2], 9))
        for n in (1, 2, 3, 4):
            I = labelset(n)
            hk = hker_space(f, I)
            assert all(hk.contains(v) for v in lker_space(f, I).vectors())

    def test_hker_closed_under_product(self, L, pi_to_e):
        for n in (2, 3, 4):
            I = labelset(n)
            hk = hker_space(pi_to_e, I)
            for S, T in I.decompositions():
                if not len(S) or not len(T):
                    continue
                for x in hker_space(pi_to_e, S).vectors():
                    for y in hker_space(pi_to_e, T).vectors():
                        assert hk.contains(product_vectors(L, S, T, x, y))

    def test_generated_by_lie_kernel(self, pi_to_e):
        rep = hker_generated_check(pi_to_e, 4)
        assert rep.ok
        assert rep.details["hker_dims"] == [1, 0, 1, 2, 9]

    def test_generated_with_singleton_lie_kernel(self):
        # the quotient onto even block sizes has primitives of odd sizes in
        # its Lie kernel, including singletons
        f = morphism_Pi_to_PiS(closed_sizes([2], 9))
        rep = hker_generated_check(f, 4)
        assert rep.ok
        # odd-block partition counts 1,1,1,2,5 = exp(sinh x)
        assert rep.details["hker_dims"] == [1, 1, 1, 2, 5]


class TestIdealAndLagrange:
    def test_partitions_over_exponential(self, e_to_pi, Pi):
        # the ideal is spanned by partitions with a singleton block
        for n in (1, 2, 3, 4, 5):
            I = labelset(n)
            ideal = ideal_kplus_h(e_to_pi, I)
            with_singleton = [p for p in Pi.species.structures(I)
                              if any(len(b) == 1 for b in p.blocks)]
            assert ideal.dim == len(with_singleton)
            assert all(ideal.contains(QVector.basis(p)) for p in with_singleton)
        q = lagrange_quotient_dims(e_to_pi, 5)
        assert q == [1, 0, 1, 1, 4, 11]

    def test_quotient_matches_series_oracle(self, e_to_pi):
        # exp(exp(x) - x - 1) counts partitions with no singleton blocks
        inner = TruncatedSeries(
            [Q(1, factorial(n)) if n >= 2 else 0 for n in range(6)], 5)
        series = inner.exp()
        q = lagrange_quotient_dims(e_to_pi, 5)
        assert q == [series[n] * factorial(n) for n in range(6)]

    def test_quotient_matches_enumeration_oracle(self, e_to_pi, Pi):
        q = lagrange_quotient_dims(e_to_pi, 5)
        for n in range(6):
            no_singleton = [p for p in Pi.species.structures(labelset(n))
                            if all(len(b) >= 2 for b in p.blocks)]
            assert q[n] == len(no_singleton)

    def test_orders_in_compositions(self, L, Sigma):
        f = morphism_L_to_Sigma(L, Sigma)
        q = lagrange_quotient_dims(f, 4)
        # (1 - x)/(2 - exp(x)) as the quotient series
        expx = TruncatedSeries([Q(1, factorial(n)) for n in range(5)], 4)
        series = TruncatedSeries([1, -1], 4) / (TruncatedSeries([2], 4) - expx)
        assert q == [series[n] * factorial(n) for n in range(5)]
        assert q == [1, 0, 1, 4, 23]

    def test_trivial_submonoid(self, Pi):
        ident = HopfMorphism("id", Pi, Pi, lambda s: ((s, 1),))
        assert lagrange_quotient_dims(ident, 4) == [1, 0, 0, 0, 0]

    def test_not_injective_rejected(self, pi_to_e):
        with pytest.raises(NotInjective):
            lagrange_quotient_dims(pi_to_e, 3)

    def test_dual_factorization(self, pi_to_e):
        rep = dual_factorization_check(pi_to_e, 5)
        assert rep.ok
        d = rep.details["hker_dims"]
        for n in range(6):
            assert factorial(n) == sum(comb(n, i) * d[n - i] for i in range(n + 1))

    def test_dual_requires_surjective(self, e_to_pi):
        with pytest.raises(NotSurjective):
            dual_factorization_check(e_to_pi, 3)


class TestPbw:
    def test_shipped_cocommutative_monoids(self, E, L, Pi, Sigma):
        for h in (E, L, Pi, Sigma):
            rep = pbw_series_check(h, 5)
            assert rep.ok, h.name

    def test_linear_orders_series(self, L):
        rep = pbw_series_check(L, 5)
        assert rep.details["primitive_dims"] == [0, 1, 1, 2, 6, 24]
        # exp(sum (n-1)! x^n / n!) = exp(-log(1-x)) = 1/(1-x)
        lhs = egf_from_counts([0, 1, 1, 2, 6, 24]).exp()
        assert lhs == egf_from_counts([factorial(n) for n in range(6)])

    def test_not_cocommutative_rejected(self, L, E):
        # an order-reversing coproduct breaks cocommutativity at size 2
        def delta(S, T, s):
            return (((LinearOrder(reversed(s.restrict(S).seq)), s.restrict(T)), 1),)

        twisted = HopfMonoid(L.species, L.product_terms, delta, name="twisted")
        with pytest.raises(NotCocommutative):
            pbw_series_check(twisted, 3)

    def test_generated_check_requires_surjective(self, e_to_pi):
        with pytest.raises(NotSurjective):
            hker_generated_check(e_to_pi, 3)


class TestIntegerRows:
    """Every shipped monoid has integer structure constants, so the rows the
    echelon engine eliminates must stay int, never Fraction."""

    @staticmethod
    def all_int(rows):
        return all(type(v) is int for row in rows for v in row.values())

    def test_coproduct_and_morphism_rows_hold_ints(self, Sigma, pi_to_e):
        I = labelset(4)
        prim_rows = coproduct_rows(Sigma, I)
        hker_rows = (coproduct_rows(pi_to_e.source, I, pi_to_e)
                     + list(morphism_rows(pi_to_e, I).values()))
        for rows in (prim_rows, hker_rows):
            assert rows and self.all_int(rows)
            ech = Echelon()
            for row in rows:
                ech.add(row)
            assert self.all_int(ech.pivots.values())

    def test_stored_kernel_pivots_hold_ints(self, Sigma, pi_to_e):
        I = labelset(4)
        for space in (primitive_space(Sigma, I), hker_space(pi_to_e, I)):
            assert self.all_int(space._ech.pivots.values())

    def test_generated_check_reduces_only_ints(self, pi_to_e, monkeypatch):
        # the Lie-kernel vectors hold Fractions (rref divides by the
        # pivot); their products are scaled to integer rows on entry
        reduce = Echelon.reduce
        returned = []

        def spy(self, row):
            out = reduce(self, row)
            returned.append(out)
            return out

        monkeypatch.setattr(Echelon, "reduce", spy)
        assert hker_generated_check(pi_to_e, 5).ok
        assert returned and self.all_int(returned)


def rows_from_public_maps(h, I, f=None) -> list:
    """coproduct_rows rebuilt from the memoized QTensor/QVector maps."""
    basis = h.species.structures(I)
    rows: dict = {}
    for S, T in I.decompositions():
        if not (len(S) and len(T)):
            continue
        for j, s in enumerate(basis):
            for (u, w), c in h.coproduct(S, T, s).terms.items():
                for t, d in (f.on_basis(u).terms.items() if f else ((u, 1),)):
                    row = rows.setdefault((S.labels, t, w), {})
                    row[j] = row.get(j, 0) + c * d
    return list(rows.values())


class TestRowsFromPairs:
    """The row builders read the structure maps' (output, coefficient)
    pairs directly; the rows must be those of the public maps."""

    @pytest.mark.parametrize("ident", ["E", "L", "Pi", "PiS:2", "Sigma", "Pal",
                                       "Ek:2", "Hadamard(Pi,L)"])
    def test_coproduct_rows_match_public_coproduct(self, ident):
        h = get_hopf(ident)
        for n in range(5):
            I = labelset(n)
            assert coproduct_rows(h, I) == rows_from_public_maps(h, I), n

    @pytest.mark.parametrize("ident", ["L->E", "E->Pi", "L->Sigma", "Pi->PiS:2"])
    def test_hker_rows_match_public_maps(self, ident):
        f = get_morphism(ident)
        for n in range(5):
            I = labelset(n)
            public = rows_from_public_maps(f.source, I, f)
            src = f.source.species.structures(I)
            by_target: dict = {}
            for j, s in enumerate(src):
                for t, c in f.on_basis(s).terms.items():
                    by_target.setdefault(t, {})[j] = c
            assert coproduct_rows(f.source, I, f) == public, n
            assert morphism_rows(f, I) == by_target, n

    def test_repeated_pairs_are_summed_like_the_public_maps(self, L, E):
        # a map may return one output more than once; the rows must hold
        # the sum, as the collected QTensor/QVector do
        def delta(S, T, s):
            return L.coproduct_terms(S, T, s) * 2

        twice = HopfMonoid(L.species, L.product_terms, delta)
        f = HopfMorphism("twice", twice, E,
                         lambda s: ((SingletonMark(s.labels), 1),) * 3)
        I = labelset(3)
        assert coproduct_rows(twice, I) == rows_from_public_maps(twice, I)
        assert coproduct_rows(twice, I, f) == rows_from_public_maps(twice, I, f)
        assert {v for row in coproduct_rows(twice, I, f) for v in row.values()} == {6}
        assert morphism_rows(f, I) == {
            t: {j: c for j in range(6)}
            for t, c in f.on_basis(LinearOrder(("a", "b", "c"))).terms.items()}

    def test_primitive_dims_build_no_tensor_and_no_memo(self, monkeypatch):
        built = []
        init = QTensor.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(QTensor, "__init__", counting)
        h = make_Sigma()
        assert primitive_dims(h, 5) == [0, 1, 2, 6, 26, 150]
        assert built == [] and h._delta_cache == {}

    def test_off_ambient_pair_is_refused_on_both_paths(self, L):
        a, b, c = LinearOrder("a"), LinearOrder("b"), LinearOrder(("a", "b"))

        def delta(S, T, s):
            return (((c, LinearOrder(tuple(T))), 1),) if len(S) == 1 else (
                L.coproduct_terms(S, T, s))

        bad = HopfMonoid(L.species, L.product_terms, delta)
        S, T = FiniteSet("a"), FiniteSet("bc")
        s = LinearOrder(("a", "b", "c"))
        message = r"tensor term \(a\|b, b\|c\) off ambient \(\{a\}, \{b,c\}\)"
        with pytest.raises(ValueError, match=message):
            bad.coproduct(S, T, s)
        with pytest.raises(ValueError, match=message):
            bad.coproduct_terms(S, T, s)
        with pytest.raises(ValueError, match=message):
            coproduct_rows(bad, labelset(3))

        def mu(S, T, x, y):
            return ((a, 1),)

        bad = HopfMonoid(L.species, mu, L.coproduct_terms)
        message = r"structure a not on ambient \{a,b\}"
        with pytest.raises(ValueError, match=message):
            bad.product(FiniteSet("a"), FiniteSet("b"), a, b)
        with pytest.raises(ValueError, match=message):
            bad.product_terms(FiniteSet("a"), FiniteSet("b"), a, b)

        f = HopfMorphism("bad", L, L, lambda s: ((a, 1),))
        message = r"structure a not on ambient \{a,b\}"
        with pytest.raises(ValueError, match=message):
            f.on_basis(c)
        with pytest.raises(ValueError, match=message):
            f.on_basis_terms(c)
        with pytest.raises(ValueError, match=message):
            morphism_rows(f, labelset(2))

    def test_inexact_coefficient_is_refused_on_both_paths(self, L):
        def delta(S, T, s):
            return tuple((key, 0.5) for key, _ in L.coproduct_terms(S, T, s))

        bad = HopfMonoid(L.species, L.product_terms, delta)
        S, T = FiniteSet("a"), FiniteSet("b")
        s = LinearOrder(("a", "b"))
        for call in (bad.coproduct, bad.coproduct_terms):
            with pytest.raises(TypeError, match="exact coefficient expected, got 0.5"):
                call(S, T, s)

    def test_empty_sides_are_the_unit_identifications(self, Sigma):
        I = FiniteSet("ab")
        s = Sigma.species.structures(I)[0]
        one = Sigma.one()
        assert Sigma.coproduct_terms(EMPTY, I, s) == (((one, s), 1),)
        assert Sigma.coproduct_terms(I, EMPTY, s) == (((s, one), 1),)
        assert Sigma.product_terms(EMPTY, I, one, s) == ((s, 1),)
        assert Sigma.product_terms(I, EMPTY, s, one) == ((s, 1),)
