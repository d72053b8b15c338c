import re
import weakref
from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (mark_to_one_block, mutate_coproduct, mutate_product,
                      reference_add, reference_kernel, reference_rref)
from hopfspecies import cli
from hopfspecies import kernels as kernels_mod
from hopfspecies.axioms import check_all, check_cocommutative, check_morphism
from hopfspecies.exactalg import Echelon, TruncatedSeries, egf_from_counts
from hopfspecies.kernels import (SubspaceBasis, _kernel_space, coproduct_rows,
                                 hker_dims, hker_space, lker_space,
                                 primitive_dims, primitive_space)
from hopfspecies.lagrange import (NotCocommutative, NotInjective,
                                  NotSurjective, dual_factorization_check,
                                  hker_generated_check, ideal_kplus_h,
                                  lagrange_factorization_check,
                                  lagrange_quotient_dims, pbw_series_check)
from hopfspecies.lie import (CyclicOrder, NotADerangement, bracket_expr,
                             cyclic_orders, derangement_permutation,
                             derangements, hker_basis_derangement, lie_basis_p,
                             lie_bracket, p_ell_expr)
from hopfspecies.species import (EMPTY, FiniteSet, LinearOrder, SetPartition,
                                 SingletonMark, closed_sizes, labelset,
                                 set_compositions)
from hopfspecies.structures import (HopfMonoid, HopfMorphism, get_hopf,
                                    get_morphism, hadamard_hopf,
                                    iterated_product, make_E, make_L,
                                    make_Sigma, morphism_E_to_Pi,
                                    morphism_L_to_E, morphism_L_to_Sigma,
                                    morphism_Pi_to_PiS, product_vectors)
from hopfspecies.vectors import QTensor, QVector


def coproduct_vector(h, S, T, v: QVector) -> QTensor:
    """Delta_{S,T} extended linearly to vectors."""
    return QTensor(S, T, ((k, d * c) for s, c in v.terms.items()
                          for k, d in h.coproduct(S, T, s)))


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


def eulerian_idempotent(h, I) -> dict:
    """The first Eulerian idempotent of h at each basis element x of h[I]:
    e(x) = sum over set compositions F = (S1, ..., Sk) of I of
    (-1)^(k-1)/k mu_F Delta_F(x) (Aguiar-Mahajan, Monoidal Functors,
    Species and Hopf Algebras, 2010). Delta_F peels S1, ..., S(k-1) off the
    front one coproduct at a time; mu_F multiplies the pieces left to right.
    For a cocommutative connected h it projects h[I] onto the primitives."""
    comps = [tuple(map(FiniteSet, F)) for F in set_compositions(I)]
    out = {}
    for x in h.species.structures(I):
        acc = QVector.zero(I)
        for F in comps:
            terms = [((), x, 1)]
            rest = I
            for S in F[:-1]:
                rest = rest.minus(S)
                terms = [(done + (u,), w, c * d) for done, v, c in terms
                         for (u, w), d in h.coproduct(S, rest, v)]
            sign = Q((-1) ** (len(F) - 1), len(F))
            for done, last, c in terms:
                pieces = [QVector.basis(u) for u in done + (last,)]
                acc = acc + iterated_product(h, F, pieces).scale(sign * c)
        out[x] = acc
    return out


class TestEulerianOracle:
    """An oracle for the primitive bases that shares no code with the
    kernel rows: the first Eulerian idempotent, built from mu and Delta."""

    @pytest.mark.parametrize("ident", ["L", "Pi", "Sigma", "Pal"])
    def test_idempotent_fixes_the_primitives_and_spans_them(self, ident):
        h = get_hopf(ident)
        dims = primitive_dims(h, 4)
        for n in range(1, 5):
            I = labelset(n)
            e = eulerian_idempotent(h, I)
            space = primitive_space(h, I)
            for v in space.vectors():
                assert sum((e[s].scale(c) for s, c in v.terms.items()),
                           QVector.zero(I)) == v
            image = SubspaceBasis(I, h.species.structures(I))
            for ex in e.values():
                image.add(ex)
                assert space.contains(ex)
            assert image.dim == space.dim == dims[n], n


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
                for (u, w), c in L.coproduct(S, T, s):
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
        # rows() reads the kernel vectors off the elimination without
        # reducing them again; they must already be the reference RREF of
        # the kernel
        n, rows = case
        space = _kernel_space(tuple(range(n)), EMPTY,
                              [{j: v for j, v in enumerate(r) if v} for r in rows])
        stored = [tuple(Q(dict(row).get(j, 0)) for j in range(n))
                  for row in space.rows()]
        assert stored == reference_rref(reference_kernel(rows, n), n)[0]

    def test_rows_are_eliminated_shortest_first(self, monkeypatch):
        # short pivot rows keep the fill of every later reduction small (Pi
        # at n = 7 stores 17,707 entries in arrival order, 3,338 sorted);
        # rows of equal length keep their arrival order, repeats go in once
        fed = []

        class Recording(Echelon):
            def add(self, row):
                fed.append(row)
                return super().add(row)

        monkeypatch.setattr(kernels_mod, "Echelon", Recording)
        rows = [{0: 1, 1: 1, 2: 1}, {2: 1}, {0: 1, 1: 1, 2: 1}, {0: 2, 1: -2},
                {1: 3}]
        space = _kernel_space(tuple(range(3)), EMPTY, rows)
        # columns go in reversed, j -> 2 - j
        assert fed == [{0: 1}, {1: 3}, {2: 2, 1: -2}, {2: 1, 1: 1, 0: 1}]
        assert space.dim == 0


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

    def test_no_space_outlives_its_caller(self, monkeypatch, capsys, Sigma,
                                          pi_to_e):
        # no cache holds a kernel space: each is freed as soon as the
        # function that asked for it lets go, though the monoid and the
        # morphism live on
        made = []
        space = kernels_mod._kernel_space

        def recorded(*args):
            got = space(*args)
            made.append(weakref.ref(got))
            return got

        monkeypatch.setattr(kernels_mod, "_kernel_space", recorded)
        assert primitive_dims(Sigma, 5) == [0, 1, 2, 6, 26, 150]
        assert hker_dims(pi_to_e, 5) == [1, 0, 1, 2, 9, 44]
        assert cli.run(["primitives", "--species", "Sigma", "--max-n", "4"]) == 0
        assert capsys.readouterr().out == (
            "primitive dimensions of Sigma: [0, 1, 2, 6, 26]\n")
        assert len(made) == 5 + 6 + 4
        assert [ref() for ref in made] == [None] * len(made)


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

    @pytest.mark.parametrize("ident", ["E->Pi", "L->Sigma", "Ek:1->Ek:2", "id"])
    def test_ideal_spans_the_vector_products(self, ident, Pi):
        # the ideal read off pairs spans what the linear extensions give:
        # f(x) as a QVector, multiplied by each basis vector of h[T]
        f = (HopfMorphism("id", Pi, Pi, lambda s: ((s, 1),)) if ident == "id"
             else get_morphism(ident))
        h = f.target
        for n in range(5):
            I = labelset(n)
            ref = SubspaceBasis(I, h.species.structures(I))
            for S, T in I.decompositions():
                if not len(S):
                    continue
                for x in f.source.species.structures(S):
                    fx = f(QVector.basis(x))
                    for y in h.species.structures(T):
                        ref.add(product_vectors(h, S, T, fx, QVector.basis(y)))
            assert ideal_kplus_h(f, I).same_span(ref), n

    def test_factorization_check_passes_on_a_sub_monoid(self, e_to_pi):
        rep = lagrange_factorization_check(e_to_pi, 5)
        assert rep.ok
        assert rep.details == {"quotient_dims": [1, 0, 1, 1, 4, 11]}

    def test_non_hopf_map_fails_the_factorization(self):
        # mark_to_one_block is injective, so only the factorization catches it:
        # its ideal is all of Pi[2], so q_2 = 0 and the convolution reads 1
        rep = lagrange_factorization_check(mark_to_one_block(), 4)
        assert not rep.ok
        assert rep.first_violation == 2
        assert rep.witness == {"dim h[n]": 2, "convolution": 1}

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

        twisted = HopfMonoid(L.species, L.product, delta, name="twisted")
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
        hker_rows = coproduct_rows(pi_to_e.source, I, pi_to_e)
        matrix = list(f_block(pi_to_e, I).values())
        for rows in (prim_rows, hker_rows, matrix):
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
        # the Lie-kernel vectors may hold Fractions (rref divides by a
        # non-unit pivot); their products are scaled to integer rows on entry
        reduce = Echelon.reduce
        returned = []

        def spy(self, row):
            out = reduce(self, row)
            returned.append(out)
            return out

        monkeypatch.setattr(Echelon, "reduce", spy)
        assert hker_generated_check(pi_to_e, 5).ok
        assert returned and self.all_int(returned)


class TestBasisRows:
    """`SubspaceBasis.rows()` is the one reader of the reduced basis and
    `names()` names each coordinate once; together they give what the
    QVectors of `vectors()` hold."""

    @pytest.mark.parametrize("ident", ["Sigma", "Pi", "Pal", "L", "Ek:2",
                                       "PiS:2", "Hadamard(L,Pi)"])
    def test_rows_and_names_give_the_vectors(self, ident):
        h = get_hopf(ident)
        for n in range(1, 5):
            space = primitive_space(h, labelset(n))
            names = space.names()
            rows = space.rows()
            vecs = space.vectors()
            assert len(rows) == len(vecs) == space.dim
            assert names == [s.text() for s in space.coords]
            for row, v in zip(rows, vecs):
                assert [j for j, _ in row] == sorted(j for j, _ in row)
                assert [(names[j], c) for j, c in row] == [
                    (s.text(), c) for s, c in v.items()]

    @staticmethod
    def by_hand(rref):
        class Fixed(Echelon):
            def rref(self):
                return rref
        I = FiniteSet("ab")
        coords = (LinearOrder(("a", "b")), LinearOrder(("b", "a")))
        space = SubspaceBasis(I, coords)
        space._spanned = Fixed()  # a spanned space's echelon, rref by hand
        return space

    def test_inexact_coefficient_is_refused(self):
        space = self.by_hand({0: {0: 1, 1: 0.5}})
        with pytest.raises(TypeError, match="exact coefficient expected, got 0.5"):
            space.rows()
        with pytest.raises(TypeError, match="exact coefficient expected, got 0.5"):
            space.vectors()

    def test_zero_coefficient_is_refused(self):
        with pytest.raises(ValueError, match="reduced row 0 holds a zero"):
            self.by_hand({0: {0: 1, 1: Q(0)}}).rows()

    def test_fraction_coefficients_pass(self):
        assert self.by_hand({0: {1: Q(-1, 2), 0: 1}}).rows() == [[(0, 1), (1, Q(-1, 2))]]

    def test_off_ambient_coordinate_is_refused_by_names(self):
        space = SubspaceBasis(FiniteSet("ab"), (LinearOrder(("a", "b")),
                                                LinearOrder("a")))
        with pytest.raises(ValueError, match=r"structure a not on ambient \{a,b\}"):
            space.names()


class TestEliminationPin:
    def test_sigma_at_five(self, Sigma):
        # the rows of primitive_space(Sigma, {a..e}) in _kernel_space's
        # order; the heap-ordered engine stores exactly the pivots of the
        # min(row) loop in conftest
        I = labelset(5)
        n = len(Sigma.species.structures(I))
        distinct = {frozenset(row.items()): row for row in coproduct_rows(Sigma, I)}
        assert len(distinct) == 765
        ech, pivots = Echelon(), {}
        for row in sorted(distinct.values(), key=len):
            row = {n - 1 - j: c for j, c in row.items()}
            assert ech.add(row) == reference_add(pivots, row)
        assert ech.rank == 391 == n - 150
        assert sum(map(len, ech.pivots.values())) == 3169
        assert ech.pivots == pivots


def rows_from_public_maps(h, I, f=None, skip_mirrors=False) -> list:
    """coproduct_rows rebuilt through the linear extensions
    `coproduct_vector` and `f(...)`, which sum the pairs in a QTensor or
    QVector rather than in the row dicts. With f, T = empty is built too.
    With `skip_mirrors`, only the decompositions whose S comes before T in
    subset order are built."""
    basis = h.species.structures(I)
    rows: dict = {}
    for S, T in I.decompositions():
        if not (len(S) and (len(T) or f)):
            continue
        if skip_mirrors and (len(S), S.labels) > (len(T), T.labels):
            continue
        for j, s in enumerate(basis):
            for (u, w), c in coproduct_vector(h, S, T, QVector.basis(s)).items():
                for t, d in (f(QVector.basis(u)).items() if f else ((u, 1),)):
                    row = rows.setdefault((S.labels, t, w), {})
                    row[j] = row.get(j, 0) + c * d
    return list(rows.values())


def matrix_of(f, I) -> dict:
    """The matrix of f over I read off `f.on_basis`: one row per target
    structure, keyed by it."""
    rows: dict = {}
    for j, s in enumerate(f.source.species.structures(I)):
        for t, c in f.on_basis(s):
            row = rows.setdefault(t, {})
            row[j] = row.get(j, 0) + c
    return rows


def f_block(f, I) -> dict:
    """The (I, empty) block with f, the matrix of f that `lker_space` and
    `_require_full_rank` read, keyed by target structure."""
    block = kernels_mod._block(f.source, f.source.species.structures(I),
                               I, EMPTY, f)
    assert {w for _, w in block} <= {f.source.one()}
    return {t: row for (t, _), row in block.items()}


SHIPPED = ["E", "L", "Pi", "PiS:2", "Sigma", "Pal", "Ek:2", "Hadamard(Pi,L)",
           "Hadamard(L,Pi)"]
SHIPPED_MORPHISMS = ["L->E", "E->Pi", "L->Sigma", "Ek:1->Ek:2", "Pi->PiS:2"]


def with_label(key, old: str, new: str):
    """The key with the label `old` replaced by `new`, at any depth."""
    if type(key) is tuple:
        return tuple(with_label(k, old, new) for k in key)
    return new if key == old else key


class TestRowsFromPairs:
    """The row builders read the monoids' Delta on keys, grouped by key
    pair; the rows must be those of the public, interned maps."""

    @pytest.mark.parametrize("ident", SHIPPED + ["X"] + SHIPPED_MORPHISMS)
    def test_coproduct_rows_match_public_coproduct(self, ident):
        # row for row and in order; every shipped monoid but X is declared
        # cocommutative, so its primitive rows skip the mirrored
        # decompositions, and a morphism's rows keep every decomposition
        f = get_morphism(ident) if "->" in ident else None
        h = f.source if f else get_hopf(ident)
        for n in range(5 if ident.startswith("Hadamard") else 6):
            I = labelset(n)
            assert coproduct_rows(h, I, f) == rows_from_public_maps(
                h, I, f, skip_mirrors=f is None and h.cocommutative), n

    @pytest.mark.parametrize("ident", SHIPPED)
    def test_key_on_the_wrong_side_is_refused_on_both_paths(self, ident):
        # the key on S names a label of T in place of one of its own, so it
        # interns to a valid structure on the wrong labels
        h = get_hopf(ident)

        def delta(S, T, s):
            old, new = S.labels[0], T.labels[0]
            return tuple(((with_label(x, old, new), y), c)
                         for (x, y), c in h._delta(S, T, s))

        bad = HopfMonoid(h.species, h._mu, delta)
        bad.intern = h.intern
        I = labelset(4)
        S, T, s = next((S, T, s) for S, T in I.decompositions() if S.labels and T.labels
                       for s in h.species.structures(I) if h.coproduct(S, T, s))
        message = r"tensor term \(.*\) " + re.escape("off ambient (%r, %r)" % (S, T))
        with pytest.raises(ValueError, match=message):
            bad.coproduct(S, T, s)
        with pytest.raises(ValueError, match=r"tensor term \(.*\) off ambient"):
            coproduct_rows(bad, I)

    def test_dimensions_read_no_kernel_basis(self, monkeypatch, capsys):
        # dim is columns - rank; the reduced basis is read off the
        # elimination only when a basis is asked for, once per space
        calls = []
        for name in ("kernel", "rref"):
            def counted(self, *args, _name=name, _fn=getattr(Echelon, name)):
                calls.append(_name)
                return _fn(self, *args)
            monkeypatch.setattr(Echelon, name, counted)
        assert primitive_dims(make_Sigma(), 5) == [0, 1, 2, 6, 26, 150]
        assert hker_dims(morphism_L_to_E(), 5) == [1, 0, 1, 2, 9, 44]
        assert cli.run(["primitives", "--species", "Pi", "--max-n", "5"]) == 0
        assert cli.run(["hker-dims", "--morphism", "L->E", "--max-n", "5"]) == 0
        assert calls == []
        space = primitive_space(make_Sigma(), labelset(4))
        assert space.rows() == space.rows() and space.vectors()
        assert calls == ["kernel", "rref"] and space.dim == 26
        assert cli.run(["primitives", "--species", "Pi", "--max-n", "5",
                        "--show-basis"]) == 0
        assert calls.count("kernel") == 1 + 5

    @pytest.mark.parametrize("ident", ["L->E", "E->Pi", "L->Sigma", "Pi->PiS:2"])
    def test_hker_rows_match_public_maps(self, ident):
        f = get_morphism(ident)
        for n in range(5):
            I = labelset(n)
            public = rows_from_public_maps(f.source, I, f)
            src = f.source.species.structures(I)
            by_target: dict = {}
            for j, s in enumerate(src):
                for t, c in f(QVector.basis(s)).items():
                    by_target.setdefault(t, {})[j] = c
            assert coproduct_rows(f.source, I, f) == public, n
            assert f_block(f, I) == matrix_of(f, I) == by_target, n

    @pytest.mark.parametrize("ident", ["L->E", "E->Pi", "L->Sigma", "Pi->PiS:2"])
    def test_last_hker_block_is_the_matrix_of_f(self, ident):
        # S = I comes last in subset order and Delta_{I,empty}(s) = s (x) 1,
        # so the rows end with those of f, in order (at the empty set there
        # is no S = I block, and the unit is never constrained)
        f = get_morphism(ident)
        assert coproduct_rows(f.source, EMPTY, f) == []
        for n in range(1, 5):
            I = labelset(n)
            rows = coproduct_rows(f.source, I, f)
            matrix = list(matrix_of(f, I).values())
            assert rows[len(rows) - len(matrix):] == matrix, n

    def test_hker_rows_refuse_a_source_that_is_not_connected(self, X):
        # the T = empty block asks Delta_{I,empty} for the unit
        f = HopfMorphism("X->X", X, X, lambda s: ((s, 1),))
        with pytest.raises(ValueError, match="X is not connected"):
            hker_space(f, labelset(1))

    def test_repeated_pairs_are_summed_like_the_public_maps(self, L, E):
        # a map may return one output more than once; the rows must hold
        # the sum, as the collected QTensor/QVector do
        def delta(S, T, s):
            return L.coproduct(S, T, s) * 2

        twice = HopfMonoid(L.species, L.product, delta)
        f = HopfMorphism("twice", twice, E,
                         lambda s: ((SingletonMark(s.labels), 1),) * 3)
        I = labelset(3)
        assert coproduct_rows(twice, I) == rows_from_public_maps(twice, I)
        assert coproduct_rows(twice, I, f) == rows_from_public_maps(twice, I, f)
        # Delta_{S,T} is doubled for S, T nonempty; Delta_{I,empty} = s (x) 1
        # is the monoid's own, so that block sums only f's three pairs
        assert {v for row in coproduct_rows(twice, I, f) for v in row.values()} == {6, 3}
        assert f_block(f, I) == {
            t: {j: c for j in range(6)}
            for t, c in f(QVector.basis(LinearOrder(("a", "b", "c")))).items()}

    def test_generator_maps_are_read_once(self, L, E):
        # a map may yield its pairs; the one checked read keeps them for the
        # caller instead of using them up (the rows once saw Delta = 0)
        lazy = HopfMonoid(L.species,
                          lambda S, T, x, y: iter(L.product(S, T, x, y)),
                          lambda S, T, s: (pair for pair in L.coproduct(S, T, s)))
        assert primitive_dims(lazy, 4) == primitive_dims(L, 4) == [0, 1, 1, 2, 6]
        assert check_all(lazy, 3).to_json() == check_all(L, 3).to_json()
        f = HopfMorphism("L->E", lazy, E,
                         lambda s: (pair for pair in ((SingletonMark(s.labels), 1),)))
        assert hker_dims(f, 4) == hker_dims(morphism_L_to_E(L, E), 4)
        assert (check_morphism(f, 3).to_json()
                == check_morphism(morphism_L_to_E(L, E), 3).to_json())

    def test_primitive_dims_build_no_tensor_and_no_memo(self, monkeypatch):
        built = []
        init = QTensor.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(QTensor, "__init__", counting)
        h = make_Sigma()
        assert primitive_dims(h, 5) == [0, 1, 2, 6, 26, 150]
        assert built == []

    def test_outputs_on_equal_label_sets_pass_on_every_path(self, L):
        # the checks compare label tuples: an output whose label set is a
        # distinct FiniteSet object with the same labels lives where it must
        def mu(S, T, x, y):
            return ((LinearOrder(x.seq + y.seq, FiniteSet(S.union(T).labels)), 1),)

        def delta(S, T, s):
            return tuple(((LinearOrder(u.seq, FiniteSet(S.labels)),
                           LinearOrder(w.seq, FiniteSet(T.labels))), c)
                         for (u, w), c in L.coproduct(S, T, s))

        copy = HopfMonoid(L.species, mu, delta)
        S, T = FiniteSet("ac"), FiniteSet("b")
        s = LinearOrder(("b", "a", "c"))
        ((u, w), c), = copy.coproduct(S, T, s)
        assert (u.labels, w.labels) == (S, T) and u.labels is not S
        assert ((u, w), c) == L.coproduct(S, T, s)[0]
        (z, c), = copy.product(S, T, LinearOrder(("c", "a")), LinearOrder("b"))
        assert z == LinearOrder(("c", "a", "b"))
        f = HopfMorphism("copy", L, L,
                         lambda s: ((LinearOrder(s.seq, FiniteSet(s.labels.labels)), 1),))
        (t, c), = f.on_basis(s)
        assert t == s and t.labels == s.labels and t.labels is not s.labels
        assert primitive_dims(copy, 4) == primitive_dims(L, 4)

    def test_off_ambient_pair_is_refused_on_both_paths(self, L):
        a, b, c = LinearOrder("a"), LinearOrder("b"), LinearOrder(("a", "b"))

        def delta(S, T, s):
            return (((c, LinearOrder(tuple(T))), 1),) if len(S) == 1 else (
                L.coproduct(S, T, s))

        bad = HopfMonoid(L.species, L.product, delta)
        S, T = FiniteSet("a"), FiniteSet("bc")
        s = LinearOrder(("a", "b", "c"))
        message = r"tensor term \(a\|b, b\|c\) off ambient \(\{a\}, \{b,c\}\)"
        with pytest.raises(ValueError, match=message):
            bad.coproduct(S, T, s)
        with pytest.raises(ValueError, match=message):
            coproduct_rows(bad, labelset(3))

        def mu(S, T, x, y):
            return ((a, 1),)

        bad = HopfMonoid(L.species, mu, L.coproduct)
        message = r"structure a not on ambient \{a,b\}"
        with pytest.raises(ValueError, match=message):
            bad.product(FiniteSet("a"), FiniteSet("b"), a, b)
        with pytest.raises(ValueError, match=message):
            product_vectors(bad, FiniteSet("a"), FiniteSet("b"),
                            QVector.basis(a), QVector.basis(b))

        f = HopfMorphism("bad", L, L, lambda s: ((a, 1),))
        message = r"structure a not on ambient \{a,b\}"
        with pytest.raises(ValueError, match=message):
            f.on_basis(c)
        with pytest.raises(ValueError, match=message):
            lker_space(f, labelset(2))

    def test_inexact_coefficient_is_refused_on_both_paths(self, L):
        def delta(S, T, s):
            return tuple((key, 0.5) for key, _ in L.coproduct(S, T, s))

        bad = HopfMonoid(L.species, L.product, delta)
        S, T = FiniteSet("a"), FiniteSet("b")
        s = LinearOrder(("a", "b"))
        with pytest.raises(TypeError, match="exact coefficient expected, got 0.5"):
            bad.coproduct(S, T, s)
        with pytest.raises(TypeError, match="exact coefficient expected, got 0.5"):
            coproduct_rows(bad, labelset(2))

    def test_inexact_coefficient_is_refused_by_product_and_morphism(self, L):
        a, b = LinearOrder("a"), LinearOrder("b")

        def mu(S, T, x, y):
            return tuple((z, 0.5) for z, _ in L.product(S, T, x, y))

        bad = HopfMonoid(L.species, mu, L.coproduct)
        with pytest.raises(TypeError, match="exact coefficient expected, got 0.5"):
            bad.product(FiniteSet("a"), FiniteSet("b"), a, b)
        f = HopfMorphism("half", L, L, lambda s: ((s, 0.5),))
        with pytest.raises(TypeError, match="exact coefficient expected, got 0.5"):
            f.on_basis(a)

    def test_bool_and_fraction_coefficients_are_accepted(self, L):
        a, b = LinearOrder("a"), LinearOrder("b")
        S, T = FiniteSet("a"), FiniteSet("b")
        s = LinearOrder(("a", "b"))
        for coeff in (True, Q(1, 2), Q(4, 2)):
            def mu(S, T, x, y):
                return tuple((z, coeff) for z, _ in L.product(S, T, x, y))

            def delta(S, T, s):
                return tuple((key, coeff) for key, _ in L.coproduct(S, T, s))

            h = HopfMonoid(L.species, mu, delta)
            assert h.product(S, T, a, b) == ((s, coeff),)
            assert h.coproduct(S, T, s) == (((a, b), coeff),)
            f = HopfMorphism("scaled", L, L, lambda s: ((s, coeff),))
            assert f.on_basis(s) == ((s, coeff),)

    def test_malformed_coproduct_key_is_refused_as_before(self, L):
        a, b = LinearOrder("a"), LinearOrder("b")

        def delta(S, T, s):
            return (((a, b, a), 1),)

        bad = HopfMonoid(L.species, L.product, delta)
        with pytest.raises(ValueError, match=r"too many values to unpack"):
            bad.coproduct(FiniteSet("a"), FiniteSet("b"), LinearOrder(("a", "b")))

    def test_empty_sides_are_the_unit_identifications(self, Sigma):
        I = FiniteSet("ab")
        s = Sigma.species.structures(I)[0]
        one = Sigma.one()
        assert Sigma.coproduct(EMPTY, I, s) == (((one, s), 1),)
        assert Sigma.coproduct(I, EMPTY, s) == (((s, one), 1),)
        assert Sigma.product(EMPTY, I, one, s) == ((s, 1),)
        assert Sigma.product(I, EMPTY, s, one) == ((s, 1),)


# the key each canonical morphism sends a source structure to
MORPHISM_KEYS = {"L->E": lambda s: s.labels.labels,
                 "E->Pi": lambda s: tuple((t,) for t in s.labels),
                 "L->Sigma": lambda s: tuple((t,) for t in s.seq),
                 "Ek:1->Ek:2": lambda s: s.mapping,
                 "Pi->PiS:2": lambda s: s.blocks}


def products(h, n: int) -> list:
    """Every (S, T, x, y) with S, T nonempty on the first n labels."""
    I = labelset(n)
    return [(S, T, x, y) for S, T in I.decompositions() if S.labels and T.labels
            for x in h.species.structures(S) for y in h.species.structures(T)]


class TestOneTablePerMonoid:
    """mu returns keys as Delta does, and the monoid that owns an output
    interns it: `product` through the monoid's own `intern`, a canonical
    morphism through its target's, so each structure on a label set is one
    object per monoid, whichever map made it."""

    @pytest.mark.parametrize("ident", SHIPPED)
    def test_product_interns_the_keys_of_mu(self, ident):
        h = get_hopf(ident)
        nonzero = 0
        for S, T, x, y in products(h, 4):
            keys = tuple(h._mu(S, T, x, y))
            got = h.product(S, T, x, y)
            assert [c for _, c in got] == [c for _, c in keys]
            assert all(z is h.intern(key) for (z, _), (key, _) in zip(got, keys))
            nonzero += bool(got)
        assert nonzero

    @pytest.mark.parametrize("ident", SHIPPED)
    def test_key_off_the_ambient_is_refused(self, ident):
        # the key of mu names a label outside S u T in place of one of its
        # own, so it interns to a valid structure on the wrong labels
        h = get_hopf(ident)

        def mu(S, T, x, y):
            old = S.union(T).labels[-1]
            return tuple((with_label(z, old, "z"), c) for z, c in h._mu(S, T, x, y))

        bad = HopfMonoid(h.species, mu, h._delta)
        bad.intern = h.intern
        S, T, x, y = next(case for case in products(h, 4) if h.product(*case))
        message = r"structure .* " + re.escape("not on ambient %r" % (S.union(T),))
        with pytest.raises(ValueError, match=message):
            bad.product(S, T, x, y)

    @pytest.mark.parametrize("ident", SHIPPED_MORPHISMS)
    def test_morphism_images_are_the_targets_own(self, ident):
        f = get_morphism(ident)
        key = MORPHISM_KEYS[ident]
        images = 0
        for n in range(5):
            for s in f.source.species.structures(labelset(n)):
                for t, c in f.on_basis(s):
                    assert t is f.target.intern(key(s)) and c == 1
                    images += 1
        assert images

    @pytest.mark.parametrize("ident", SHIPPED_MORPHISMS)
    def test_image_of_a_product_is_the_product_of_images(self, ident):
        # f(x.y) and f(x).f(y) are fetched from the target's one table
        f = get_morphism(ident)
        for S, T, x, y in products(f.source, 4):
            image = [t for z, _ in f.source.product(S, T, x, y) for t, _ in f.on_basis(z)]
            product = [z for u, _ in f.on_basis(x) for w, _ in f.on_basis(y)
                       for z, _ in f.target.product(S, T, u, w)]
            assert len(image) == len(product)
            assert all(a is b for a, b in zip(image, product))


DECLARED = ["E", "L", "Pi", "PiS:2", "Sigma", "Pal", "Ek:2", "Hadamard(L,Pi)"]


def distinct_in_order(rows) -> list:
    """The distinct rows, each as a frozenset of its items, in the order of
    first appearance."""
    return list(dict.fromkeys(frozenset(row.items()) for row in rows))


def twisted_L(L):
    """L with an order-reversing coproduct: a Hopf monoid built directly,
    so undeclared, and not cocommutative from size 3 on."""
    def delta(S, T, s):
        return (((LinearOrder(reversed(s.restrict(S).seq)), s.restrict(T)), 1),)

    return HopfMonoid(L.species, L.product, delta, name="twisted")


class TestCocommutativeDeclaration:
    """The primitive rows skip the mirrored decompositions only for a monoid
    its constructor declares cocommutative; the declaration must hold, and
    the skipped rows must change no kernel."""

    @pytest.mark.parametrize("ident", DECLARED)
    def test_declared_monoids_are_cocommutative(self, ident):
        h = get_hopf(ident)
        assert h.cocommutative is True
        assert check_cocommutative(h, 4).ok

    def test_monoids_built_directly_are_undeclared(self, L, Sigma, X):
        a, b = FiniteSet("a"), FiniteSet("b")
        x, y = Sigma.species.structures(a)[0], Sigma.species.structures(b)[0]
        s = Sigma.species.structures(a.union(b))[0]
        mutants = [mutate_product(Sigma, (x, y), QVector(a.union(b), [(s, 2)])),
                   mutate_coproduct(Sigma, s, ("a",), QTensor(a, b, [])),
                   twisted_L(L), X, hadamard_hopf(L, twisted_L(L))]
        assert [m.cocommutative for m in mutants] == [False] * 5
        assert hadamard_hopf(L, Sigma).cocommutative is True

    def test_twisted_mutant_keeps_every_decomposition(self, L):
        twisted = twisted_L(L)
        assert not check_cocommutative(twisted, 3).ok
        for n in range(5):
            I = labelset(n)
            rows = rows_from_public_maps(twisted, I)
            assert coproduct_rows(twisted, I) == rows, n
            if n:
                m = len(twisted.species.structures(I))
                pivots = sorted(primitive_space(twisted, I)._ech.pivots.items())
                stored = [tuple(Q(row.get(j, 0), row[c]) for j in range(m))
                          for c, row in pivots]
                dense = [[row.get(j, 0) for j in range(m)] for row in rows]
                assert stored == reference_rref(reference_kernel(dense, m), m)[0], n

    # Hadamard(L,Pi) has 6,240 structures at n = 5, where the two rrefs
    # alone take 10 s, so it stops at n = 4
    @pytest.mark.parametrize("ident, nmax", [(ident, 5) for ident in DECLARED[:-1]]
                             + [(DECLARED[-1], 4)])
    def test_mirrored_rows_span_the_full_rows(self, ident, nmax):
        h = get_hopf(ident)
        for n in range(1, nmax + 1):
            I = labelset(n)
            mirrored = coproduct_rows(h, I)
            full = rows_from_public_maps(h, I)
            assert len(full) == 2 * len(mirrored), n
            kept = {frozenset(row.items()) for row in mirrored}
            assert all(frozenset(row.items()) in kept for row in full), n
            # the distinct rows come in the order of their first appearance
            # among all decompositions, so elimination takes the same steps
            assert distinct_in_order(mirrored) == distinct_in_order(full), n
            echelons = [Echelon(), Echelon()]
            for ech, rows in zip(echelons, (mirrored, full)):
                for row in rows:
                    ech.add(row)
            assert echelons[0].rank == echelons[1].rank, n
            assert echelons[0].rref() == echelons[1].rref(), n
