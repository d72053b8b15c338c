"""The acceptance gate: every numeric claim checked exactly, one criterion
per test, one pass/fail line each (run with -s or look at the -v listing).
All tolerances are exact equality of rationals and integers."""

import sys
from contextlib import contextmanager
from fractions import Fraction as Q
from math import comb, factorial

from conftest import mutate_coproduct, mutate_product
from hopfspecies.axioms import check_all
from hopfspecies.exactalg import TruncatedSeries, egf, egf_from_counts, tgf
from hopfspecies.kernels import (SubspaceBasis, hker_dims, hker_space,
                                 lker_space, primitive_dims, primitive_space)
from hopfspecies.lagrange import (dual_factorization_check,
                                  hker_generated_check, lagrange_quotient_dims,
                                  pbw_series_check)
from hopfspecies.lie import (CyclicOrder, cyclic_orders, derangements,
                             hker_basis_derangement, lie_basis_p, lie_bracket,
                             p_ell_expr)
from hopfspecies.seqtests import (DimSequence, e_test, ek_limit_test, l_test,
                                  ord_exp_test, quotient_nonneg_test,
                                  supermult_test)
from hopfspecies.species import (FiniteSet, FunctionToK, LinearOrder,
                                 PalComposition, SetComposition, SetPartition,
                                 SingletonMark, labelset, orbit_count)
from hopfspecies.structures import (morphism_E_to_Pi, morphism_L_to_E,
                                    morphism_L_to_Sigma, product_vectors)
from hopfspecies.vectors import QTensor, QVector


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print("[FAIL] criterion %d: %s" % (number, text), file=sys.stderr)
        raise
    print("[PASS] criterion %d: %s" % (number, text))


def test_criterion_1_exponential_series_goldens(Pi, PiPrime):
    with criterion(1, "exponential series of partitions, distinct block "
                      "sizes, and their quotient"):
        e_pi = egf(Pi.species, 5)
        assert e_pi.coeffs == (1, 1, 1, Q(5, 6), Q(5, 8), Q(13, 30))
        e_pp = egf(PiPrime, 5)
        assert e_pp.coeffs == (1, 1, Q(1, 2), Q(2, 3), Q(5, 24), Q(2, 15))
        quot = e_pi / e_pp
        assert quot.coeffs == (1, 0, Q(1, 2), Q(-1, 3), Q(1, 2), Q(-11, 30))


def test_criterion_2_type_series_goldens(Pi, PiPrime):
    with criterion(2, "type series prefixes and their quotient"):
        t_pi = tgf(Pi.species, 7)
        assert t_pi.coeffs == (1, 1, 2, 3, 5, 7, 11, 15)
        t_pp = tgf(PiPrime, 7)
        assert t_pp.coeffs == (1, 1, 1, 2, 2, 3, 4, 5)
        assert (t_pi / t_pp).coeffs == (1, 0, 1, 0, 2, 0, 3, 0)


def test_criterion_3_dimension_tables(Pi, PiPrime, Sigma, Pal):
    with criterion(3, "dimension tables and the palindromic orbit count"):
        assert Pi.species.dims(6) == [1, 1, 2, 5, 15, 52, 203]
        assert PiPrime.dims(6) == [1, 1, 1, 4, 5, 16, 82]
        assert Sigma.species.dims(5) == [1, 1, 3, 13, 75, 541]
        assert Pal.species.dims(6) == [1, 1, 3, 7, 43, 171, 1581]
        assert orbit_count(Pal.species, 5) == 4


def test_criterion_4_axiom_suite_and_mutations(E, L, Pi, PiEven, Sigma, Pal,
                                               E2, E3, LxPi):
    with criterion(4, "axiom battery at size four (palindromic also five) "
                      "plus ten detected mutations"):
        for h in (E, L, Pi, PiEven, Sigma, E2, E3, LxPi):
            assert check_all(h, 4).ok, h.name
        assert check_all(Pal, 5).ok

        ls = FiniteSet
        mutants = [
            mutate_product(L, (LinearOrder("a"), LinearOrder("b")),
                           QVector.basis(LinearOrder(("b", "a")))),
            mutate_coproduct(L, LinearOrder(("a", "b", "c")), ("a", "b"),
                             QTensor.basis(LinearOrder(("b", "a")),
                                           LinearOrder("c"))),
            mutate_product(E, (SingletonMark(ls("a")), SingletonMark(ls("b"))),
                           QVector.basis(SingletonMark(ls("ab")), 2)),
            mutate_coproduct(E, SingletonMark(ls("abc")), ("a",),
                             QTensor.zero(ls("a"), ls("bc"))),
            mutate_product(Pi, (SetPartition((("a",),)), SetPartition((("b",),))),
                           QVector.basis(SetPartition((("a", "b"),)))),
            mutate_coproduct(Pi, SetPartition((("a", "b"), ("c",))), ("a", "b"),
                             QTensor.basis(SetPartition((("a",), ("b",))),
                                           SetPartition((("c",),)))),
            mutate_product(Pal, (PalComposition((("a",), ("b",))),
                                 PalComposition((("c",), ("d",)))),
                           QVector.basis(PalComposition(
                               (("a",), ("c",), ("b",), ("d",))))),
            mutate_coproduct(Pal, PalComposition((("a", "b", "c", "d"),)),
                             ("a", "b"), QTensor.zero(ls("ab"), ls("cd"))),
            mutate_product(Sigma, (SetComposition((("a",),)),
                                   SetComposition((("b", "c"),))),
                           QVector.basis(SetComposition((("a", "b", "c"),)))),
            mutate_coproduct(E2, FunctionToK({"a": 1, "b": 2}, 2), ("a",),
                             QTensor.basis(FunctionToK({"a": 2}, 2),
                                           FunctionToK({"b": 2}, 2))),
        ]
        assert len(mutants) == 10
        for mutant in mutants:
            assert not check_all(mutant, 4).ok, mutant.name


def test_criterion_5_sequence_verdicts():
    with criterion(5, "sequence-test verdicts with exact witnesses"):
        piprime = DimSequence("PiPrime", (1, 1, 1, 4, 5, 16, 82, 169, 541))
        bell = DimSequence("Bell", (1, 1, 2, 5, 15, 52, 203, 877))
        pal = DimSequence("Pal", (1, 1, 3, 7, 43, 171, 1581, 8793, 108347))
        el = DimSequence("el", (0, 1, 2, 3, 4, 5))
        fact = DimSequence("factorial", tuple(factorial(n) for n in range(8)))

        rep = e_test(piprime)
        assert (not rep.ok and rep.first_violation == 4
                and rep.witness["b_n"] == -8)
        rep = quotient_nonneg_test(bell, piprime, "egf", order=5)
        assert (not rep.ok and rep.first_violation == 3
                and rep.witness["coefficient"] == Q(-1, 3))
        rep = l_test(pal)
        assert (not rep.ok and rep.first_violation == 3
                and rep.witness["a_n - n*a_{n-1}"] == -2)
        rep = ek_limit_test(el)
        assert (not rep.ok and rep.first_violation == 3
                and rep.witness["a3"] == 3 and rep.witness["3*a2*a1 - 2*a1^3"] == 4)
        assert ord_exp_test(bell).ok
        assert e_test(bell).ok
        assert supermult_test(bell).ok
        rep = l_test(fact)
        assert rep.ok and all(m == 0 for m in rep.details["margins"])


def test_criterion_6_kernels_and_bases(E, L):
    with criterion(6, "primitive and Hopf kernel dimensions and the two "
                      "constructive bases"):
        assert primitive_dims(L, 6) == [0, 1, 1, 2, 6, 24, 120]
        assert primitive_dims(E, 5) == [0, 1, 0, 0, 0, 0]

        f = morphism_L_to_E(L, E)
        got = hker_dims(f, 6)
        expm = TruncatedSeries([Q((-1) ** n, factorial(n)) for n in range(7)], 6)
        geom = TruncatedSeries([1] * 7, 6)
        quot = expm * geom
        assert got == [quot[n] * factorial(n) for n in range(7)]
        assert got == [1, 0, 1, 2, 9, 44, 265]

        gamma_expansion = lie_basis_p(
            CyclicOrder(("b", "a", "c", "d")), LinearOrder("abcd"), L)
        expected = {LinearOrder(w): s for w, s in [
            ("acdb", 1), ("adcb", -1), ("cdab", -1), ("dcab", 1),
            ("bacd", -1), ("badc", 1), ("bcda", 1), ("bdca", -1)]}
        assert gamma_expansion == QVector(labelset(4), expected)

        ell0 = LinearOrder(("s", "m", "i", "t", "e"))
        ell = LinearOrder(("i", "t", "e", "m", "s"))
        assert p_ell_expr(ell, ell0) == "[s,[i,e]]*[m,t]"
        b_ie = lie_bracket(QVector.basis(LinearOrder("i")),
                           QVector.basis(LinearOrder("e")),
                           L, FiniteSet("i"), FiniteSet("e"))
        b_sie = lie_bracket(QVector.basis(LinearOrder("s")), b_ie,
                            L, FiniteSet("s"), FiniteSet("ie"))
        b_mt = lie_bracket(QVector.basis(LinearOrder("m")),
                           QVector.basis(LinearOrder("t")),
                           L, FiniteSet("m"), FiniteSet("t"))
        assert hker_basis_derangement(ell, ell0, L) == product_vectors(
            L, FiniteSet("eis"), FiniteSet("mt"), b_sie, b_mt)

        for n in range(2, 7):
            I = labelset(n)
            ref = LinearOrder(tuple(I))
            prim = primitive_space(L, I)
            span = SubspaceBasis(I, L.species.structures(I))
            for gamma in cyclic_orders(I):
                v = lie_basis_p(gamma, ref, L)
                assert prim.contains(v)
                span.add(v)
            assert span.dim == factorial(n - 1) == prim.dim

            hk = hker_space(f, I)
            span = SubspaceBasis(I, L.species.structures(I))
            for ell_n in derangements(ref):
                v = hker_basis_derangement(ell_n, ref, L)
                assert hk.contains(v)
                span.add(v)
            assert span.dim == hk.dim == got[n]


def test_criterion_7_lagrange_factorizations(E, L, Pi, Sigma):
    with criterion(7, "dimension factorizations for the three canonical "
                      "pairs with series-oracle quotients"):
        e_to_pi = morphism_E_to_Pi(E, Pi)
        q = lagrange_quotient_dims(e_to_pi, 5)
        inner = TruncatedSeries(
            [Q(1, factorial(n)) if n >= 2 else 0 for n in range(6)], 5)
        assert q == [inner.exp()[n] * factorial(n) for n in range(6)]

        l_to_sigma = morphism_L_to_Sigma(L, Sigma)
        q2 = lagrange_quotient_dims(l_to_sigma, 5)
        expx = TruncatedSeries([Q(1, factorial(n)) for n in range(6)], 5)
        thresh = TruncatedSeries([1, -1], 5) / (TruncatedSeries([2], 5) - expx)
        assert q2 == [thresh[n] * factorial(n) for n in range(6)]

        l_to_e = morphism_L_to_E(L, E)
        rep = dual_factorization_check(l_to_e, 5)
        assert rep.ok
        d = rep.details["hker_dims"]
        expm = TruncatedSeries([Q((-1) ** n, factorial(n)) for n in range(6)], 5)
        geom = TruncatedSeries([1] * 6, 5)
        quot = expm * geom
        assert d == [quot[n] * factorial(n) for n in range(6)]
        for n in range(6):
            assert factorial(n) == sum(comb(n, i) * d[n - i]
                                       for i in range(n + 1))


def test_criterion_8_kernel_lemmas(E, L):
    with criterion(8, "Lie kernel inside Hopf kernel, product closure, and "
                      "generation by the Lie kernel"):
        f = morphism_L_to_E(L, E)
        for n in range(1, 5):
            I = labelset(n)
            hk = hker_space(f, I)
            assert all(hk.contains(v) for v in lker_space(f, I).vectors())
        for n in range(2, 5):
            I = labelset(n)
            hk = hker_space(f, I)
            for S, T in I.decompositions():
                if not len(S) or not len(T):
                    continue
                for x in hker_space(f, S).vectors():
                    for y in hker_space(f, T).vectors():
                        assert hk.contains(product_vectors(L, S, T, x, y))
        rep = hker_generated_check(f, 4)
        assert rep.ok and rep.details["hker_dims"] == [1, 0, 1, 2, 9]


def test_criterion_9_pbw_series(E, L, Pi, Sigma):
    with criterion(9, "exp of the primitive series equals the exponential "
                      "series for the cocommutative monoids"):
        for h in (E, L, Pi, Sigma):
            rep = pbw_series_check(h, 5)
            assert rep.ok, h.name
            pdims = rep.details["primitive_dims"]
            assert egf_from_counts(pdims).exp() == egf(h.species, 5)
