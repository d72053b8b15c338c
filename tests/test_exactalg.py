import copy
from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (reference_add, reference_kernel, reference_reduce,
                      reference_rref)
from hopfspecies.exactalg import (BadConstantTerm, CycleIndexPoly, Echelon,
                                  TruncatedSeries, ZeroConstantTerm,
                                  binomial_transform, egf_from_counts,
                                  nonneg_prefix, ogf_from_counts)

BELL = [1, 1, 2, 5, 15, 52]


def inverse_binomial_transform(b) -> list:
    """a_n = sum_i C(n,i) b_{n-i}; inverse of binomial_transform."""
    b = list(b)
    return [sum(comb(n, i) * b[n - i] for i in range(n + 1))
            for n in range(len(b))]
PIPRIME = [1, 1, 1, 4, 5, 16]


def exp_by_powers(a: TruncatedSeries) -> TruncatedSeries:
    # independent oracle: sum a^k / k! term by term
    out = TruncatedSeries.one(a.order)
    power = TruncatedSeries.one(a.order)
    for k in range(1, a.order + 1):
        power = power * a
        out = out + power * Q(1, factorial(k))
    return out


def naive_quotient(num, den, order):
    # independent oracle: solve the convolution for q directly
    q = [Q(0)] * (order + 1)
    for n in range(order + 1):
        acc = Q(num[n]) if n < len(num) else Q(0)
        for i in range(n):
            d = Q(den[n - i]) if n - i < len(den) else Q(0)
            acc -= q[i] * d
        q[n] = acc / Q(den[0])
    return q


class TestSeriesArithmetic:
    def test_binomial_square(self):
        one_plus_x = TruncatedSeries([1, 1], 4)
        assert (one_plus_x * one_plus_x).coeffs[:3] == (1, 2, 1)

    def test_mul_identity(self):
        s = TruncatedSeries([3, Q(1, 7), 0, 2], 3)
        assert s * TruncatedSeries.one(3) == s

    def test_inexact_coefficient_rejected(self):
        # only int and Fraction are exact; a str is not parsed
        for bad in ("1/2", "3", 0.5):
            with pytest.raises(TypeError):
                TruncatedSeries([1, bad], 2)
            with pytest.raises(TypeError):
                CycleIndexPoly({(1,): bad}, 2)

    def test_truncation_to_min_order(self):
        a = TruncatedSeries([1, 1, 1, 1, 1], 4)
        b = TruncatedSeries([1, 2], 1)
        assert (a * b).order == 1
        assert (a + b).order == 1

    def test_submonoid_example_product_roundtrip(self):
        # E of the partition monoid equals the distinct-size part times the
        # quotient, exactly to order 5
        bell = egf_from_counts(BELL)
        pp = egf_from_counts(PIPRIME)
        assert pp * (bell / pp) == bell

    def test_quotient_golden_distinct_block_sizes(self):
        bell = egf_from_counts(BELL)
        pp = egf_from_counts(PIPRIME)
        quot = bell / pp
        assert quot.coeffs == (1, 0, Q(1, 2), Q(-1, 3), Q(1, 2), Q(-11, 30))

    def test_quotient_golden_type_series(self):
        num = ogf_from_counts([1, 1, 2, 3, 5, 7, 11])
        den = ogf_from_counts([1, 1, 1, 2, 2, 3, 4])
        assert (num / den).coeffs == (1, 0, 1, 0, 2, 0, 3)

    def test_self_quotient(self):
        s = TruncatedSeries([2, 5, Q(-1, 3), 7], 3)
        assert (s / s) == TruncatedSeries.one(3)

    def test_division_against_naive_oracle(self):
        num = [1, 4, 9, 16, 25, 36]
        den = [2, 1, 1, 3, 5, 8]
        got = ogf_from_counts(num) / ogf_from_counts(den)
        assert list(got.coeffs) == naive_quotient(num, den, 5)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            TruncatedSeries.one(3) / TruncatedSeries([0, 1], 3)

    def test_nonunit_constant_term_allowed(self):
        num = TruncatedSeries([6, 2], 3)
        den = TruncatedSeries([2, 0], 3)
        assert (num / den).coeffs == (3, 1, 0, 0)


class TestExpLog:
    def test_exp_bell_golden(self):
        expm1 = TruncatedSeries([Q(1, factorial(n)) if n else 0
                                 for n in range(5)], 4)
        assert expm1.exp().coeffs == (1, 1, 1, Q(5, 6), Q(5, 8))

    def test_exp_zero(self):
        assert TruncatedSeries.zero(5).exp() == TruncatedSeries.one(5)

    def test_log_exp_inverse_golden(self):
        s = TruncatedSeries([0, 0, Q(1, 2), Q(1, 6)], 3)
        assert s.exp().log() == s

    def test_exp_matches_power_sum_oracle(self):
        s = TruncatedSeries([0, 1, Q(-1, 2), Q(2, 3), 0, Q(1, 5)], 5)
        assert s.exp() == exp_by_powers(s)

    def test_bad_constant_terms(self):
        with pytest.raises(BadConstantTerm):
            TruncatedSeries([1, 1], 2).exp()
        with pytest.raises(BadConstantTerm):
            TruncatedSeries([0, 1], 2).log()

    @given(st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exp_log_roundtrip_property(self, tail):
        s = TruncatedSeries([0] + tail)
        assert s.exp().log() == s

    @given(st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6),
           st.lists(st.fractions(max_denominator=20), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_mul_div_roundtrip_property(self, a_tail, b_tail):
        a = TruncatedSeries([1] + a_tail)
        b = TruncatedSeries([1] + b_tail)
        n = min(a.order, b.order)
        assert (a * b) / b == a.truncate(n)


class TestNonnegPrefix:
    def test_fail_at_cubic(self):
        quot = egf_from_counts(BELL) / egf_from_counts(PIPRIME)
        rep = nonneg_prefix(quot)
        assert not rep.ok
        assert rep.first_violation == 3
        assert rep.witness["coefficient"] == Q(-1, 3)

    def test_pass_type_quotient(self):
        s = TruncatedSeries([1, 0, 1, 0, 2, 0, 3], 6)
        assert nonneg_prefix(s).ok

    def test_zero_series_passes(self):
        assert nonneg_prefix(TruncatedSeries.zero(4)).ok


class TestBinomialTransform:
    def test_distinct_block_sizes_golden(self):
        a = [1, 1, 1, 4, 5, 16, 82, 169, 541]
        assert binomial_transform(a) == [1, 0, 0, 3, -8, 25, -9, -119, 736]

    def test_constant_sequence(self):
        assert binomial_transform([1] * 6) == [1, 0, 0, 0, 0, 0]

    def test_powers_of_two(self):
        # direct summation oracle: sum C(n,i)(-1)^i 2^(n-i) telescopes to 1
        assert binomial_transform([2 ** n for n in range(8)]) == [1] * 8

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_involution_property(self, a):
        assert inverse_binomial_transform(binomial_transform(a)) == a


class TestCountSeries:
    def test_egf_factorials_geometric(self):
        assert egf_from_counts([1, 1, 2, 6]).coeffs == (1, 1, 1, 1)

    def test_egf_bell(self):
        assert egf_from_counts([1, 1, 2, 5, 15]).coeffs == (1, 1, 1, Q(5, 6), Q(5, 8))

    def test_ogf_unit(self):
        assert ogf_from_counts([1, 0, 0]).coeffs == (1, 0, 0)


class TestCycleIndexPoly:
    def exp_species_prefix(self):
        # Z for the one-structure species, weighted degree <= 3:
        # 1 + x1 + (x1^2/2 + x2/2) + (x1^3/6 + x1 x2/2 + x3/3)
        return CycleIndexPoly({
            (): 1, (1,): 1, (2,): Q(1, 2), (0, 1): Q(1, 2),
            (3,): Q(1, 6), (1, 1): Q(1, 2), (0, 0, 1): Q(1, 3)}, 3)

    def test_specializations_golden(self):
        z = self.exp_species_prefix()
        assert z.specialize("exp").coeffs == (1, 1, Q(1, 2), Q(1, 6))
        assert z.specialize("type").coeffs == (1, 1, 1, 1)

    def test_mul_div_roundtrip(self):
        z = self.exp_species_prefix()
        w = CycleIndexPoly({(): 1, (1,): 2, (0, 1): Q(1, 3)}, 3)
        assert (z * w).div(w) == z

    def test_div_requires_unit_constant(self):
        z = self.exp_species_prefix()
        with pytest.raises(BadConstantTerm):
            z.div(CycleIndexPoly({(1,): 1}, 3))

    def test_specialize_is_ring_homomorphism(self):
        z = self.exp_species_prefix()
        w = CycleIndexPoly({(): 1, (1,): Q(3, 2), (2,): 1, (0, 1): Q(-1, 2)}, 3)
        for mode in ("exp", "type"):
            assert (z * w).specialize(mode) == z.specialize(mode) * w.specialize(mode)

    def test_weighted_truncation(self):
        z = CycleIndexPoly({(0, 0, 0, 1): 1}, 3)  # x4 has weighted degree 4 > 3
        assert z.terms == {}


def sparse(vec) -> dict:
    return {j: v for j, v in enumerate(vec) if v}


def dense_kernel(ech: Echelon, ncols: int) -> list:
    """Echelon.kernel with each sparse vector written out as a tuple."""
    return [tuple(vec.get(j, Q(0)) for j in range(ncols)) for vec in ech.kernel(ncols)]


def echelon_of(rows) -> Echelon:
    ech = Echelon()
    for r in rows:
        ech.add(sparse(r))
    return ech


def apply(rows, vec) -> tuple:
    return tuple(sum(Q(a) * b for a, b in zip(r, vec)) for r in rows)


# a matrix with 1..6 columns and up to 6 rows of small rationals, plus one
# more vector of the same length
entries = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)
matrix_and_vector = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6),
    st.lists(entries, min_size=n, max_size=n)))


# sparse systems of up to 14 rows over 1..30 columns, each row holding at
# most k entries for a drawn k: small k gives sparse rows, k near the column
# count dense ones whose elimination fills in heavily; zero entries included
coefficients = st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=4)
sparse_systems = st.integers(1, 30).flatmap(lambda n: st.integers(1, n).flatmap(
    lambda k: st.lists(st.dictionaries(st.integers(0, n - 1), coefficients,
                                       max_size=k), max_size=14)))


class TestQMatrix:
    """Echelon on dense rational matrices given as row lists, checked
    against the naive Gauss-Jordan reference in conftest."""

    def test_identity(self):
        ech = echelon_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert ech.rank == 3
        assert ech.kernel(3) == []

    def test_zero(self):
        ech = echelon_of([[0] * 5, [0] * 5])
        assert ech.rank == 0
        assert dense_kernel(ech, 5) == reference_kernel([[0] * 5], 5)
        assert len(ech.kernel(5)) == 5

    def test_kernel_vectors_annihilate(self):
        rows = [[1, 2, 3, 1], [2, 4, 6, 2], [0, 1, 1, 0]]
        ech = echelon_of(rows)
        ker = dense_kernel(ech, 4)
        assert len(ker) == 4 - ech.rank
        for v in ker:
            assert apply(rows, v) == (0,) * 3

    def test_kernel_deterministic_reduced_form(self):
        ech = echelon_of([[1, 1, 0], [0, 0, 1]])
        assert dense_kernel(ech, 3) == [(Q(-1), Q(1), Q(0))]
        assert ech.kernel(3) == [{1: 1, 0: -1}]

    def test_span_contains(self):
        ech = echelon_of([[1, 0, 1], [0, 1, 1]])
        assert ech.contains(sparse([2, 3, 5]))
        assert not ech.contains(sparse([0, 0, 1]))

    @given(matrix_and_vector)
    @settings(max_examples=150, deadline=None)
    def test_rank_nullity_property(self, case):
        rows, vec = case
        n = len(vec)
        ech = echelon_of(rows)
        rref, pivots = reference_rref(rows, n)
        assert ech.rank == len(rref)
        in_span = len(reference_rref(rows + [vec], n)[0]) == len(rref)
        assert ech.contains(sparse(vec)) == in_span
        assert all(ech.contains(sparse(r)) for r in rows)
        assert all(all(vec.values()) for vec in ech.kernel(n))
        ker = dense_kernel(ech, n)
        assert ech.rank + len(ker) == n
        for v in ker:
            assert all(x == 0 for x in apply(rows, v))
        assert ker == reference_kernel(rows, n)
        dense_rref = {c: tuple(row.get(j, 0) for j in range(n))
                      for c, row in ech.rref().items()}
        assert dense_rref == dict(zip(pivots, rref))


class TestEchelon:
    def test_exactalg_reexports_the_engine(self):
        from hopfspecies import echelon, exactalg
        assert exactalg.Echelon is echelon.Echelon

    def test_contains_after_adding(self):
        ech = Echelon()
        ech.add({0: 1, 1: 2})
        ech.add({1: 1, 2: 1})
        assert ech.contains({0: 1, 1: 3, 2: 1})
        assert not ech.contains({2: 5, 3: 1})
        assert ech.rank == 2

    def test_kernel_matches_dense(self):
        rows = [{0: 1, 1: 2, 2: 3}, {1: 1, 2: 1}]
        ech = Echelon()
        for row in rows:
            ech.add(row)
        assert dense_kernel(ech, 3) == reference_kernel([[1, 2, 3], [0, 1, 1]], 3)

    def test_fraction_row_scaled_to_integers_on_entry(self):
        ech = Echelon()
        ech.add({0: 2, 1: 4})
        got = ech.reduce({0: Q(1, 2), 1: Q(1, 3), 2: Q(5, 6)})
        assert all(type(v) is int for v in got.values())
        assert got == {1: -4, 2: 5}       # 6 * (row - pivot/2)
        row = {0: 3, 1: -1}
        assert ech.reduce(row) == {1: -7}
        assert row == {0: 3, 1: -1}

    def test_rref_back_substitutes_without_touching_pivots(self):
        ech = Echelon()
        for row in ({0: 2, 1: 3, 2: 1}, {1: 5, 2: 2}, {1: 10, 3: 7}):
            ech.add(row)
        stored = {c: dict(row) for c, row in ech.pivots.items()}
        assert stored[2] == {2: 4, 3: -7}
        got = ech.rref()
        assert got == {0: {0: 1, 3: Q(-7, 40)},
                       1: {1: 1, 3: Q(7, 10)},
                       2: {2: 1, 3: Q(-7, 4)}}
        assert [tuple(got[c].get(j, 0) for j in range(4)) for c in sorted(got)] == (
            reference_rref([[2, 3, 1, 0], [0, 5, 2, 0], [0, 10, 0, 7]], 4)[0])
        assert all(type(v) is Q for row in got.values() for v in row.values())
        assert ech.pivots == stored

    @given(matrix_and_vector)
    @settings(max_examples=150, deadline=None)
    def test_reduce_and_add_leave_their_inputs_alone(self, case):
        # reduce updates a private copy in place; neither the caller's row
        # nor a stored pivot row may change, with int or Fraction entries
        rows, vec = case
        ech = Echelon()
        for r in rows + [vec]:
            row = {j: v for j, v in enumerate(r) if v}
            given_row = dict(row)
            stored = {c: dict(p) for c, p in ech.pivots.items()}
            ech.reduce(row)
            assert row == given_row
            assert ech.pivots == stored
            ech.add(row)
            assert row == given_row
            assert all(ech.pivots[c] == p for c, p in stored.items())

    def test_unit_pivot_reduction_matches_cross_multiplication(self):
        ech = Echelon()
        ech.add({0: 1, 1: 2, 2: 3})          # pivot entry 1: updated in place
        ech.add({1: 3, 2: 1})                # pivot entry 3: scaled first
        assert ech.pivots == {0: {0: 1, 1: 2, 2: 3}, 1: {1: 3, 2: 1}}
        row = {0: 2, 1: 1, 3: 1}
        assert ech.reduce(row) == {2: -15, 3: 3}   # 3*(row - 2*p0) + 3*p1
        assert row == {0: 2, 1: 1, 3: 1}

    @given(sparse_systems)
    @settings(max_examples=150, deadline=None)
    def test_heap_order_matches_the_min_loop(self, rows):
        # the heap only finds the leading column; every reduced row, with
        # its entries in the same order, and every stored pivot row must be
        # what the min(row) loop of conftest gives
        ech, pivots = Echelon(), {}
        for row in rows:
            got = ech.reduce(row)
            assert list(got.items()) == list(reference_reduce(pivots, row).items())
            assert ech.add(row) == reference_add(pivots, row)
            assert ([(c, list(p.items())) for c, p in ech.pivots.items()]
                    == [(c, list(p.items())) for c, p in pivots.items()])

    @given(sparse_systems)
    @settings(max_examples=150, deadline=None)
    def test_rref_and_kernel_leave_the_pivots(self, rows):
        # back-substitution reduces a private copy of each stored row in
        # place, and scales it only by a pivot entry other than 1
        ech = Echelon()
        for row in rows:
            ech.add(row)
        stored = copy.deepcopy(ech.pivots)
        ncols = 1 + max((c for row in rows for c in row), default=0)
        rref = ech.rref()
        assert ech.pivots == stored
        kernel = ech.kernel(ncols)
        assert ech.pivots == stored
        assert len(rref) + len(kernel) == ncols
        assert [tuple(rref[c].get(j, 0) for j in range(ncols)) for c in sorted(rref)] == (
            reference_rref([[row.get(j, 0) for j in range(ncols)] for row in rows],
                           ncols)[0])

    def test_cancelled_column_that_fills_in_again(self):
        # column 2 cancels at the first step and is filled in at the second,
        # so the heap holds it twice; it leads once, where min(row) has it
        ech = Echelon()
        ech.add({0: 1, 2: 1, 3: 1})
        ech.add({1: 1, 2: -1})
        row = {0: 1, 1: 1, 2: 1}
        assert list(ech.reduce(row).items()) == [(3, -1), (2, 1)]
        assert ech.reduce(row) == reference_reduce(ech.pivots, row)

    def test_from_echelon_form_keeps_rows(self):
        # rows that already have distinct leading columns, as the kernel
        # vectors do, go in through add with nothing eliminated: each is
        # only scaled to a gcd-normalized integer row
        ech = Echelon()
        assert ech.add({0: Q(1), 2: Q(-1, 2)}) and ech.add({1: Q(2, 3)})
        assert ech.pivots == {0: {0: 2, 2: -1}, 1: {1: 1}}
        assert ech.contains({0: 4, 1: 5, 2: -2})
        assert not ech.contains({2: 1})


class TestSerialization:
    def test_series_json_roundtrip(self):
        s = TruncatedSeries([1, Q(-1, 3), 0, Q(7, 2)], 5)
        data = s.to_json()
        assert data["order"] == 5
        assert data["coeffs"][1] == "-1/3"
        assert TruncatedSeries.from_json(data) == s
