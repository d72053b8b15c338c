import json
from fractions import Fraction as Q
from math import factorial

import pytest

from hopfspecies.exactalg import TruncatedSeries, binomial_transform, egf, ogf
from hopfspecies.seqtests import (DimSequence, PreconditionFailed, e_test,
                                  ek_limit_test, ek_test, growth_test, l_test,
                                  ord_exp_test, ord_type_test,
                                  quotient_nonneg_test, supermult_test,
                                  support_test)
from hopfspecies.species import orbit_count

BELL = DimSequence("Bell", (1, 1, 2, 5, 15, 52, 203, 877),
                   abar=(1, 1, 2, 3, 5, 7, 11, 15))
PIPRIME = DimSequence("PiPrime", (1, 1, 1, 4, 5, 16, 82, 169, 541),
                      abar=(1, 1, 1, 2, 2, 3, 4, 5, 6))
PAL = DimSequence("Pal", (1, 1, 3, 7, 43, 171, 1581, 8793, 108347))
FACT = DimSequence("factorial", tuple(factorial(n) for n in range(8)),
                   abar=(1,) * 8)
FUBINI = DimSequence("Sigma", (1, 1, 3, 13, 75, 541))
EL = DimSequence("el", (0, 1, 2, 3, 4, 5, 6))
PIEVEN = DimSequence("PiEven", (1, 0, 1, 0, 4, 0, 31, 0, 274))


def naive_quotient(num, den, order):
    q = [Q(0)] * (order + 1)
    for n in range(order + 1):
        acc = Q(num[n]) if n < len(num) else Q(0)
        for i in range(n):
            d = Q(den[n - i]) if n - i < len(den) else Q(0)
            acc -= q[i] * d
        q[n] = acc / Q(den[0])
    return q


class TestQuotientTest:
    def test_bell_by_distinct_sizes_egf(self):
        rep = quotient_nonneg_test(BELL, PIPRIME, "egf", order=5)
        assert not rep.ok
        assert rep.first_violation == 3
        assert rep.witness["coefficient"] == Q(-1, 3)

    def test_type_quotient_passes(self):
        rep = quotient_nonneg_test(BELL, PIPRIME, "tgf", order=7)
        assert rep.ok
        assert [Q(c) for c in rep.details["quotient"]["coeffs"]] == \
            [1, 0, 1, 0, 2, 0, 3, 0]

    def test_self_quotient(self):
        for kind in ("ogf", "egf"):
            assert quotient_nonneg_test(BELL, BELL, kind).ok


class TestOrdExp:
    def test_bell_passes(self):
        assert ord_exp_test(BELL).ok

    def test_all_ones_is_derangement_quotient(self):
        # oracle: exp(-x)/(1-x), assembled from independently built factors
        ones = DimSequence("ones", (1,) * 9)
        rep = ord_exp_test(ones)
        assert rep.ok
        expm = TruncatedSeries([Q((-1) ** n, factorial(n)) for n in range(9)], 8)
        geom = TruncatedSeries([1] * 9, 8)
        expected = expm * geom
        assert [Q(c) for c in rep.details["quotient"]["coeffs"]] == list(expected.coeffs)

    def test_spec_failure_instance(self):
        # verdict first derived from the brute-force division oracle
        a = (1, 2, 2, 2)
        oracle = naive_quotient(a, [Q(v, factorial(n)) for n, v in enumerate(a)], 3)
        first_neg = min(i for i, c in enumerate(oracle) if c < 0)
        rep = ord_exp_test(DimSequence("x", a))
        assert not rep.ok
        assert rep.first_violation == first_neg == 3
        assert [Q(c) for c in rep.details["quotient"]["coeffs"]] == oracle
        ineq = rep.details["inequalities"][0]
        assert (ineq["lhs"], ineq["rhs"], ineq["holds"]) == (10, 12, False)

    def test_inequalities_match_series_coefficients(self):
        # 6*c3 and 24*c4 of the quotient are exactly the two margins
        for seq in (BELL, DimSequence("g", (1, 2, 5, 14, 43)),
                    DimSequence("h", (1, 3, 9, 28, 90))):
            rep = ord_exp_test(seq)
            quot = [Q(c) for c in rep.details["quotient"]["coeffs"]]
            i1, i2 = rep.details["inequalities"]
            assert 6 * quot[3] == i1["lhs"] - i1["rhs"]
            assert 24 * quot[4] == i2["lhs"] - i2["rhs"]

    def test_requires_connected(self):
        with pytest.raises(PreconditionFailed):
            ord_exp_test(EL)


class TestOrdType:
    def test_partitions_pass(self):
        assert ord_type_test(BELL).ok

    def test_linear_orders_margin(self):
        L = DimSequence("L", tuple(factorial(n) for n in range(6)),
                        abar=(1,) * 6)
        rep = ord_type_test(L)
        assert rep.ok
        got = [Q(c) for c in rep.details["quotient"]["coeffs"]]
        assert got == [1] + [factorial(n) - factorial(n - 1) for n in range(1, 6)]

    def test_crafted_failure(self):
        rep = ord_type_test(DimSequence("y", (1, 1, 1), abar=(1, 2, 1)))
        assert not rep.ok
        assert rep.first_violation == 1
        assert rep.witness["coefficient"] == -1

    def test_non_integer_warning(self):
        rep = ord_type_test(DimSequence("w", (1, 1, 1), abar=(2, 2, 2)))
        assert rep.ok and rep.warnings
        assert Q(rep.details["quotient"]["coeffs"][0]) == Q(1, 2)

    def test_needs_abar(self):
        with pytest.raises(PreconditionFailed):
            ord_type_test(PAL)


class TestETest:
    def test_distinct_sizes_fail_at_four(self):
        rep = e_test(PIPRIME)
        assert not rep.ok
        assert rep.first_violation == 4
        assert rep.witness["b_n"] == -8
        assert rep.details["binomial_transform"] == \
            [1, 0, 0, 3, -8, 25, -9, -119, 736]

    def test_bell_passes(self):
        assert e_test(BELL).ok

    def test_constant_sequence(self):
        rep = e_test(DimSequence("ones", (1,) * 7))
        assert rep.ok
        assert rep.details["binomial_transform"] == [1, 0, 0, 0, 0, 0, 0]

    def test_orbit_descent_fails(self):
        rep = e_test(DimSequence("d", (1, 2, 4, 8), abar=(1, 2, 1, 3)))
        assert not rep.ok and rep.first_violation == 2

    def test_quotient_series_cross_check(self):
        # binomial transform = n! times coefficients of egf(a)/exp(x)
        expx = TruncatedSeries([Q(1, factorial(n)) for n in range(8)], 7)
        a = BELL.a[:8]
        quot = TruncatedSeries([Q(v, factorial(n)) for n, v in enumerate(a)], 7) / expx
        b = binomial_transform(a)
        assert [quot[n] * factorial(n) for n in range(8)] == b


class TestLTest:
    def test_pal_fails_at_three(self):
        rep = l_test(PAL)
        assert not rep.ok
        assert rep.first_violation == 3
        assert rep.witness["a_n - n*a_{n-1}"] == -2
        assert rep.details["margins"][:5] == [0, 1, -2, 15, -44]

    def test_factorials_with_equality(self):
        rep = l_test(FACT)
        assert rep.ok
        assert all(m == 0 for m in rep.details["margins"])

    def test_fubini_passes(self):
        assert l_test(FUBINI).ok

    def test_margin_is_series_coefficient(self):
        # (1 - x) * egf(a) has coefficients (a_n - n a_{n-1}) / n!
        a = FUBINI.a
        one_minus_x = TruncatedSeries([1, -1], len(a) - 1)
        prod = one_minus_x * TruncatedSeries(
            [Q(v, factorial(n)) for n, v in enumerate(a)], len(a) - 1)
        margins = l_test(FUBINI).details["margins"]
        assert [prod[n] * factorial(n) for n in range(1, len(a))] == margins

    def test_orbit_part(self):
        rep = l_test(DimSequence("d", (1, 1, 2, 6), abar=(1, 1, 2, 1)))
        assert not rep.ok and rep.first_violation == 3


class TestEkTests:
    def test_bell_passes_all_k(self):
        for k in range(5):
            assert ek_test(BELL, k).ok

    def test_inequalities_match_series(self):
        for seq in (BELL, DimSequence("f", (1, 3, 11, 49, 257))):
            for k in range(5):
                rep = ek_test(seq, k)
                quot = [Q(c) for c in rep.details["quotient"]["coeffs"]]
                i1, i2 = rep.details["inequalities"]
                assert 2 * quot[2] == i1["lhs"] - i1["rhs"]
                assert 6 * quot[3] == i2["lhs"] - i2["rhs"]

    def test_element_species_fails_limit(self):
        rep = ek_limit_test(EL)
        assert not rep.ok
        assert rep.first_violation == 3
        assert rep.witness["a3"] == 3
        assert rep.witness["3*a2*a1 - 2*a1^3"] == 4

    def test_geometric_boundary(self):
        geo = DimSequence("geo", (1, 3, 9, 27, 81))
        rep = ek_limit_test(geo)
        assert rep.ok
        assert all(i["lhs"] == i["rhs"] for i in rep.details["inequalities"])
        for k in range(4):
            assert ek_test(geo, k).ok

    def test_bell_limit(self):
        assert ek_limit_test(BELL).ok


class TestSupermult:
    def test_bell(self):
        assert supermult_test(BELL).ok

    def test_factorials(self):
        assert supermult_test(FACT).ok

    def test_small_failure(self):
        rep = supermult_test(DimSequence("w", (1, 2, 3)))
        assert not rep.ok
        assert rep.first_violation == 2
        assert rep.witness["a_i*a_j"] == 4

    def test_chained_inequality_on_shipped_sequences(self):
        # when both gates pass, a3 - a2 a1 >= 2 a1 (a2 - a1^2) >= 0
        for seq in (BELL, FACT, FUBINI, PAL,
                    DimSequence("Pal8", PAL.a), PIEVEN):
            if supermult_test(seq).ok and ek_limit_test(seq).ok:
                a = seq.a
                assert a[3] - a[2] * a[1] >= 2 * a[1] * (a[2] - a[1] ** 2) >= 0
                assert a[3] >= a[2] * a[1]


class TestGrowthSupport:
    def test_bell_growth(self):
        rep = growth_test(BELL, 2)
        assert rep.ok

    def test_growth_bound_violation(self):
        rep = growth_test(DimSequence("s", (1, 1, 2, 2, 2, 2, 2)), 2)
        assert not rep.ok
        assert rep.first_violation == 4  # 2 < 2^2

    def test_growth_precondition(self):
        with pytest.raises(PreconditionFailed):
            growth_test(PIEVEN, 1)

    def test_even_support(self):
        rep = support_test(PIEVEN)
        assert rep.ok
        assert rep.details["gcd"] == 2
        assert rep.details["complement_can_be_finite"] is False
        assert rep.details["support_infinite_unless_zero"] is True

    def test_closure_violation(self):
        rep = support_test(DimSequence("z", (1, 0, 1, 1, 0, 0)))
        assert not rep.ok
        assert rep.first_violation == 4

    def test_gcd_one_complement(self):
        rep = support_test(DimSequence("g", (1, 0, 1, 1, 1, 1, 1)))
        assert rep.ok
        assert rep.details["complement_can_be_finite"] is True

    def test_trivial_support(self):
        rep = support_test(DimSequence("t", (1, 0, 0)))
        assert rep.verdict == "inconclusive"


class TestAgainstShippedMonoids:
    """Every shipped monoid's exact dimension data passes every applicable
    gate: the tests never reject a true positive."""

    def dims_of(self, h, nmax=5):
        return DimSequence(h.name,
                           tuple(h.species.dimension(n) for n in range(nmax + 1)),
                           abar=tuple(orbit_count(h.species, n)
                                      for n in range(nmax + 1)))

    def test_all_pass(self, E, L, Pi, Sigma, Pal, E2, PiEven):
        contains_e = {"E", "L", "Pi", "Sigma", "Pal", "Ek:2"}
        contains_l = {"L", "Sigma"}
        for h in (E, L, Pi, Sigma, Pal, E2):
            seq = self.dims_of(h)
            assert ord_exp_test(seq).ok, h.name
            assert ord_type_test(seq).ok, h.name
            assert supermult_test(seq).ok, h.name
            assert ek_limit_test(seq).ok, h.name
            assert support_test(seq).ok, h.name
            for k in range(3):
                assert ek_test(seq, k).ok, (h.name, k)
            if h.name in contains_e:
                assert e_test(seq).ok, h.name
            if h.name in contains_l:
                assert l_test(seq).ok, h.name
        even = self.dims_of(PiEven, 6)
        assert supermult_test(even).ok
        assert support_test(even).ok
        assert ord_exp_test(even).ok

    def test_internal_consistency_ord_exp(self, Pi):
        seq = self.dims_of(Pi)
        assert quotient_nonneg_test(seq, seq, "ogf").ok
        direct = ord_exp_test(seq)
        ogf_series = ogf(Pi.species, 5)
        egf_series = egf(Pi.species, 5)
        assert [Q(c) for c in direct.details["quotient"]["coeffs"]] == \
            list((ogf_series / egf_series).coeffs)

    def test_ord_exp_agrees_with_raw_quotient_verdict(self):
        from hopfspecies.exactalg import (egf_from_counts, nonneg_prefix,
                                          ogf_from_counts)
        for a in ((1, 1, 2, 5, 15), (1, 2, 2, 2), (1, 1, 1, 1, 1),
                  (1, 3, 9, 26, 80), (1, 2, 4, 9, 21)):
            direct = ord_exp_test(DimSequence("s", a))
            raw = nonneg_prefix(ogf_from_counts(a) / egf_from_counts(a))
            assert direct.ok == raw.ok, a
            assert direct.first_violation == raw.first_violation, a


class TestJsonRoundTrip:
    def test_sequence_json(self):
        data = {"name": "Bell", "a": [1, 1, 2, 5], "abar": [1, 1, 2, 3]}
        seq = DimSequence.from_json(data)
        assert seq.to_json() == data

    def test_report_json_exact_strings(self):
        rep = quotient_nonneg_test(BELL, PIPRIME, "egf", order=5)
        payload = rep.to_json()
        json.dumps(payload)
        assert payload["witness"]["coefficient"] == "-1/3"
        assert payload["details"]["quotient"]["coeffs"][3] == "-1/3"
