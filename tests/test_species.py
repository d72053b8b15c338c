import itertools
import json
from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orbits_by_relabeling
from hopfspecies import species
from hopfspecies.exactalg import (CycleIndexPoly, cycle_index, egf,
                                  integer_partitions, ogf, tgf)
from hopfspecies.species import (EMPTY, Element, FiniteSet, FunctionToK,
                                 LinearOrder, PalComposition, QTensor, QVector,
                                 SetComposition, SetPartition, SingletonMark,
                                 PairStructure, SpeciesSpec, hadamard,
                                 labelset, orbit_count)
from hopfspecies.structures import get_species


class TestFiniteSet:
    def test_sorted_and_distinct(self):
        s = FiniteSet(["c", "a", "b"])
        assert tuple(s) == ("a", "b", "c")
        with pytest.raises(ValueError):
            FiniteSet(["a", "a"])

    def test_separator_labels_rejected(self):
        for bad in ("a.b", "x|y", "", "a b", "p,q"):
            with pytest.raises(ValueError):
                FiniteSet([bad])

    def test_decompositions_count(self):
        assert sum(1 for _ in labelset(3).decompositions()) == 8
        assert sum(1 for _ in labelset(4).triple_decompositions()) == 81

    def test_union_disjointness(self):
        with pytest.raises(ValueError):
            FiniteSet("ab").union(FiniteSet("bc"))


FIVE = FiniteSet("abcde")


class Block(tuple):
    """A tuple subclass: equal to a plain block, but never stored as one."""


@st.composite
def blocks_on_five(draw):
    """Blocks meant to cover FIVE, as (blocks, form): a set composition with
    its labels shuffled inside each block or each block kept sorted,
    sometimes spoilt by an empty block, a repeated label, a foreign label
    or a missing label. A spoilt sorted block is sorted again, so a label
    repeated across two blocks, a foreign label, a missing label and an
    empty block all reach the mask table; `form` says how `given_as` hands
    the blocks over."""
    labels = list(draw(st.permutations(FIVE.labels)))
    cuts = sorted(draw(st.sets(st.integers(1, 4), max_size=4)))
    blocks = [labels[i:j] for i, j in zip([0] + cuts, cuts + [5])]
    keep_sorted = draw(st.booleans())
    fault = draw(st.sampled_from([None, None, "empty", "repeat", "foreign",
                                  "missing"]))
    at = draw(st.integers(0, len(blocks) - 1))
    if fault == "empty":
        blocks.insert(draw(st.integers(0, len(blocks))), [])
    elif fault == "repeat":
        blocks[at].append(draw(st.sampled_from(FIVE.labels)))
    elif fault == "foreign":
        blocks[at].append(draw(st.sampled_from(["A", "f", "z"])))
    elif fault == "missing":
        blocks[at].pop(draw(st.integers(0, len(blocks[at]) - 1)))
    if keep_sorted:
        blocks = [sorted(b) for b in blocks]
    form = draw(st.sampled_from(["tuple", "tuple", "list", "subclass",
                                 "generator"]))
    return tuple(map(tuple, blocks)), form


def given_as(blocks, form):
    """A fresh copy of the tuple of tuples `blocks` in the given form: as it
    is, with list blocks, with a tuple-subclass first block, or as a
    generator of blocks."""
    if form == "list":
        return tuple(map(list, blocks))
    if form == "subclass":
        return (Block(blocks[0]),) + blocks[1:]
    if form == "generator":
        return (b for b in blocks)
    return blocks


def general_build(cls, blocks, on):
    """The blocks of cls(blocks, on) by the general path alone:
    _canon_blocks, then the palindrome rule where the class has it;
    raises as cls does."""
    out = species._canon_blocks(blocks, on)
    w = tuple(map(len, out))
    if getattr(cls, "palindromic", False) and w != w[::-1]:
        raise ValueError("block sizes %r are not palindromic" % (w,))
    return out


class TestStructures:
    def test_partition_canonical_form(self):
        p = SetPartition((("c", "b"), ("a",)))
        assert p.text() == "a.bc"
        assert p == SetPartition((("a",), ("b", "c")))

    def test_partition_invalid(self):
        with pytest.raises(ValueError):
            SetPartition((("a",), ("a", "b")))
        with pytest.raises(ValueError):
            SetPartition(((),))

    @pytest.mark.parametrize("build, message", [
        (lambda: SetComposition((("a",), ())), "empty block"),
        (lambda: SetPartition(((), ("a", "a"))), "empty block"),
        (lambda: SetPartition((("a", "b"), ("c", "b"))), "blocks are not disjoint at 'b'"),
        (lambda: SetComposition((("a", "c"), ("d", "c", "a"))),
         "blocks are not disjoint at 'a'"),
        (lambda: SetComposition((("b", "b"),)), "blocks are not disjoint at 'b'"),
        (lambda: SetComposition((("a",), ("a",), ())), "blocks are not disjoint at 'a'"),
        (lambda: SetComposition((("a|b",),)),
         "label contains a separator character: 'a|b'"),
        (lambda: SetPartition((("a",), ("x y",))),
         "label contains a separator character: 'x y'"),
        (lambda: FiniteSet(["ok", "é"]), "label must be a nonempty ASCII token: 'é'"),
        (lambda: SetPartition((("a", "ß"),)), "label must be a nonempty ASCII token: 'ß'"),
        (lambda: FiniteSet(["b", "a", "b"]),
         "labels must be pairwise distinct: ('a', 'b', 'b')"),
        (lambda: LinearOrder(("a", "b", "a")), "linear order repeats a label: ('a', 'b', 'a')"),
        (lambda: PalComposition((("a",), ("b", "c"))), "block sizes (1, 2) are not palindromic"),
        (lambda: PalComposition((("a", "b"), ("c",), ("d",))),
         "block sizes (2, 1, 1) are not palindromic"),
    ])
    def test_constructors_refuse_with_their_message(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize("build, message", [
        (lambda I: SetPartition((("a",), ("c",)), I), "blocks miss label 'b' of {a,b,c}"),
        (lambda I: SetComposition((("a", "b"), ("c",), ("z",)), I),
         "label 'z' is not in {a,b,c}"),
        (lambda I: SetPartition((("a", "b"), ("c", "b")), I),
         "blocks are not disjoint at 'b'"),
        (lambda I: SetComposition((("a", "b"), (), ("c",)), I), "empty block"),
        (lambda I: SetComposition((("a", "b"), ("b", "c")), I),
         "blocks are not disjoint at 'b'"),
        (lambda I: SetPartition((("a", "b", "c"), ("z",)), I),
         "label 'z' is not in {a,b,c}"),
        (lambda I: PalComposition((("a",), ("b", "c")), I),
         "block sizes (1, 2) are not palindromic"),
        (lambda I: LinearOrder(("a", "b", "a"), I),
         "linear order repeats a label: ('a', 'b', 'a')"),
        (lambda I: LinearOrder(("a", "b|c"), I),
         "label contains a separator character: 'b|c'"),
        (lambda I: LinearOrder(("c", "z", "a"), I), "linear order c|z|a is not on {a,b,c}"),
        (lambda I: LinearOrder(("c", "a"), I), "linear order c|a is not on {a,b,c}"),
    ])
    def test_building_on_a_label_set_refuses_with_its_message(self, build, message):
        with pytest.raises(ValueError) as err:
            build(FiniteSet("abc"))
        assert str(err.value) == message

    def test_building_on_a_label_set_shares_it(self):
        I = FiniteSet("abc")
        for s in (SetPartition((("c", "b"), ("a",)), I),
                  SetComposition((("c",), ("b", "a")), I),
                  PalComposition((("a",), ("b",), ("c",)), I)):
            assert s.labels is I
            assert s == type(s)(s.blocks) and s.labels == type(s)(s.blocks).labels
        s = LinearOrder(("c", "a", "b"), I)
        assert s.labels is I
        assert s == LinearOrder(s.seq) and s.labels == LinearOrder(s.seq).labels

    @pytest.mark.parametrize("cls", [SetComposition, PalComposition, SetPartition])
    def test_an_unhashable_label_is_a_type_error_on_both_paths(self, cls):
        blocks = (("a",), (["b"],), ("c",))
        for on in (None, FiniteSet("abc")):
            with pytest.raises(TypeError):
                cls(blocks, on)

    @given(blocks_on_five())
    @settings(max_examples=300, deadline=None)
    def test_checked_build_on_a_label_set_is_the_general_path(self, drawn):
        # the one-frame build on FIVE refuses what the general path refuses,
        # with its message, and builds what it builds, sharing FIVE and
        # storing plain tuples; valid sorted tuple blocks are kept as given
        blocks, form = drawn
        for cls in (SetComposition, PalComposition, SetPartition):
            try:
                general_build(cls, given_as(blocks, form), FIVE)
            except ValueError as exc:
                # the constructor and its kind's key check alike
                for build in (cls, cls.check):
                    with pytest.raises(ValueError) as err:
                        build(given_as(blocks, form), FIVE)
                    assert str(err.value) == str(exc)
                continue
            assert cls.check(given_as(blocks, form), FIVE) == cls(
                given_as(blocks, form)).orbit_key()
            given = given_as(blocks, form)
            s, t = cls(given, FIVE), cls(given_as(blocks, form))
            assert s.labels is FIVE and t.labels == FIVE
            assert s._key == t._key and hash(s) == hash(t)
            assert type(s.blocks) is tuple
            assert all(type(b) is tuple for b in s.blocks)
            if form == "tuple" and all(list(b) == sorted(b) for b in blocks):
                assert {id(b) for b in s.blocks} == {id(b) for b in given}
                if cls is not SetPartition:  # a partition reorders its blocks
                    assert all(s.blocks[i] is given[i] for i in range(len(given)))

    def test_composition_order_matters(self):
        assert SetComposition((("a",), ("b",))) != SetComposition((("b",), ("a",)))

    def test_pal_validation(self):
        PalComposition((("a",), ("b", "c"), ("d",)))
        with pytest.raises(ValueError):
            PalComposition((("a",), ("b", "c")))

    def test_function_serialization(self):
        f = FunctionToK({"a": 1, "b": 2}, 2)
        assert f.text() == "a→1,b→2"
        data = f.to_json()
        assert data["kind"] == "function" and data["labels"] == ["a", "b"]

    def test_linear_order_text(self):
        assert LinearOrder("abc").text() == "a|b|c"

    def test_json_wrapper(self):
        p = SetPartition((("a", "b"), ("c",)))
        assert p.to_json() == {"kind": "partition", "labels": ["a", "b", "c"],
                               "value": "ab.c"}

    def test_total_order_is_stable(self):
        xs = [LinearOrder(p) for p in itertools.permutations("abc")]
        assert sorted(xs) == sorted(xs, key=lambda s: s.seq)

    def test_element_requires_membership(self):
        with pytest.raises(ValueError):
            Element(FiniteSet("ab"), "z")


@st.composite
def permutation_pair(draw):
    n = draw(st.integers(1, 5))
    toks = tuple("abcde"[:n])
    sigma = dict(zip(toks, draw(st.permutations(toks))))
    tau = dict(zip(toks, draw(st.permutations(toks))))
    return toks, sigma, tau


class TestFunctoriality:
    @given(permutation_pair())
    @settings(max_examples=40, deadline=None)
    def test_relabel_composes(self, data):
        toks, sigma, tau = data
        I = FiniteSet(toks)
        composed = {t: sigma[v] for t, v in tau.items()}  # sigma o tau
        from hopfspecies.structures import (make_Ek, make_L, make_Pal, make_Pi,
                                            make_Sigma)
        for sp in (make_L().species, make_Pi().species, make_Sigma().species,
                   make_Pal().species, make_Ek(2).species):
            for s in sp.structures(I)[:10]:
                assert s.relabel(composed) == s.relabel(tau).relabel(sigma)

    def test_identity_relabel(self, Pi):
        I = labelset(3)
        ident = {t: t for t in I}
        for s in Pi.species.structures(I):
            assert s.relabel(ident) == s

    def test_dimension_relabel_invariant(self, Pi):
        assert Pi.species.dimension(FiniteSet("xyz")) == Pi.species.dimension(3)


class TestDimensions:
    @pytest.mark.parametrize("ident", ["E", "X", "L", "Pi", "Sigma", "Pal",
                                       "Ek:2", "PiS:2", "Hadamard(L,Pi)",
                                       "PiPrime", "el"])
    def test_memo_is_in_structure_order(self, ident):
        # the memo is sorted on the stored keys, the order of Structure.__lt__
        for n in range(5):
            I = labelset(n)
            sp = get_species(ident)
            assert list(get_species(ident).structures(I)) == sorted(
                sp.build(key, I) for key in sp._enumerator(I)), n

    def test_partition_dims_bell(self, Pi):
        assert Pi.species.dims(6) == [1, 1, 2, 5, 15, 52, 203]

    def test_partition_on_letters(self, Pi):
        assert Pi.species.dimension(FiniteSet("abc")) == 5

    def test_pal_dims(self, Pal):
        assert Pal.species.dims(6) == [1, 1, 3, 7, 43, 171, 1581]

    def test_connectedness_dim(self, E):
        assert E.species.dimension(EMPTY) == 1

    def test_unit_species_ogf(self):
        from hopfspecies.structures import make_Ek
        one = make_Ek(0).species
        assert ogf(one, 4).coeffs == (1, 0, 0, 0, 0)


class TestOrbitCounts:
    def test_pal_five(self, Pal):
        assert orbit_count(Pal.species, 5) == 4

    def test_partitions_are_integer_partitions(self, Pi):
        assert orbit_count(Pi.species, 4) == 5
        assert [orbit_count(Pi.species, n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_linear_orders_transitive(self, L):
        assert all(orbit_count(L.species, n) == 1 for n in range(6))

    def test_burnside_agrees_with_canonicalization(self, Pal, Pi, E2):
        # (1/n!) sum_sigma fix(sigma) must match the orbit count
        for sp in (Pal.species, Pi.species, E2.species):
            for n in range(5):
                I = labelset(n)
                structs = sp.structures(I)
                total = 0
                for img in itertools.permutations(tuple(I)):
                    sigma = dict(zip(tuple(I), img))
                    total += sum(1 for s in structs if s.relabel(sigma) == s)
                assert orbit_count(sp, n) == Q(total, factorial(n))

    def test_keyless_orbits_build_no_pair(self, L, Pi):
        # pair structures carry no orbit key; Burnside multiplies the
        # factors' fixed points, so no pair is stored or even enumerated
        h = hadamard(L.species, Pi.species)
        assert orbit_count(h, 3) == 5  # one orbit per partition shape x 1
        assert h._cache == {} and h._counts == {}

    def test_orbits_of_e_times_pi_are_integer_partitions(self, E, Pi):
        h = hadamard(E.species, Pi.species)
        assert [orbit_count(h, n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]

    def test_a_sum_off_the_group_order_is_refused(self, L, Pi, monkeypatch):
        # a count that only the identity fixes sums to 1 over S_2, which is
        # no orbit count: refused, never rounded down to 0
        def identity_only(sp, I, sigma):
            return int(all(sigma[t] == t for t in I))

        monkeypatch.setattr(species, "fixed_points", identity_only)
        h = hadamard(L.species, Pi.species)
        assert orbit_count(h, 1) == 1
        with pytest.raises(ValueError) as err:
            orbit_count(h, 2)
        assert str(err.value) == ("fixed points of Hadamard(L,Pi) on 2 labels sum"
                                  " to 1, not a multiple of 2!: relabeling is"
                                  " not a group action")

    def test_keyless_species_must_declare_it(self, L, Pi):
        # pair structures have no orbit key: a species of them that does
        # not declare so is refused, not counted by some other invariant
        pairs = SpeciesSpec("pairs", hadamard(L.species, Pi.species).structures)
        with pytest.raises(NotImplementedError) as err:
            orbit_count(pairs, 2)
        assert str(err.value) == "pair structures have no orbit key"


class TestSeries:
    def test_piprime_egf(self, PiPrime):
        assert egf(PiPrime, 4).coeffs == (1, 1, Q(1, 2), Q(2, 3), Q(5, 24))

    def test_piprime_tgf(self, PiPrime):
        assert tgf(PiPrime, 7).coeffs == (1, 1, 1, 2, 2, 3, 4, 5)

    def test_pi_tgf(self, Pi):
        assert tgf(Pi.species, 7).coeffs == (1, 1, 2, 3, 5, 7, 11, 15)

    def test_sigma_egf_is_fubini(self, Sigma):
        got = egf(Sigma.species, 5)
        assert [got[n] * factorial(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]


class TestCycleIndex:
    def burnside_oracle(self, sp, order):
        # direct enumeration over whole symmetric groups, no z_lambda shortcut
        terms = {}
        for n in range(order + 1):
            I = labelset(n)
            structs = sp.structures(I)
            for img in itertools.permutations(tuple(I)):
                sigma = dict(zip(tuple(I), img))
                fix = sum(1 for s in structs if s.relabel(sigma) == s)
                if not fix:
                    continue
                expts = [0] * max(n, 1)
                seen = set()
                for t in I:
                    if t in seen:
                        continue
                    cyc = [t]
                    u = sigma[t]
                    while u != t:
                        cyc.append(u)
                        u = sigma[u]
                    seen.update(cyc)
                    expts[len(cyc) - 1] += 1
                key = tuple(expts) if n else ()
                terms[key] = terms.get(key, Q(0)) + Q(fix, factorial(n))
        return CycleIndexPoly(terms, order)

    def test_exp_species_golden(self, E):
        z = cycle_index(E.species, 3)
        assert z == self.burnside_oracle(E.species, 3)
        assert z.coefficient((1, 1)) == Q(1, 2)
        assert z.coefficient((0, 0, 1)) == Q(1, 3)

    def test_specializations_match_series(self, E, L, Pi, Sigma, Pal, E2, el):
        for sp, order in ((E.species, 6), (L.species, 5), (Pi.species, 6),
                          (Sigma.species, 5), (Pal.species, 6),
                          (E2.species, 5), (el, 6)):
            z = cycle_index(sp, order)
            assert z.specialize("exp") == egf(sp, order), sp.name
            assert z.specialize("type") == tgf(sp, order), sp.name

    def test_exp_specialization_is_exp(self, E):
        z = cycle_index(E.species, 5)
        assert z.specialize("exp").coeffs == tuple(Q(1, factorial(n))
                                                   for n in range(6))

    def test_type_of_linear_orders(self, L):
        z = cycle_index(L.species, 5)
        assert z.specialize("type").coeffs == (1,) * 6

    def test_singleton_species(self, X):
        z = cycle_index(X.species, 3)
        assert z.terms == {(1,): Q(1)}

    def test_burnside_oracle_agreement_more(self, L, Pi):
        for sp in (L.species, Pi.species):
            assert cycle_index(sp, 4) == self.burnside_oracle(sp, 4)

    def test_hadamard_orbits_match_the_oracles(self, E, X, L, Pi, Sigma, Pal):
        # Burnside on the factors' fixed points against the whole-group
        # oracle (n <= 4) and against relabeling every stored pair (n <= 5,
        # or 4 for the 28,132 pairs of Sigma x Pi at n = 5)
        cases = ((hadamard(L.species, Pi.species), 5),
                 (hadamard(Pal.species, Pi.species), 5),
                 (hadamard(Sigma.species, Pi.species), 4),
                 (hadamard(L.species, hadamard(Pi.species, E.species)), 5),
                 (hadamard(X.species, E.species), 5))
        for h, nmax in cases:
            counts = [orbit_count(h, n) for n in range(nmax + 1)]
            assert h._cache == {}, h.name
            z = self.burnside_oracle(h, 4)
            assert cycle_index(h, 4) == z, h.name
            assert list(z.specialize("type").coeffs) == counts[:5], h.name
            assert counts == [orbits_by_relabeling(h, labelset(n))
                              for n in range(nmax + 1)], h.name

class TestHadamard:
    @pytest.mark.parametrize("ident", ["Hadamard(L,Pi)", "Hadamard(E,Pi)",
                                       "Hadamard(Sigma,Pi)"])
    def test_dimension_builds_no_pair(self, ident, monkeypatch):
        # the dimension is the product of the factors' dimensions, so no
        # pair is built to count it; it equals the count of the pairs
        built = []
        init = PairStructure.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(PairStructure, "__init__", counting)
        dims = get_species(ident).dims(4)
        assert built == []
        pairs = [len(get_species(ident).structures(labelset(n))) for n in range(5)]
        assert dims == pairs and len(built) == sum(pairs)

    def test_dimensions_multiply(self, L, Pi):
        h = hadamard(L.species, Pi.species)
        for n in range(5):
            assert h.dimension(n) == factorial(n) * Pi.species.dimension(n)

    def test_unit_up_to_dimension(self, E, Pal):
        h = hadamard(E.species, Pal.species)
        assert h.dims(5) == Pal.species.dims(5)

    def test_orders_twist_egf_to_ogf(self, L, Pi, Pal):
        for sp in (Pi.species, Pal.species):
            h = hadamard(L.species, sp)
            assert egf(h, 5) == ogf(sp, 5)


ABC, AB, CD = FiniteSet("abc"), FiniteSet("ab"), FiniteSet("cd")
ORDERS_ABC = [LinearOrder(p) for p in itertools.permutations("abc")]
PAIRS_AB_CD = [(LinearOrder(p), LinearOrder(q))
               for p in ("ab", "ba") for q in ("cd", "dc")]
EXACT = st.one_of(st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


def naive_sum(pairs) -> dict:
    acc = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c != 0}


class TestVectors:
    def test_zero_coefficients_dropped(self):
        s = SingletonMark(FiniteSet("ab"))
        v = QVector(FiniteSet("ab"), {s: 0})
        assert v.is_zero()

    def test_ambient_enforced(self):
        s = SingletonMark(FiniteSet("ab"))
        with pytest.raises(ValueError):
            QVector(FiniteSet("abc"), {s: 1})

    def test_arithmetic(self):
        a, b = LinearOrder("ab"), LinearOrder("ba")
        v = QVector.basis(a) - QVector.basis(b)
        assert v.terms == {a: 1, b: -1}
        assert (v + QVector.basis(b)).terms == {a: 1}
        assert v.scale(Q(1, 2)).terms[a] == Q(1, 2)

    def test_json(self):
        a, b = LinearOrder("ab"), LinearOrder("ba")
        v = QVector.basis(a).scale(Q(1, 3)) - QVector.basis(b)
        data = v.to_json()
        assert data == {"ambient": ["a", "b"],
                        "terms": [{"structure": "a|b", "coeff": "1/3"},
                                  {"structure": "b|a", "coeff": "-1"}]}
        json.dumps(data)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ORDERS_ABC), EXACT), max_size=12),
           st.lists(st.tuples(st.sampled_from(PAIRS_AB_CD), EXACT), max_size=12))
    def test_pairs_accumulate_like_a_dict(self, vpairs, tpairs):
        for build, pairs in ((lambda t: QVector(ABC, t), vpairs),
                             (lambda t: QTensor(AB, CD, t), tpairs)):
            v = build(pairs)
            assert v.terms == naive_sum(pairs)
            assert build(iter(pairs)) == v
            half = len(pairs) // 2
            head, tail = build(pairs[:half]), build(pairs[half:])
            assert head + tail == v
            assert head - build([(k, -c) for k, c in pairs[half:]]) == v
            assert (v - v).is_zero() and v.scale(0).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ORDERS_ABC), st.integers(-3, 3)),
                    max_size=8),
           st.lists(st.tuples(st.sampled_from(PAIRS_AB_CD), st.integers(-3, 3)),
                    max_size=8))
    def test_int_and_fraction_coefficients_agree(self, vpairs, tpairs):
        for build, pairs in ((lambda t: QVector(ABC, t), vpairs),
                             (lambda t: QTensor(AB, CD, t), tpairs)):
            v, w = build(pairs), build([(k, Q(c)) for k, c in pairs])
            assert v == w and hash(v) == hash(w) and repr(v) == repr(w)
            assert all(type(c) is int for c in v.scale(3).terms.values())

    def test_inexact_coefficient_rejected(self):
        a = LinearOrder("ab")
        for bad in (0.5, 1.0, "1"):
            with pytest.raises(TypeError):
                QVector(FiniteSet("ab"), {a: bad})
            with pytest.raises(TypeError):
                QTensor.basis(LinearOrder("a"), LinearOrder("b"), bad)
        with pytest.raises(TypeError):
            QVector.basis(a).scale(0.5)


class TestIntegerPartitions:
    def test_counts(self):
        assert [sum(1 for _ in integer_partitions(n)) for n in range(8)] == \
            [1, 1, 2, 3, 5, 7, 11, 15]
