import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import check_commutative, mutate_coproduct, mutate_product
from hopfspecies import axioms, cli
from hopfspecies.axioms import (SHIFT_ALPHABET, _bijection_pool, check_all,
                                check_cocommutative, check_comonoid,
                                check_compat, check_connected, check_monoid,
                                check_morphism, check_naturality,
                                is_linearized)
from hopfspecies.species import (SIZE_CAP, FiniteSet, FunctionToK, LinearOrder,
                                 PalComposition, SetComposition, SetPartition,
                                 SingletonMark, get_species, labelset)
from hopfspecies.structures import (HopfMonoid, HopfMorphism, get_hopf,
                                    get_morphism, make_Sigma,
                                    morphism_L_to_Sigma)
from hopfspecies.vectors import QTensor, QVector, summed

REPORTS = Path(__file__).resolve().parent / "data" / "axiom_reports.json"


class TestShippedMonoidsPass:
    @pytest.mark.parametrize("ident", ["E", "L", "Pi", "PiS:2", "Sigma",
                                       "Pal", "Ek:2", "Ek:3"])
    def test_full_battery_size_four(self, ident):
        rep = check_all(get_hopf(ident), 4)
        assert rep.ok, rep.summary()

    def test_hadamard_battery_size_four(self, LxPi):
        rep = check_all(LxPi, 4)
        assert rep.ok, rep.summary()

    def test_pal_battery_size_five(self, Pal):
        rep = check_all(Pal, 5)
        assert rep.ok, rep.summary()

    def test_delta_mu_identity_on_partitions(self, Pi):
        # the compatibility direction used by the supermultiplicativity bound
        rep = check_compat(Pi, 4)
        assert rep.ok

    def test_cocommutativity_table(self, E, Pi, Sigma, E2, L, Pal):
        for h in (E, Pi, Sigma, E2, L, Pal):
            assert check_cocommutative(h, 4).ok, h.name

    def test_commutativity_table(self, E, Pi, Sigma, E2, L, Pal):
        for h in (E, Pi, E2):
            assert check_commutative(h, 4).ok, h.name
        assert not check_commutative(L, 4).ok
        assert not check_commutative(Sigma, 4).ok
        assert not check_commutative(Pal, 4).ok

    def test_linearized_table(self, Pal, LxPi):
        assert is_linearized(Pal, 4).ok
        assert is_linearized(LxPi, 3).ok

    def test_x_fails_connectedness(self, X):
        rep = check_connected(X)
        assert not rep.ok


class TestMorphisms:
    @pytest.mark.parametrize("ident", ["L->E", "E->Pi", "L->Sigma",
                                       "Ek:2->Ek:3", "Pi->PiS:2"])
    def test_shipped_morphisms_pass(self, ident):
        from hopfspecies.structures import get_morphism
        rep = check_morphism(get_morphism(ident), 4)
        assert rep.ok, rep.summary()

    def test_doubling_map_fails(self):
        rep = check_morphism(*morphism_mutants()["doubling_map"])
        assert not rep.ok
        assert any(v.axiom == "unit-preservation" for v in rep.violations)


def _ls(s):
    return FiniteSet(s)


def mutants() -> dict:
    """The ten single-entry corruptions of TestMutationsDetected, by test
    name, each with the size the battery runs at."""
    L, E, Pi, Pal, Sigma, E2 = (get_hopf(ident) for ident in
                                ("L", "E", "Pi", "Pal", "Sigma", "Ek:2"))
    return {
        "L_product_swapped_entry": (mutate_product(
            L, (LinearOrder("a"), LinearOrder("b")),
            QVector.basis(LinearOrder(("b", "a")))), 3),
        "L_coproduct_reversed_entry": (mutate_coproduct(
            L, LinearOrder(("a", "b", "c")), ("a", "b"),
            QTensor.basis(LinearOrder(("b", "a")), LinearOrder("c"))), 3),
        "E_product_doubled": (mutate_product(
            E, (SingletonMark(_ls("a")), SingletonMark(_ls("b"))),
            QVector.basis(SingletonMark(_ls("ab")), 2)), 2),
        "E_coproduct_killed": (mutate_coproduct(
            E, SingletonMark(_ls("abc")), ("a",),
            QTensor.zero(_ls("a"), _ls("bc"))), 3),
        "Pi_product_merged_blocks": (mutate_product(
            Pi, (SetPartition((("a",),)), SetPartition((("b",),))),
            QVector.basis(SetPartition((("a", "b"),)))), 3),
        "Pi_coproduct_split_block": (mutate_coproduct(
            Pi, SetPartition((("a", "b"), ("c",))), ("a", "b"),
            QTensor.basis(SetPartition((("a",), ("b",))),
                          SetPartition((("c",),)))), 3),
        "Pal_product_misordered_entry": (mutate_product(
            Pal, (PalComposition((("a",), ("b",))), PalComposition((("c",), ("d",)))),
            QVector.basis(PalComposition((("a",), ("c",), ("b",), ("d",))))), 4),
        "Pal_coproduct_killed_entry": (mutate_coproduct(
            Pal, PalComposition((("a", "b", "c", "d"),)), ("a", "b"),
            QTensor.zero(_ls("ab"), _ls("cd"))), 4),
        "Sigma_product_merged_entry": (mutate_product(
            Sigma, (SetComposition((("a",),)), SetComposition((("b", "c"),))),
            QVector.basis(SetComposition((("a", "b", "c"),)))), 4),
        "Ek_coproduct_wrong_value": (mutate_coproduct(
            E2, FunctionToK({"a": 1, "b": 2}, 2), ("a",),
            QTensor.basis(FunctionToK({"a": 2}, 2), FunctionToK({"b": 2}, 2))), 2),
    }


def _reads_label_order(s):
    return ((SingletonMark(s.labels),
             2 if s.seq[:2] == tuple(sorted(s.seq[:2])) else 1),)


def morphism_mutants() -> dict:
    """The two faulty morphisms L -> E of the tests, each with its size."""
    L, E = get_hopf("L"), get_hopf("E")
    return {
        "doubling_map": (HopfMorphism(
            "bad", L, E, lambda s: ((SingletonMark(s.labels), 2),)), 2),
        "morphism_reading_label_order": (HopfMorphism(
            "bad", L, E, _reads_label_order), 3),
    }


def recorded_reports() -> dict:
    """What the battery reports on every mutant, as JSON."""
    out = {}
    for name, (bad, nmax) in mutants().items():
        out[name] = check_all(bad, nmax).to_json()
    for name, (bad, nmax) in morphism_mutants().items():
        out[name] = check_morphism(bad, nmax).to_json()
    return out


class TestMutationsDetected:
    """Ten single-entry corruptions of structure maps, each caught."""

    def detected(self, name):
        bad, nmax = mutants()[name]
        return not check_all(bad, nmax).ok

    def test_L_product_swapped_entry(self):
        assert self.detected("L_product_swapped_entry")

    def test_L_coproduct_reversed_entry(self):
        assert self.detected("L_coproduct_reversed_entry")

    def test_E_product_doubled(self):
        assert self.detected("E_product_doubled")

    def test_E_coproduct_killed(self):
        assert self.detected("E_coproduct_killed")

    def test_Pi_product_merged_blocks(self):
        assert self.detected("Pi_product_merged_blocks")

    def test_Pi_coproduct_split_block(self):
        assert self.detected("Pi_coproduct_split_block")

    def test_Pal_product_misordered_entry(self):
        assert self.detected("Pal_product_misordered_entry")

    def test_Pal_coproduct_killed_entry(self):
        assert self.detected("Pal_coproduct_killed_entry")

    def test_Sigma_product_merged_entry(self):
        assert self.detected("Sigma_product_merged_entry")

    def test_Ek_coproduct_wrong_value(self):
        assert self.detected("Ek_coproduct_wrong_value")

    def test_Pal_swapped_final_run(self, Pal):
        # reversing the final run stays inside palindromic compositions only
        # by accident; build the mutant so it emits a plain composition when
        # palindromicity breaks, and catch it at size five
        from hopfspecies.structures import pal_split

        def mu(S, T, x, y):
            xinit, xc, xfin = pal_split(x)
            yinit, yc, yfin = pal_split(y)
            center = tuple(sorted(xc + yc))
            blocks = (xinit + yinit + ((center,) if center else ())
                      + yfin + tuple(reversed(xfin)))
            sizes = tuple(len(b) for b in blocks)
            cls = PalComposition if sizes == sizes[::-1] else SetComposition
            return ((cls(blocks), 1),)

        bad = HopfMonoid(Pal.species, mu, Pal.coproduct, name="mutant(Pal)")
        assert check_all(bad, 4).ok          # invisible below size five
        rep = check_compat(bad, 5)
        assert not rep.ok
        assert rep.violations[0].size == 5


class TestReportShape:
    def test_violation_reports_are_json(self, L):
        bad = mutate_product(
            L, (LinearOrder("a"), LinearOrder("b")),
            QVector.basis(LinearOrder(("b", "a"))))
        rep = check_monoid(bad, 3)
        assert not rep.ok
        data = rep.to_json()
        json.dumps(data)
        assert data["violations"][0]["axiom"]
        assert rep.summary().startswith("mutant(L)")

    def test_coassociativity_witness_prints_exact_terms(self, L):
        # the witness sides print like every other one: signed terms with
        # qstr coefficients, not Python reprs of Fraction tuples
        bad = mutate_coproduct(L, LinearOrder("bac"), ("b",),
                               QTensor.basis(LinearOrder("b"), LinearOrder("ac"), 2))
        rep = check_comonoid(bad, 3)
        assert [v.to_json() for v in rep.violations][:1] == [
            {"axiom": "coassociativity", "size": 3,
             "context": "R={b} S={a} T={c} s=b|a|c",
             "left": "b (x) a (x) c", "right": "2*b (x) a (x) c"}]
        assert rep.summary().endswith(": b (x) a (x) c != 2*b (x) a (x) c")

    def test_merged_reports_sorted(self, L):
        rep = check_monoid(L, 2).merged(check_comonoid(L, 2))
        assert rep.ok and rep.checked_sizes == [0, 1, 2]

    def test_naturality_clean(self, Sigma):
        assert check_naturality(Sigma, 3).ok


class TestNaturalityAlongGenerators:
    """Naturality is checked along the adjacent transpositions and one shift
    onto SHIFT_ALPHABET; maps that read label names are still caught. The
    shift keeps the order of labels, so the first three mutants, which
    compare labels, need the transpositions."""

    @staticmethod
    def axioms(rep):
        return {v.axiom for v in rep.violations}

    def test_product_ordered_by_least_label(self, L):
        def mu(S, T, x, y):
            seq = x.seq + y.seq if min(S) < min(T) else y.seq + x.seq
            return ((LinearOrder(seq), 1),)

        bad = HopfMonoid(L.species, mu, L.coproduct)
        assert self.axioms(check_naturality(bad, 3)) == {"mu-naturality"}

    def test_coproduct_killed_when_least_label_is_right(self, L):
        def delta(S, T, s):
            return () if min(S) > min(T) else L.coproduct(S, T, s)

        bad = HopfMonoid(L.species, L.product, delta)
        assert self.axioms(check_naturality(bad, 3)) == {"delta-naturality"}

    def test_morphism_reading_label_order(self):
        rep = check_morphism(*morphism_mutants()["morphism_reading_label_order"])
        assert "f-naturality" in self.axioms(rep)

    def test_shift_pins_fresh_labels(self, L):
        # correct on every canonical label set; only relabeling onto
        # SHIFT_ALPHABET can expose it
        def mu(S, T, x, y):
            if x.seq[0] in SHIFT_ALPHABET:
                return ((LinearOrder(y.seq + x.seq), 1),)
            return L.product(S, T, x, y)

        bad = HopfMonoid(L.species, mu, L.coproduct, name="mutant(L)")
        rep = check_all(bad, 3)
        assert self.axioms(rep) == {"mu-naturality"}
        assert all("'a': 'p'" in v.context for v in rep.violations)


class TestSizeCap:
    """The CLI's cap, the PiS closure window and the shift's fresh labels
    all derive from species.SIZE_CAP."""

    def test_derived_from_the_cap(self):
        assert cli.HARD_MAX_N == SIZE_CAP
        # recorded naturality violations print the shift onto these labels,
        # "pqrstuvwx" at the cap of 9
        assert SHIFT_ALPHABET == "pqrstuvwxyz"[:SIZE_CAP]
        I = labelset(SIZE_CAP)
        shift = _bijection_pool(I)[-1]
        assert sorted(shift) == list(I.labels)
        assert len(set(shift.values())) == SIZE_CAP
        assert set(shift.values()).isdisjoint(I.labels)
        assert get_species("PiS:1").name == "PiS:" + ",".join(
            str(v) for v in range(1, SIZE_CAP + 1))

    def test_a_cap_without_fresh_labels_fails_at_import(self):
        # reloading axioms under a cap of 12 needs 12 letters from "p" on
        code = ("import importlib, hopfspecies.species as s, hopfspecies.axioms as a\n"
                "s.SIZE_CAP = 12\n"
                "importlib.reload(a)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "ValueError: no 12 fresh labels for the shift bijection" in proc.stderr


def counted(h, calls: Counter, tag: str) -> HopfMonoid:
    """h with every evaluation of its maps counted in `calls`, by the key
    the battery memoizes it under. The maps return h's keys, and the copy
    carries h's `intern`, as a morphism into it interns through."""
    def mu(S, T, x, y):
        calls[(tag, "mu", S.labels, x, y)] += 1
        return h._mu(S, T, x, y)

    def delta(S, T, s):
        calls[(tag, "delta", S.labels, s)] += 1
        return h._delta(S, T, s)
    out = HopfMonoid(h.species, mu, delta, name=h.name)
    out.intern = h.intern
    return out


class TestBatteryMemo:
    """The battery holds the only memo of the structure maps: one per check
    call, dropped when the check returns."""

    @pytest.mark.parametrize("check", [
        check_monoid, check_comonoid, check_compat, check_naturality,
        is_linearized, check_cocommutative, check_commutative])
    def test_each_key_is_evaluated_once_per_check(self, Sigma, check):
        calls = Counter()
        h = counted(Sigma, calls, "Sigma")
        for _ in range(2):
            calls.clear()
            check(h, 3)
            assert calls and max(calls.values()) == 1

    def test_morphism_check_evaluates_each_key_once(self, L, Sigma):
        calls = Counter()
        f = morphism_L_to_Sigma(counted(L, calls, "L"), counted(Sigma, calls, "Sigma"))
        assert check_morphism(f, 3).ok
        assert {key[0] for key in calls} == {"L", "Sigma"}
        assert max(calls.values()) == 1

    def test_battery_leaves_no_map_results_on_the_monoid(self):
        h = make_Sigma()
        attributes = set(vars(h))
        assert check_all(h, 4).ok
        assert set(vars(h)) == attributes == {
            "species", "name", "_mu", "_delta", "intern", "cocommutative"}


def halved(pairs) -> tuple:
    """A map's value with each term (k, c) given as two terms (k, c/2)."""
    return tuple((key, Fraction(c) / 2) for key, c in pairs for _ in range(2))


def halved_monoid(h: HopfMonoid) -> HopfMonoid:
    return HopfMonoid(h.species, lambda S, T, x, y: halved(h.product(S, T, x, y)),
                      lambda S, T, s: halved(h.coproduct(S, T, s)), name=h.name)


class TestSummedFallback:
    """Maps that give each term as two halves make the two sides of a check
    differ as pair sequences while their sums agree; the battery sums such
    sides and reports exactly what it reports on the original maps."""

    @pytest.mark.parametrize("ident", ["L", "Pal"])
    def test_halved_monoid_battery(self, ident):
        h = get_hopf(ident)
        assert check_all(halved_monoid(h), 4).to_json() == check_all(h, 4).to_json()

    def test_halved_morphism(self):
        f = get_morphism("L->Sigma")
        g = HopfMorphism(f.name, halved_monoid(f.source), halved_monoid(f.target),
                         lambda s: halved(f.on_basis(s)))
        assert check_morphism(g, 4).to_json() == check_morphism(f, 4).to_json()

    def test_only_differing_sides_are_summed(self, Pal, monkeypatch):
        calls = []

        def counting(pairs):
            calls.append(pairs)
            return summed(pairs)

        monkeypatch.setattr(axioms, "summed", counting)
        assert check_compat(Pal, 3).ok and not calls
        assert check_compat(halved_monoid(Pal), 3).ok and calls


class TestRecordedReports:
    """Replay of `tests/data/axiom_reports.json`: the battery's report on
    each mutant, violations and witness text included, as recorded.

    Regenerate the data only on a deliberate output change:
        PYTHONPATH=src python tests/test_axioms.py
    """

    def test_reports_replay(self):
        assert recorded_reports() == json.loads(REPORTS.read_text())


if __name__ == "__main__":
    REPORTS.write_text(json.dumps(recorded_reports(), indent=1, sort_keys=True) + "\n")
