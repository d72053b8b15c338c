import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import mark_to_one_block
from hopfspecies import cli, reports
from hopfspecies.cli import run
from hopfspecies.kernels import primitive_dims, primitive_space
from hopfspecies.reports import jsonable
from hopfspecies.species import labelset
from hopfspecies.structures import get_hopf
from hopfspecies.vectors import QVector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_seq(tmp_path, name, a, abar=None):
    payload = {"name": name, "a": list(a)}
    if abar:
        payload["abar"] = list(abar)
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(payload))
    return str(path)


class TestSeqTests:
    def test_distinct_sizes_fails_e_test(self, capsys, tmp_path):
        path = write_seq(tmp_path, "piprime", [1, 1, 1, 4, 5, 16, 82, 169, 541])
        code, out, _ = invoke(capsys, "seq-tests", "--input", path,
                              "--tests", "etest")
        assert code == 1
        assert "fail at index 4" in out and "-8" in out

    def test_bell_passes_default_battery(self, capsys, tmp_path):
        path = write_seq(tmp_path, "bell", [1, 1, 2, 5, 15, 52],
                         abar=[1, 1, 2, 3, 5, 7])
        code, out, _ = invoke(capsys, "seq-tests", "--input", path)
        assert code == 0
        code, out, _ = invoke(capsys, "seq-tests", "--input", path,
                              "--tests", "etest,ek:2,growth:2")
        assert code == 0

    def test_json_format(self, capsys, tmp_path):
        path = write_seq(tmp_path, "pal", [1, 1, 3, 7, 43, 171])
        code, out, _ = invoke(capsys, "--format", "json", "seq-tests",
                              "--input", path, "--tests", "ltest")
        assert code == 1
        payload = json.loads(out)
        assert payload["tool"] == "seq-tests"
        assert payload["verdict"] == "fail"
        assert payload["details"][0]["first_violation"] == 3

    def test_unknown_test_name(self, capsys, tmp_path):
        path = write_seq(tmp_path, "x", [1, 1])
        code, _, err = invoke(capsys, "seq-tests", "--input", path,
                              "--tests", "nope")
        assert code == 2 and "unknown test" in err

    @pytest.mark.parametrize("test", ["ek:x", "growth:x", "ek:", "growth:1.5"])
    def test_malformed_test_parameter_names_the_test(self, capsys, tmp_path, test):
        path = write_seq(tmp_path, "bell", [1, 1, 2, 5, 15, 52])
        code, out, err = invoke(capsys, "seq-tests", "--input", path,
                                "--tests", "etest," + test)
        assert (code, out) == (2, "")
        assert err == "input error: bad test %r: K must be an integer\n" % test

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "seq-tests", "--input", "/nonexistent.json")
        assert code == 2

    def test_ordexp_order_beyond_data_is_input_error(self, capsys, tmp_path):
        # E's own sequence: padding it with zeros used to print a made-up
        # "fail at index 4" certificate
        path = write_seq(tmp_path, "e", [1, 1, 1, 1])
        code, out, err = invoke(capsys, "seq-tests", "--input", path,
                                "--tests", "ordexp", "--order", "6")
        assert code == 2 and out == ""
        assert err == ("input error: order 6 needs terms 0..6, "
                       "but only 0..3 are given\n")
        code, out, _ = invoke(capsys, "seq-tests", "--input", path,
                              "--tests", "ordexp", "--order", "3")
        assert code == 0 and "ord/exp: pass" in out

    def test_ek_order_beyond_data_is_input_error(self, capsys, tmp_path):
        path = write_seq(tmp_path, "e", [1, 1, 1, 1])
        code, out, err = invoke(capsys, "seq-tests", "--input", path,
                                "--tests", "ek:1", "--order", "6")
        assert code == 2 and out == ""
        assert err.startswith("input error: order 6 needs terms 0..6")

    @pytest.mark.parametrize("content", ["[1, 1, 2]", '{"a": null}',
                                         '{"a": [1, 1.5]}', '{"a": [1, "2"]}',
                                         '{"name": "x"}',
                                         '{"a": [1, 1], "abar": [1, 0.5]}'])
    def test_malformed_sequence_file_is_input_error(self, capsys, tmp_path,
                                                     content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        code, out, err = invoke(capsys, "seq-tests", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("input error: ")

    @pytest.mark.parametrize("field,value", [("abar", 0), ("abar", False),
                                             ("abar", ""), ("abar", []),
                                             ("a", [])])
    def test_falsy_or_empty_sequence_is_input_error(self, capsys, tmp_path,
                                                    field, value):
        # only a missing key or null means "no orbit sequence"; a falsy
        # value used to be dropped and the ord/type gate silently skipped
        data = {"name": "x", "a": [1, 1, 2]}
        data[field] = value
        path = tmp_path / "falsy.json"
        path.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "seq-tests", "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        what = "dimension" if field == "a" else "orbit"
        if value == []:
            assert err == ("input error: %s sequence must be a nonempty list "
                           "of integers: []\n" % what)
        else:
            assert err == ("input error: %s sequence must be a list of "
                           "integers: %r\n" % (what, value))

    def test_null_abar_means_absent(self, capsys, tmp_path):
        path = tmp_path / "null.json"
        path.write_text(json.dumps({"name": "x", "a": [1, 1, 2], "abar": None}))
        code, out, _ = invoke(capsys, "seq-tests", "--input", str(path))
        assert code == 0 and "ord/type" not in out

    def test_zero_constant_orbit_sequence_is_input_error(self, capsys, tmp_path):
        path = write_seq(tmp_path, "z", [1, 1, 1], abar=[0, 1, 1])
        code, out, err = invoke(capsys, "seq-tests", "--input", path)
        assert code == 2 and out == ""
        assert err == "input error: denominator has zero constant term\n"


class TestDefaultWindowCap:
    """Without --order the window is the whole sequence, and the series
    division is quadratic in growing Fractions; past the order cap of 32
    the run is refused before any division."""

    MESSAGE = ("usage error: the default window 0..39 exceeds the order cap "
               "32; pass --order N with N <= 32\n")

    def test_long_sequence_file_is_refused_up_front(self, capsys, tmp_path):
        path = write_seq(tmp_path, "ones40", [1] * 40)
        code, out, err = invoke(capsys, "seq-tests", "--input", path)
        assert (code, out, err) == (2, "", self.MESSAGE)
        code, out, _ = invoke(capsys, "seq-tests", "--input", path, "--order", "8")
        assert code == 0 and "ord/exp: pass" in out

    def test_window_at_the_cap_still_runs(self, capsys, tmp_path):
        path = write_seq(tmp_path, "ones33", [1] * 33)
        code, out, err = invoke(capsys, "seq-tests", "--input", path)
        assert (code, err) == (0, "") and "ord/exp: pass" in out

    def test_series_div_is_refused_up_front(self, capsys):
        ones = ",".join(["1"] * 40)
        code, out, err = invoke(capsys, "series-div", "--numer", ones,
                                "--denom", ones)
        assert (code, out, err) == (2, "", self.MESSAGE)
        code, out, _ = invoke(capsys, "series-div", "--numer", ones,
                              "--denom", ones[:65])
        assert code == 0 and out.startswith("quotient = 1\n")


class TestSeriesDiv:
    def test_egf_quotient_fails(self, capsys):
        code, out, _ = invoke(capsys, "series-div",
                              "--numer", "1,1,2,5,15,52",
                              "--denom", "1,1,1,4,5,16", "--kind", "egf")
        assert code == 1
        assert "fail at index 3" in out and "11/30*x^5" in out

    def test_ogf_quotient_passes(self, capsys):
        code, out, _ = invoke(capsys, "series-div",
                              "--numer", "1,1,2,3,5,7,11",
                              "--denom", "1,1,1,2,2,3,4")
        assert code == 0
        assert "x^2" in out and "x^6" in out

    @pytest.mark.parametrize("kind, code, text, coeffs, nonneg", [
        ("ogf", 0, "quotient = 1 + x^2 + 2*x^4 + 3*x^6\nnonneg-prefix: pass\n",
         ["1", "0", "1", "0", "2", "0", "3"],
         {"details": {}, "first_violation": None, "test": "nonneg-prefix",
          "verdict": "pass", "warnings": [], "witness": {}}),
        ("egf", 1, "quotient = 1 + 1/2*x^2 - 1/3*x^3 + 5/24*x^4 - 7/40*x^5"
         " + 3/20*x^6\nnonneg-prefix: fail at index 3 coefficient = -1/3\n",
         ["1", "0", "1/2", "-1/3", "5/24", "-7/40", "3/20"],
         {"details": {}, "first_violation": 3, "test": "nonneg-prefix",
          "verdict": "fail", "warnings": [], "witness": {"coefficient": "-1/3"}}),
    ])
    def test_text_and_json_are_pinned(self, capsys, kind, code, text, coeffs,
                                      nonneg):
        # both forms, byte for byte, for a pass and for a fail verdict
        argv = ("series-div", "--numer", "1,1,2,3,5,7,11",
                "--denom", "1,1,1,2,2,3,4", "--kind", kind)
        assert invoke(capsys, *argv) == (code, text, "")
        report = {"details": [{"nonneg": nonneg,
                               "quotient": {"coeffs": coeffs, "order": 6}}],
                  "tool": "series-div", "verdict": nonneg["verdict"]}
        assert invoke(capsys, "--format", "json", *argv) == (
            code, json.dumps(report, sort_keys=True, indent=2) + "\n", "")

    def test_zero_constant_denominator_is_input_error(self, capsys):
        code, out, err = invoke(capsys, "series-div", "--numer", "1,1",
                                "--denom", "0,1")
        assert code == 2 and out == ""
        assert err == "input error: denominator has zero constant term\n"

    def test_order_beyond_data_is_input_error(self, capsys):
        code, out, err = invoke(capsys, "series-div", "--numer", "1,1,1,1",
                                "--denom", "1,1", "--order", "5")
        assert code == 2 and out == ""
        assert err == ("input error: order 5 needs terms 0..5, "
                       "but only 0..1 are given\n")


    @pytest.mark.parametrize("numer, denom", [("", "1"), ("1", "")])
    def test_empty_list_is_usage_error(self, capsys, numer, denom):
        code, out, err = invoke(capsys, "series-div", "--numer", numer,
                                "--denom", denom)
        assert (code, out) == (2, "")
        assert err == ("usage error: expected a comma-separated integer list:"
                       " ''\n")


class TestSpeciesDims:
    def test_pal_with_types(self, capsys):
        code, out, _ = invoke(capsys, "species-dims", "--species", "Pal",
                              "--max-n", "5", "--types")
        assert code == 0
        assert "171" in out and out.strip().splitlines()[-1].split()[-1] == "4"

    def test_empty_sizes_count_no_orbits(self, capsys):
        # no structure means no orbit, also at n = 9
        code, out, err = invoke(capsys, "species-dims", "--species", "X",
                                "--max-n", "9", "--types")
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["8            0        0",
                                         "9            0        0"]

    def test_types_of_keyless_species_are_counted_past_n_8(self, capsys):
        # pair structures have no orbit key; Burnside on the factors' fixed
        # points counts them at every size up to the cap
        code, out, err = invoke(capsys, "species-dims", "--species",
                                "Hadamard(E,E)", "--max-n", "9", "--types")
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == ["%-3d %10d %8d" % (n, 1, 1)
                                        for n in range(10)]

    def test_json_payload(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "species-dims",
                              "--species", "PiPrime", "--max-n", "6")
        payload = json.loads(out)
        assert payload["details"][0]["dims"] == [1, 1, 1, 4, 5, 16, 82]

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("HOPF_MAX_N", "3")
        code, _, err = invoke(capsys, "species-dims", "--species", "Pi",
                              "--max-n", "6")
        assert code == 2 and "cap" in err

    def test_hard_cap(self, capsys):
        code, _, err = invoke(capsys, "species-dims", "--species", "E",
                              "--max-n", "12")
        assert code == 2


class TestAxiomsAndMorphisms:
    def test_pal_axioms(self, capsys):
        code, out, _ = invoke(capsys, "axioms", "--species", "Pal", "--max-n", "3")
        assert code == 0 and "all axioms hold" in out

    def test_morphism(self, capsys):
        code, out, _ = invoke(capsys, "morphism-check", "--morphism", "L->E",
                              "--max-n", "3")
        assert code == 0

    def test_unknown_species(self, capsys):
        code, _, err = invoke(capsys, "axioms", "--species", "Nope")
        assert code == 2

    @pytest.mark.parametrize("argv, named", [
        (("species-dims", "--species", "PiS:10"), "'PiS:10'"),
        (("axioms", "--species", "Ek:x"), "'Ek:x'"),
        (("species-dims", "--species", "Ek:"), "'Ek:'"),
        (("axioms", "--species", "PiS:2,x"), "'PiS:2,x'"),
        (("morphism-check", "--morphism", "Pi->PiS:10"), "'PiS:10'"),
        (("species-dims", "--species", "Ek:-1"), "'Ek:-1'"),
        (("species-dims", "--species", "PiS:"), "'PiS:'"),
        (("axioms", "--species", "PiS:0"), "'PiS:0'"),
        (("species-dims", "--species", "PiS:-2"), "'PiS:-2'"),
        (("morphism-check", "--morphism", "Ek:-1->Ek:0"), "'Ek:-1'"),
    ])
    def test_malformed_parameter_names_the_identifier(self, capsys, argv, named):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("input error: bad identifier %s: " % named)
        assert "invalid literal" not in err


class TestKernelCommands:
    def test_primitives(self, capsys):
        code, out, _ = invoke(capsys, "primitives", "--species", "L",
                              "--max-n", "4")
        assert code == 0
        assert "[0, 1, 1, 2, 6]" in out

    @pytest.mark.parametrize("species, n", [("X", "0"), ("X", "3"),
                                            ("Hadamard(X,E)", "2")])
    def test_axioms_refuse_non_connected_species(self, capsys, species, n):
        code, out, err = invoke(capsys, "axioms", "--species", species,
                                "--max-n", n)
        assert (code, out) == (2, "")
        assert err == ("input error: %s is not connected: dim at the empty"
                       " set is 0\n" % species)

    def test_primitives_refuses_non_connected_species(self, capsys):
        code, out, err = invoke(capsys, "primitives", "--species", "X",
                                "--max-n", "2")
        assert code == 2 and out == ""
        assert "X is not connected: dim at the empty set is 0" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", ["primitives", "pbw-check"])
    @pytest.mark.parametrize("species", ["X", "Hadamard(X,Pi)"])
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_primitive_commands_refuse_non_connected_at_every_size(
            self, capsys, fmt, command, species, n):
        # primitive_space alone decides the empty set, so the refusal does
        # not wait for a nonempty size
        code, out, err = invoke(capsys, "--format", fmt, command,
                                "--species", species, "--max-n", n)
        assert (code, out, err) == (2, "", "input error: %s is not connected:"
                                    " dim at the empty set is 0\n" % species)

    def test_lie_basis_golden(self, capsys):
        code, out, _ = invoke(capsys, "lie-basis", "--labels", "a,b,c",
                              "--ell0", "a,b,c")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "[a,[b,c]]" in lines[0]
        assert "[[a,c],b]" in lines[1]

    def test_hker_basis_worked_example(self, capsys):
        code, out, _ = invoke(capsys, "hker-basis", "--ell0", "s,m,i,t,e",
                              "--ell", "i,t,e,m,s")
        assert code == 0
        assert "[s,[i,e]]*[m,t]" in out

    def test_hker_basis_enumerates_derangements(self, capsys):
        code, out, _ = invoke(capsys, "hker-basis", "--ell0", "a,b,c,d")
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    @pytest.mark.parametrize("argv", [("hker-basis", "--ell0", ",,"),
                                      ("hker-basis", "--ell0", "a,b", "--ell", ","),
                                      ("lie-basis", "--labels", ",,")])
    def test_empty_label_list_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage error: expected a comma-separated label list")

    def test_hker_dims(self, capsys):
        code, out, _ = invoke(capsys, "hker-dims", "--morphism", "L->E",
                              "--max-n", "5")
        assert code == 0
        assert "[1, 0, 1, 2, 9, 44]" in out

    def test_lagrange_sub(self, capsys):
        code, out, _ = invoke(capsys, "lagrange", "--sub", "E->Pi", "--max-n", "5")
        assert code == 0
        assert "1,0,1,1,4,11" in out

    def test_lagrange_quotient(self, capsys):
        code, out, _ = invoke(capsys, "lagrange", "--quotient", "L->E",
                              "--max-n", "5")
        assert code == 0

    def test_lagrange_needs_exactly_one_mode(self, capsys):
        code, _, err = invoke(capsys, "lagrange", "--max-n", "3")
        assert code == 2

    def test_pbw(self, capsys):
        code, out, _ = invoke(capsys, "pbw-check", "--species", "Sigma",
                              "--max-n", "4")
        assert code == 0

    def test_failed_factorization_is_a_fail_verdict(self, capsys, monkeypatch):
        # an injective map that is not a Hopf morphism fails the check, and
        # the failure is a verdict on stdout, as in --quotient mode
        import hopfspecies.cli as cli

        monkeypatch.setattr(cli, "get_morphism", lambda ident: mark_to_one_block())
        code, out, err = invoke(capsys, "lagrange", "--sub", "E->Pi")
        assert (code, err) == (1, "")
        assert out == ("lagrange-factorization: fail at index 2"
                       " dim h[n] = 2; convolution = 1\n")

    def test_other_assertion_errors_propagate(self, monkeypatch):
        import hopfspecies.lagrange as lagrange

        def broken(f, nmax):
            raise AssertionError("not a verdict")

        monkeypatch.setattr(lagrange, "lagrange_quotient_dims", broken)
        with pytest.raises(AssertionError, match="not a verdict"):
            run(["lagrange", "--sub", "E->Pi"])


class TestDeterminism:
    def test_byte_identical_output(self, capsys, tmp_path):
        path = write_seq(tmp_path, "bell", [1, 1, 2, 5, 15, 52])
        runs = []
        for _ in range(2):
            code, out, _ = invoke(capsys, "--format", "json", "seq-tests",
                                  "--input", path)
            runs.append((code, out))
        assert runs[0] == runs[1]

    def test_json_sorted_keys(self, capsys):
        _, out, _ = invoke(capsys, "--format", "json", "hker-dims",
                           "--morphism", "L->E", "--max-n", "3")
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestTextOnlyInTextMode:
    @pytest.mark.parametrize("argv", [
        ("primitives", "--species", "Sigma", "--max-n", "4", "--show-basis"),
        ("lie-basis", "--labels", "a,b,c,d"),
        ("hker-basis", "--ell0", "a,b,c,d")])
    def test_json_mode_never_renders_vectors(self, capsys, monkeypatch, argv):
        def refuse(self):
            raise AssertionError("a vector was rendered as text")

        monkeypatch.setattr(QVector, "__repr__", refuse)
        code, out, _ = invoke(capsys, "--format", "json", *argv)
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    def test_text_mode_prints_every_basis_vector(self, capsys):
        code, out, _ = invoke(capsys, "primitives", "--species", "Pi",
                              "--max-n", "3", "--show-basis")
        h = get_hopf("Pi")
        expected = ["primitive dimensions of Pi: [0, 1, 1, 1]"]
        for n in (1, 2, 3):
            expected.append("n = %d:" % n)
            expected += ["  %r" % v for v in primitive_space(h, labelset(n)).vectors()]
        assert code == 0 and out == "\n".join(expected) + "\n"


class TestPrimitiveBasisMatchesVectors:
    """`primitives --show-basis` prints each basis from the echelon rows;
    its stdout, in text and in JSON, equals what the QVectors of
    `SubspaceBasis.vectors()` print through `%r` and `QVector.to_json`."""

    CASES = ([("Sigma", n) for n in range(6)]
             + [(name, 4) for name in ("Pi", "Pal", "L", "E", "Ek:0", "Ek:2",
                                       "PiS:2", "Hadamard(L,Pi)")])

    @staticmethod
    def vector_path(species, nmax, fmt):
        h = get_hopf(species)
        dims = primitive_dims(h, nmax)
        bases = [primitive_space(h, labelset(n)).vectors()
                 for n in range(1, nmax + 1)]
        if fmt == "text":
            lines = ["primitive dimensions of %s: %s" % (h.name, dims)]
            for n, vecs in enumerate(bases, 1):
                lines.append("n = %d:" % n)
                lines.extend("  %r" % v for v in vecs)
            return "\n".join(lines) + "\n"
        details = [{"species": h.name, "primitive_dims": dims}]
        details += [{"n": n, "basis": [v.to_json() for v in vecs]}
                    for n, vecs in enumerate(bases, 1)]
        return json.dumps(jsonable({"tool": "primitives", "verdict": "pass",
                                    "details": details}),
                          sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("species, nmax", CASES)
    def test_stdout_equals_vector_rendering(self, capsys, species, nmax, fmt):
        code, out, err = invoke(capsys, "--format", fmt, "primitives",
                                "--species", species, "--max-n", str(nmax),
                                "--show-basis")
        assert (code, err) == (0, "")
        assert out == self.vector_path(species, nmax, fmt)

    def test_text_mode_builds_no_json(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a JSON payload was built in text mode")

        monkeypatch.setattr(QVector, "to_json", refuse)
        monkeypatch.setattr(reports, "_write", refuse)
        monkeypatch.setattr(reports.TermList, "__init__", refuse)
        code, out, _ = invoke(capsys, "primitives", "--species", "Sigma",
                              "--max-n", "4", "--show-basis")
        assert code == 0 and out == self.vector_path("Sigma", 4, "text")


class Recorder:
    """A stdout that keeps only the size of each piece written to it."""

    def __init__(self):
        self.sizes = []

    def write(self, piece):
        self.sizes.append(len(piece))
        return len(piece)

    def flush(self):
        pass


class TestJsonIsWrittenAsItIsWalked:
    """JSON reports go to stdout piece by piece, as text lines do: no
    command holds the whole report's text, and no byte is written before
    every kernel of the report is computed."""

    ARGV = ("primitives", "--species", "Sigma", "--max-n", "5", "--show-basis")

    @staticmethod
    def run_into(recorder, *argv):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "stdout", recorder)
            return run(list(argv))

    def test_no_piece_holds_a_tenth_of_the_report(self):
        recorder = Recorder()
        code = self.run_into(recorder, "--format", "json", *self.ARGV)
        assert code == 0 and sum(recorder.sizes) == 451252
        assert max(recorder.sizes) < 451252 // 10

    def test_json_peaks_with_the_text_form(self):
        import tracemalloc

        def peak(*argv):
            tracemalloc.start()
            try:
                assert self.run_into(Recorder(), *argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a warm-up run of each form, so that imports are not counted
        for fmt in ("json", "text"):
            self.run_into(Recorder(), "--format", fmt, *self.ARGV)
        json_peak = peak("--format", "json", *self.ARGV)
        text_peak = peak("--format", "text", *self.ARGV)
        assert json_peak <= 1.05 * text_peak, (json_peak, text_peak)

    def test_a_failing_kernel_leaves_stdout_empty(self, capsys, monkeypatch):
        # the command computes every size's space, once, along one chain,
        # before it writes; the last of them fails
        import hopfspecies.kernels as kernels_mod
        space = kernels_mod.primitive_space
        asked = Counter()

        def failing_last(h, I, *, chain):
            asked[len(I)] += 1
            if len(I) == 4:
                raise ValueError("kernel failed")
            return space(h, I, chain=chain)

        monkeypatch.setattr(kernels_mod, "primitive_space", failing_last)
        code, out, err = invoke(capsys, "--format", "json", "primitives",
                                "--species", "Sigma", "--max-n", "4",
                                "--show-basis")
        assert asked == {n: 1 for n in range(5)}
        assert (code, out, err) == (2, "", "input error: kernel failed\n")


class TestWritesAreJoinedIntoChunks:
    """`_emit` joins JSON pieces and text lines into writes of about
    CHUNK_CHARS characters, since each write may be a system call, and
    writes what it has joined before an exception leaves it."""

    @pytest.mark.parametrize("fmt, total", [("json", 451252), ("text", 49156)])
    def test_each_write_but_the_last_fills_a_chunk(self, fmt, total):
        recorder = Recorder()
        code = TestJsonIsWrittenAsItIsWalked.run_into(
            recorder, "--format", fmt, *TestJsonIsWrittenAsItIsWalked.ARGV)
        assert code == 0 and sum(recorder.sizes) == total
        assert min(recorder.sizes[:-1]) >= cli.CHUNK_CHARS
        # 2,919 JSON pieces or 191 lines, in writes of a few KB each
        assert len(recorder.sizes) <= total // 4096

    def test_lines_before_an_exception_are_written(self, capsys):
        def lines():
            yield "first"
            yield 2
            raise ValueError("late")

        with pytest.raises(ValueError):
            cli._emit(None, "text", lines())
        assert capsys.readouterr().out == "first\n2\n"

    def test_json_before_an_exception_is_written(self, capsys):
        class Unprintable:
            def __str__(self):
                raise ValueError("late")

        with pytest.raises(ValueError):
            cli._emit({"a": [1, "x"], "b": Unprintable()}, "json", ())
        assert capsys.readouterr().out == '{\n  "a": [\n    1,\n    "x"\n  ],\n  "b": '


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReferenceOutputs:
    """Each benchmark command line, run in-process, prints exactly the bytes
    recorded in perfbench/reference.json, so output drift fails here without
    a benchmark run. The files under perfbench/ are only read."""

    REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_stdout_matches_reference(self, capsys, name):
        workload = _perfbench_workloads().WORKLOADS[name]
        ref = self.REFERENCE[name]
        assert list(workload.argv) == ref["argv"]
        code, out, err = invoke(capsys, *workload.argv)
        data = out.encode()
        assert (code, err) == (0, "")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            ref["bytes"], ref["sha256"])
        assert workload.oracle(out)


class TestTracerInstalls:
    """The traced benchmark run wraps package functions by name, so a rename
    would break only that run. Each workload command line at size 2 runs
    under `perfbench/child.py trace` in a subprocess: it must exit 0, print
    what the untraced CLI prints, and end stderr with a JSON dump. Nothing
    is written under perfbench/."""

    REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_traced_run_matches_untraced(self, capsys, name):
        argv = list(self.REFERENCE[name]["argv"])
        argv[argv.index("--max-n") + 1] = "2"
        code, want, _ = invoke(capsys, *argv)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), "trace"]
                              + argv, capture_output=True, text=True, env=env,
                              timeout=120)
        assert (proc.returncode, code) == (0, 0), proc.stderr
        assert proc.stdout == want
        mark = "perfbench-trace "
        last = proc.stderr.splitlines()[-1]
        assert last.startswith(mark)
        assert isinstance(json.loads(last[len(mark):]), dict)


class TestTracerCountsStreamingPasses:
    """dims_pal's per-layer metrics read the enumerator counter and the
    orbit_count span, since `species-dims` no longer goes through
    SpeciesSpec.structures. Only perfbench/child.py is run; nothing under
    perfbench/ is written."""

    def test_pal_counts_and_orbit_time(self):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), "trace", "species-dims",
             "--species", "Pal", "--max-n", "4", "--types"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        mark = "perfbench-trace "
        last = proc.stderr.splitlines()[-1]
        assert last.startswith(mark)
        dump = json.loads(last[len(mark):])
        assert dump["counts"]["species.structures.count.n4"] == 43
        assert dump["self_s"]["species.orbit_count"] > 0


class TestTracerCountsKernelCoproducts:
    """The kernel rows read Delta on keys, through the monoid's own `delta`,
    which the tracer wraps as `structures.coproduct.miss`; they never call
    `HopfMonoid.coproduct`, the structure-level view the tracer counts as
    `structures.coproduct`. Only perfbench/child.py is run; nothing under
    perfbench/ is written."""

    def test_prim_rows_read_delta_without_coproduct(self):
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "child.py"), "trace", "primitives",
             "--species", "Sigma", "--max-n", "3"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        mark = "perfbench-trace "
        last = proc.stderr.splitlines()[-1]
        assert last.startswith(mark)
        counts = json.loads(last[len(mark):])["counts"]
        # one evaluation per (S, s) with S before its mirror: 1 x 3 at
        # n = 2 and 3 decompositions x 13 compositions at n = 3
        assert counts.get("structures.coproduct", 0) == 0
        assert counts.get("structures.coproduct.miss", 0) == 42


def fresh_env():
    """The environment of a fresh process that imports the package from this
    checkout and writes no bytecode cache."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(
                    [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 2

    # every subcommand once, so that a command whose layers are imported
    # on demand cannot miss one of them unnoticed
    @pytest.mark.parametrize("argv, want", [
        (("axioms", "--species", "Sigma", "--max-n", "2"), 0),
        (("series-div", "--numer", "1,0", "--denom", "1,1"), 1),
        (("axioms", "--species", "Nope"), 2),
        (("seq-tests", "--input", "{seq}"), 0),
        (("species-dims", "--species", "Pal", "--max-n", "3", "--types"), 0),
        (("--format", "json", "species-dims", "--species", "E", "--max-n", "2"), 0),
        (("morphism-check", "--morphism", "L->E", "--max-n", "2"), 0),
        (("primitives", "--species", "L", "--max-n", "3", "--show-basis"), 0),
        (("lie-basis", "--labels", "a,b,c"), 0),
        (("hker-basis", "--ell0", "a,b,c"), 0),
        (("hker-dims", "--morphism", "L->E", "--max-n", "3"), 0),
        (("lagrange", "--sub", "E->Pi", "--max-n", "3"), 0),
        (("lagrange", "--quotient", "L->E", "--max-n", "3"), 0),
        (("pbw-check", "--species", "Sigma", "--max-n", "3"), 0),
    ])
    def test_module_entry_point(self, capsys, tmp_path, argv, want):
        # python -m hopfspecies.cli runs the CLI from a checkout
        seq = write_seq(tmp_path, "bell", [1, 1, 2, 5, 15, 52],
                        abar=[1, 1, 2, 3, 5, 7])
        argv = [arg.replace("{seq}", seq) for arg in argv]
        code, out, err = invoke(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "hopfspecies.cli"] + argv,
                              capture_output=True, text=True, env=fresh_env(),
                              timeout=60)
        assert (proc.returncode, code) == (want, want)
        assert (proc.stdout, proc.stderr) == (out, err)

    def test_bad_flag(self, capsys):
        assert run(["seq-tests", "--nope"]) == 2


class TestLoadsOnlyTheLayersItRuns:
    """A fresh process compiles every module it imports from source when no
    bytecode cache is written, so a command imports only the layers it runs:
    a dimension table never loads the Hopf monoids, vectors (and with them
    `fractions`), series, reports, axiom battery, kernels or sequence gates,
    and a kernel command never the gates, the series layer `exactalg`, the
    Lie bases or the theorem checks, nor (in JSON or in `hker-dims`)
    `dataclasses` and the `inspect` it brings in."""

    # json is imported only after the modules are listed
    PROBE = ("import sys\n"
             "from hopfspecies import cli\n"
             "code = cli.run(sys.argv[1:])\n"
             "modules = sorted(sys.modules)\n"
             "import json\n"
             "print(json.dumps([code, modules]), file=sys.stderr)\n")

    @pytest.mark.parametrize("argv, absent", [
        (("species-dims", "--species", "Pal", "--max-n", "4", "--types"),
         ["hopfspecies.exactalg", "hopfspecies.reports", "hopfspecies.axioms",
          "hopfspecies.seqtests", "hopfspecies.kernels", "json",
          "hopfspecies.structures", "hopfspecies.vectors", "fractions"]),
        (("primitives", "--species", "Sigma", "--max-n", "3", "--show-basis"),
         ["hopfspecies.seqtests", "hopfspecies.exactalg",
          "hopfspecies.lie", "hopfspecies.lagrange"]),
        (("--format", "json", "primitives", "--species", "Sigma", "--max-n", "3",
          "--show-basis"),
         ["hopfspecies.seqtests", "hopfspecies.exactalg", "dataclasses", "inspect",
          "hopfspecies.lie", "hopfspecies.lagrange"]),
        (("hker-dims", "--morphism", "L->E", "--max-n", "3"),
         ["hopfspecies.seqtests", "hopfspecies.exactalg", "dataclasses", "inspect",
          "hopfspecies.lie", "hopfspecies.lagrange"]),
    ])
    def test_command_imports_only_its_layers(self, argv, absent):
        proc = subprocess.run([sys.executable, "-c", self.PROBE] + list(argv),
                              capture_output=True, text=True, env=fresh_env(),
                              timeout=60)
        code, modules = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0
        assert [m for m in absent if m in modules] == []
        assert "hopfspecies.cli" in modules
