import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfspecies.cli import run
from hopfspecies.kernels import primitive_space
from hopfspecies.species import QVector, labelset
from hopfspecies.structures import get_hopf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


class TestSpeciesDims:
    def test_pal_with_types(self, capsys):
        code, out, _ = invoke(capsys, "species-dims", "--species", "Pal",
                              "--max-n", "5", "--types")
        assert code == 0
        assert "171" in out and out.strip().splitlines()[-1].split()[-1] == "4"

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


class TestKernelCommands:
    def test_primitives(self, capsys):
        code, out, _ = invoke(capsys, "primitives", "--species", "L",
                              "--max-n", "4")
        assert code == 0
        assert "[0, 1, 1, 2, 6]" in out

    def test_primitives_refuses_non_connected_species(self, capsys):
        code, out, err = invoke(capsys, "primitives", "--species", "X",
                                "--max-n", "2")
        assert code == 2 and out == ""
        assert "X is not connected: dim at the empty set is 0" in err

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


class TestUsage:
    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_bad_flag(self, capsys):
        assert run(["seq-tests", "--nope"]) == 2
