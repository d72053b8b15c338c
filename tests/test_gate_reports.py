"""Replay of recorded gate reports.

`tests/data/gate_reports.json` holds, for every `seq-tests` gate on a fixed
set of sequences, for `series-div` on a few pairs (text and JSON mode), and
for `quotient_nonneg_test` on ogf/egf/tgf pairs, what the program printed
when it was recorded: exit code, stdout length and sha256, full stderr (and
for the library call the full report JSON or the error). Each case replays
here and must print the same bytes.

The one recorded difference that is allowed: the two zero-constant
pre-checks ("denominator sequence starts with 0", "type sequence starts
with 0") were folded into the series division, which says "denominator has
zero constant term".

Regenerate the data only on a deliberate output change:
    PYTHONPATH=src python tests/test_gate_reports.py
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from math import factorial
from pathlib import Path

import pytest

from hopfspecies.cli import run
from hopfspecies.seqtests import DimSequence, quotient_nonneg_test

DATA = Path(__file__).resolve().parent / "data" / "gate_reports.json"

# the only recorded messages that may read differently on replay
ZERO_CONSTANT_CHANGE = {
    "denominator sequence starts with 0": "denominator has zero constant term",
    "type sequence starts with 0": "denominator has zero constant term",
}

SEQUENCES = [
    {"name": "Bell", "a": [1, 1, 2, 5, 15, 52, 203, 877],
     "abar": [1, 1, 2, 3, 5, 7, 11, 15]},
    {"name": "PiPrime", "a": [1, 1, 1, 4, 5, 16, 82, 169, 541],
     "abar": [1, 1, 1, 2, 2, 3, 4, 5, 6]},
    {"name": "Pal", "a": [1, 1, 3, 7, 43, 171, 1581, 8793, 108347]},
    {"name": "factorial", "a": [factorial(n) for n in range(8)], "abar": [1] * 8},
    {"name": "Sigma", "a": [1, 1, 3, 13, 75, 541]},
    {"name": "el", "a": [0, 1, 2, 3, 4, 5, 6]},
    {"name": "PiEven", "a": [1, 0, 1, 0, 4, 0, 31, 0, 274]},
    {"name": "ordexp-fail", "a": [1, 2, 2, 2]},
    {"name": "ordtype-fail", "a": [1, 1, 1], "abar": [2, 2, 2]},
    {"name": "orbit-drop", "a": [1, 1, 1], "abar": [1, 2, 1]},
    {"name": "type-zero", "a": [1, 1, 1], "abar": [0, 1, 1]},
    # unequal lengths: the type-series window spans a and abar of both
    {"name": "short-dims", "a": [1, 1, 2], "abar": [1, 1, 2, 3, 5]},
    {"name": "short-orbits", "a": [1, 1, 2, 5, 15], "abar": [1, 1, 2]},
]

GATES = ["etest", "ltest", "ordexp", "ordtype", "ek:0", "ek:1", "ek:2", "ek:3",
         "eklimit", "supermult", "growth:1", "growth:2", "support"]

DIV_PAIRS = [("1,1,2,5,15,52", "1,1,1,4,5,16"), ("1,1,2,3,5,7,11", "1,1,1,2,2,3,4"),
             ("1,1,3,7,43,171", "1,1,3,13,75,541"), ("1,1,2,6,24", "1,1,1,1,1"),
             ("1,2,2,2", "1,2,2,2"), ("1,1", "0,1")]

QUOTIENT_PAIRS = [(0, 1), (1, 0), (0, 0), (3, 0), (2, 4), (8, 9), (0, 5), (0, 10),
                  (10, 0), (0, 11), (11, 0), (12, 1), (1, 12)]


def cli_cases():
    cases = []
    for seq in SEQUENCES:
        for tests in [None] + GATES:
            argvs = [["seq-tests", "--input", "SEQ"]
                     + (["--tests", tests] if tests else [])]
            if tests in ("ordexp", "ordtype", "ek:2"):
                argvs.append(argvs[0] + ["--order", "2"])
            cases += [{"seq": seq, "argv": fmt + argv}
                      for argv in argvs for fmt in ([], ["--format", "json"])]
    for numer, denom in DIV_PAIRS:
        for kind in ("ogf", "egf"):
            for extra in ([], ["--order", "1"]):
                argv = ["series-div", "--numer", numer, "--denom", denom,
                        "--kind", kind] + extra
                cases += [{"seq": None, "argv": fmt + argv}
                          for fmt in ([], ["--format", "json"])]
    return cases


def library_cases():
    return [{"numer": SEQUENCES[i], "denom": SEQUENCES[j], "kind": kind,
             "order": order}
            for i, j in QUOTIENT_PAIRS for kind in ("ogf", "egf", "tgf")
            for order in (None, 2)]


def run_cli(case, tmpdir) -> dict:
    argv = list(case["argv"])
    if case["seq"] is not None:
        path = Path(tmpdir) / "seq.json"
        path.write_text(json.dumps(case["seq"]))
        argv[argv.index("SEQ")] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    data = out.getvalue().encode()
    return {"exit": code, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(), "stderr": err.getvalue()}


def run_library(case) -> dict:
    numer, denom = (DimSequence.from_json(case[k]) for k in ("numer", "denom"))
    try:
        rep = quotient_nonneg_test(numer, denom, case["kind"], case["order"])
    except (ValueError, ArithmeticError) as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc)}
    return {"report": rep.to_json()}


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        cli = [dict(case, result=run_cli(case, tmpdir)) for case in cli_cases()]
    lib = [dict(case, result=run_library(case)) for case in library_cases()]
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=DATA.parent).stdout.strip()
    return {"recorded_from_commit": commit, "cli": cli, "library": lib}


def allowed(recorded: str) -> str:
    for old, new in ZERO_CONSTANT_CHANGE.items():
        recorded = recorded.replace(old, new)
    return recorded


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


def test_recorded_cases_are_the_current_case_list(recorded):
    def strip(cases):
        return [{k: v for k, v in c.items() if k != "result"} for c in cases]
    assert strip(recorded["cli"]) == cli_cases()
    assert strip(recorded["library"]) == library_cases()


def test_zero_constant_change_is_recorded(recorded):
    # the replacement above is exercised, not just tolerated
    texts = [c["result"]["stderr"] for c in recorded["cli"]]
    texts += [c["result"].get("error", "") for c in recorded["library"]]
    for old in ZERO_CONSTANT_CHANGE:
        assert any(old in text for text in texts), old


def test_cli_replays(recorded, tmp_path):
    mismatches = []
    for case in recorded["cli"]:
        want = dict(case["result"], stderr=allowed(case["result"]["stderr"]))
        got = run_cli(case, tmp_path)
        if got != want:
            mismatches.append((case["argv"], case["seq"], want, got))
    assert not mismatches


def test_quotient_report_replays(recorded):
    mismatches = []
    for case in recorded["library"]:
        want = case["result"]
        if "error" in want:
            want = {"error": allowed(want["error"])}
        got = run_library(case)
        if got != want:
            mismatches.append((case, got))
    assert not mismatches


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    data = record()
    # one case per line, so a deliberate change shows as a readable diff
    lines = ['{"recorded_from_commit": %s,' % json.dumps(data["recorded_from_commit"])]
    for key, end in (("cli", ","), ("library", "")):
        rows = [json.dumps(case, sort_keys=True) for case in data[key]]
        lines.append(' "%s": [\n  %s\n ]%s' % (key, ",\n  ".join(rows), end))
    DATA.write_text("\n".join(lines) + "}\n")
    sys.exit(0)
