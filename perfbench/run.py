"""perfbench: end-to-end and per-layer benchmark of the hopfspecies CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` for every workload
in one run. Run it from anywhere; it imports the package from the `src/`
directory next to this one and touches nothing outside the checkout.

Every timed sample is one CLI invocation (`hopfspecies.cli.run`) in a fresh
Python process, one at a time, single-threaded (`--jobs` stays 1). Caches
start cold in each process, as they do for a user: `get_hopf` and
`get_morphism` build new monoids with empty memo tables, and the id-keyed
module caches in `kernels` could otherwise serve one repeat's result to
the next. Only the bytecode cache is warmed, by one untimed probe per
workload before measuring.

--trace 0 runs rounds until the next one would end after S seconds. A round
holds one timed invocation and SETUP_PROBES set-up probes per workload, in
an order drawn from the seed, each one between two runs of a fixed Fraction
calibration loop. It reports per workload the medians of
  wall_ref_s   seconds per invocation, from process start to reaping it
  cpu_ref_s    the child's user + system seconds
  peak_rss_mb  the child's maximum resident set, from wait4
  setup_s      seconds for a probe that starts the interpreter, imports
               hopfspecies.cli, parses the arguments and builds the monoid,
               morphism or species, without computing.
The times are at the reference host speed: each is multiplied by
REF_CALIBRATION_S over the mean of the calibration times around it. On a
shared host whose speed changes by up to half for minutes at a time, moving
the calibration loop and the program alike, raw medians of runs minutes
apart disagree by more than any useful bound; these disagree far less. The
calibration loop depends on nothing in hopfspecies, so a change to the
program moves these times as much as the raw ones. The raw times are
printed too, as wall_s, cpu_s and setup_wall_s.
--trace 1 runs every workload once traced, so that every per-layer metric
is measured in every traced run, and the run's own workload once untraced,
in seed order. It reports the per-layer metrics of each workload and the
tracing overhead of the run's own workload: traced minus untraced wall
seconds of one pair, so host noise shows in it.

Every invocation must exit 0 with stdout equal, byte for byte, to the
reference recorded from the unchanged program, and pass an oracle that does
not depend on that reference; a probe must exit 0 and print nothing. A
miss counts as failed, and failed / attempted is the fail ratio. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Host facts and every calibration time are printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from child import TRACE_MARK
from workloads import (WORKLOADS, layer_unit, layer_values, load_reference,
                       matches_reference, module_self_times)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 1
CALIBRATION_TERMS = 8000
# calibration seconds that define the reference host speed; about what the
# loop takes on an idle 2-vCPU Xeon host with Python 3.11
REF_CALIBRATION_S = 0.05
CHILD_TIMEOUT_S = 120


class Invocation:
    def __init__(self, code: int, out: bytes, err: bytes, wall: float,
                 cpu: float, rss_mb: float):
        self.code = code
        self.out = out
        self.err = err
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb


def invoke(args: list) -> Invocation:
    """Run child.py with `args` in its own process and wait for it."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")] + args,
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    try:
        watchdog.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return Invocation(os.waitstatus_to_exitcode(status), out, err[0], wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def calibrate() -> float:
    """Seconds for a fixed Fraction loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIBRATION_TERMS + 1):
        acc += Fraction(1, i)
    return time.perf_counter() - t0


def at_ref(seconds: float, calibration: float) -> float:
    """`seconds` measured between calibration loops that took
    `calibration` seconds on average, as seconds at the reference host
    speed."""
    return seconds * REF_CALIBRATION_S / calibration


class Checker:
    """Counts invocations and the ones whose exit code or output is wrong."""

    def __init__(self):
        self.reference = load_reference()
        for w in WORKLOADS.values():
            if self.reference[w.name]["argv"] != w.argv:
                raise SystemExit("perfbench: reference.json was recorded for "
                                 "other arguments of %s" % w.name)
        self.attempted = 0
        self.failed = 0

    def _fail(self, what: str, inv: Invocation) -> None:
        self.failed += 1
        tail = inv.err.decode(errors="replace").strip().splitlines()[-3:]
        print("perfbench: FAILED %s (exit %d) %s" % (what, inv.code, " | ".join(tail)),
              file=sys.stderr)

    def run(self, w, inv: Invocation) -> None:
        self.attempted += 1
        if inv.code != 0:
            self._fail(w.name, inv)
        elif not matches_reference(self.reference[w.name], inv.out):
            self._fail("%s: stdout differs from the reference" % w.name, inv)
        else:
            try:
                ok = w.oracle(inv.out.decode())
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
            if not ok:
                self._fail("%s: oracle rejects the output" % w.name, inv)

    def probe(self, w, inv: Invocation) -> None:
        self.attempted += 1
        if inv.code != 0 or inv.out:
            self._fail("%s set-up probe" % w.name, inv)


def setup_args(w) -> list:
    return ["setup", w.setup[0], w.setup[1]] + w.argv


def measure(workloads: list, rng: random.Random, seconds: float,
            checker: Checker) -> tuple:
    """Timed rounds until the next one, taking as long as the mean round so
    far, would end after `seconds`. Runs and probes are lists of
    (invocation, mean of the calibration times just before and after it)."""
    runs = {w.name: [] for w in workloads}
    probes = {w.name: [] for w in workloads}
    calibration = [calibrate()]
    steps = ([("run", w) for w in workloads]
             + [("setup", w) for w in workloads for _ in range(SETUP_PROBES)])
    start = time.perf_counter()
    rounds = 0
    while True:
        for kind, w in rng.sample(steps, len(steps)):
            if kind == "run":
                inv = invoke(["run"] + w.argv)
                checker.run(w, inv)
            else:
                inv = invoke(setup_args(w))
                checker.probe(w, inv)
            calibration.append(calibrate())
            (runs if kind == "run" else probes)[w.name].append(
                (inv, (calibration[-2] + calibration[-1]) / 2))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return runs, probes, calibration


def trace_all(own: list, rng: random.Random, checker: Checker) -> tuple:
    """One traced invocation of every workload and one untraced invocation
    of each workload in `own`, the reference for the tracing overhead."""
    traced, untraced = {}, {}
    steps = ([("trace", w) for w in WORKLOADS.values()]
             + [("run", w) for w in own])
    calibration = [calibrate()]
    for kind, w in rng.sample(steps, len(steps)):
        inv = invoke([kind] + w.argv)
        checker.run(w, inv)
        (traced if kind == "trace" else untraced)[w.name] = inv
    return traced, untraced, calibration


def read_trace(inv: Invocation) -> dict:
    lines = inv.err.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(TRACE_MARK):
        raise SystemExit("perfbench: a traced run left no tracer dump")
    return json.loads(lines[-1][len(TRACE_MARK):])


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail_percentile(values: list):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, unit: str, values: list) -> str:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    tail = tail_percentile(values)
    return "  %-12s median %.4f %s  q1 %.4f  q3 %.4f  n=%d  %s" % (
        name, statistics.median(values), unit, q1, q3, len(values),
        "p%.0f %.4f" % tail if tail else "tail: none below 11 samples")


def warm_up(workloads: list) -> None:
    """One untimed probe per workload: fills the bytecode cache and stops
    the run, with no result, when the program cannot be imported."""
    for w in workloads:
        inv = invoke(setup_args(w))
        if inv.code != 0:
            sys.stderr.write(inv.err.decode(errors="replace"))
            raise SystemExit("perfbench: set-up of %s failed (exit %d)"
                             % (w.name, inv.code))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    own = (list(WORKLOADS.values()) if args.workload == "all"
           else [WORKLOADS[args.workload]])
    prefixed = args.workload == "all"
    rng = random.Random(args.seed)
    checker = Checker()
    warm_up(list(WORKLOADS.values()) if args.trace else own)

    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    metrics = {}

    def put(workload: str, name: str, value: float, unit: str) -> None:
        key = "%s.%s" % (workload, name) if prefixed else name
        metrics[key] = {"value": value, "unit": unit}

    if args.trace:
        traced, untraced, calibration = trace_all(own, rng, checker)
        for w in WORKLOADS.values():
            trace = read_trace(traced[w.name])
            values = layer_values(trace, len(traced[w.name].out))
            print("%s: traced %.4f s; self time by module: %s" % (
                w.name, traced[w.name].wall, ", ".join(
                    "%s %.4f s" % kv for kv in module_self_times(trace))))
            for name in w.layers:
                metrics["%s.%s" % (w.name, name)] = {
                    "value": values[name], "unit": layer_unit(name)}
                print("  %-40s %s" % (name, values[name]))
        for w in own:
            overhead = traced[w.name].wall - untraced[w.name].wall
            print("%s: tracing overhead %.4f s (traced minus untraced)"
                  % (w.name, overhead))
            put(w.name, "trace_overhead_s", overhead, "s")
    else:
        runs, probes, calibration = measure(own, rng, args.seconds, checker)
        for w in own:
            print("%s: %s" % (w.name, " ".join(w.argv)))
            series = {
                "wall_s": [inv.wall for inv, _ in runs[w.name]],
                "cpu_s": [inv.cpu for inv, _ in runs[w.name]],
                "setup_wall_s": [inv.wall for inv, _ in probes[w.name]],
                "wall_ref_s": [at_ref(inv.wall, cal)
                               for inv, cal in runs[w.name]],
                "cpu_ref_s": [at_ref(inv.cpu, cal)
                              for inv, cal in runs[w.name]],
                "setup_s": [at_ref(inv.wall, cal)
                            for inv, cal in probes[w.name]],
                "peak_rss_mb": [inv.rss_mb for inv, _ in runs[w.name]]}
            for name, values in series.items():
                unit = "MB" if name == "peak_rss_mb" else "s"
                print(describe(name, unit, values))
                if name in ("wall_ref_s", "cpu_ref_s", "setup_s",
                            "peak_rss_mb"):
                    put(w.name, name, statistics.median(values), unit)

    print("fail_ratio %.4f (%d failed of %d invocations)" % (
        checker.failed / checker.attempted, checker.failed, checker.attempted))
    print("host " + json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "calibration_s": [round(c, 4) for c in calibration]}))
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
