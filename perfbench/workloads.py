"""The four perfbench workloads, their reference outputs and oracles.

Each workload is one fixed `hopfspecies` command line. The CLI inputs never
depend on the benchmark seed; the seed only orders the work inside a run.

Why these four: they stress different layers, so an optimisation of one
layer has a workload that exercises it and one that bypasses it.

- prim_basis: exact `Fraction` elimination plus rref/kernel extraction in
  `exactalg` dominate, and an exact basis is printed, so rank mod p cannot
  stand in for it.
- hker_dims: the same echelon layer, but only ranks are needed; rows come
  from `coproduct` plus `HopfMorphism.on_basis` on the 720-element basis of
  L[6]. This is where a rank-mod-p change should win while prim_basis must
  stay exact.
- axioms_pal: structure maps, their memo caches and immutable
  `QVector`/`QTensor` accumulation; `exactalg` is about 2% here, so echelon
  changes predict no change.
- dims_pal: enumeration and orbit counting only (8,793 palindromic set
  compositions kept out of 47,293 generated); without it enumeration is a
  small share of every other workload and would go unmeasured.

The sequence gates and series arithmetic are deliberately absent: each gate
finishes in milliseconds at the order cap, so there is nothing to tune.

BENCHMARK.json gates prim_basis and dims_pal end to end. On a shared host
whose speed drifts within minutes, a run's median is only as steady as the
run is long, and two workloads leave time for the longest runs. These
two stress opposite layers: echelon, kernels and coproduct against
enumeration and orbit counting. axioms_pal and hker_dims stay runnable (by
name or `all`), and every traced run traces all four workloads, so the
axioms, product and QVector/QTensor layers keep their per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Workload:
    """One CLI command line plus how to set it up and how to check it.

    `setup` names the `hopfspecies.cli` constructor and identifier that the
    command builds before computing. `layers` lists the per-layer metrics
    reported for this workload in traced runs (see `layer_values`).
    """

    def __init__(self, name, argv, setup, oracle, layers):
        self.name = name
        self.argv = argv
        self.setup = setup
        self.oracle = oracle
        self.layers = layers


# ---------------------------------------------------------------------------
# Oracles, independent of the recorded reference output
# ---------------------------------------------------------------------------

def fubini(n: int) -> int:
    """Ordered set partitions of an n-set: F(n) = sum_k C(n,k) F(n-k)."""
    f = [1]
    for m in range(1, n + 1):
        f.append(sum(comb(m, k) * f[m - k] for k in range(1, m + 1)))
    return f[n]


def exp_egf(counts: list) -> list:
    """Counts whose exponential generating function is exp of that of
    `counts` (which must start with 0), via n a_n = sum_k k p_k a_{n-k}."""
    p = [Fraction(c, factorial(n)) for n, c in enumerate(counts)]
    a = [Fraction(1)]
    for n in range(1, len(p)):
        a.append(sum(k * p[k] * a[n - k] for k in range(1, n + 1)) / n)
    return [a[n] * factorial(n) for n in range(len(a))]


def derangement_numbers(nmax: int) -> list:
    d = [1, 0]
    for n in range(2, nmax + 1):
        d.append((n - 1) * (d[n - 1] + d[n - 2]))
    return d[: nmax + 1]


def integer_compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in integer_compositions(n - first):
            yield (first,) + rest


def palindromic_counts(n: int) -> tuple:
    """(set compositions of an n-set with palindromic block-size word,
    S_n-orbits of them): a multinomial per palindromic size word, and one
    orbit per palindromic integer composition."""
    words = [w for w in integer_compositions(n) if w == w[::-1]]
    total = 0
    for w in words:
        term = factorial(n)
        for part in w:
            term //= factorial(part)
        total += term
    return total, len(words)


def check_prim_basis(out: str) -> bool:
    report = json.loads(out)
    dims = report["details"][0]["primitive_dims"]
    bases = {d["n"]: d["basis"] for d in report["details"][1:]}
    return (report["verdict"] == "pass"
            and exp_egf(dims) == [fubini(n) for n in range(len(dims))]
            and all(len(bases[n]) == dims[n] for n in range(1, len(dims))))


def check_hker_dims(out: str) -> bool:
    m = re.fullmatch(r"Hopf kernel dimensions of L->E: \[([0-9, ]*)\]\n", out)
    return (m is not None
            and [int(v) for v in m.group(1).split(",")] == derangement_numbers(6))


def check_axioms_pal(out: str) -> bool:
    return out == "Pal: all axioms hold at sizes [0, 1, 2, 3, 4, 5]\n"


def check_dims_pal(out: str) -> bool:
    lines = out.splitlines()
    if lines[:2] != ["species Pal", "n          dim   orbits"] or len(lines) != 10:
        return False
    rows = [tuple(int(v) for v in line.split()) for line in lines[2:]]
    return rows == [(n,) + palindromic_counts(n) for n in range(8)]


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _per_size(fmt: str, sizes) -> list:
    return [fmt % n for n in sizes]


ECHELON = ["exactalg.echelon_add.s", "exactalg.echelon_add.calls",
           "exactalg.echelon_add.useful_ratio", "exactalg.row_nnz_in",
           "exactalg.max_pivot_bits", "exactalg.rref.s"]
COPRODUCT = ["structures.coproduct.calls", "structures.coproduct.miss_ratio",
             "structures.coproduct.s"]
PRODUCT = ["structures.product.calls", "structures.product.miss_ratio",
           "structures.product.s"]
ENUMERATION = ["species.structures.s", "species.structures.count"]

WORKLOADS = {w.name: w for w in [
    Workload("prim_basis",
             ["--format", "json", "primitives", "--species", "Sigma",
              "--max-n", "5", "--show-basis"],
             ("get_hopf", "Sigma"), check_prim_basis,
             ECHELON + ["kernels.primitive_space.s"]
             + _per_size("kernels.primitive_space.n%d.s", range(1, 6))
             + COPRODUCT + ENUMERATION
             + ["species.qvector.inits", "cli.emit.s", "cli.output_bytes"]),
    Workload("hker_dims",
             ["hker-dims", "--morphism", "L->E", "--max-n", "6"],
             ("get_morphism", "L->E"), check_hker_dims,
             ECHELON + ["kernels.hker_space.s"]
             + _per_size("kernels.hker_space.n%d.s", range(0, 7))
             + COPRODUCT + ["structures.morphism.calls"] + ENUMERATION
             + ["species.qtensor.inits"]),
    Workload("axioms_pal",
             ["axioms", "--species", "Pal", "--max-n", "5"],
             ("get_hopf", "Pal"), check_axioms_pal,
             PRODUCT + COPRODUCT
             + ["species.qvector.inits", "species.qtensor.inits",
                "axioms.check_monoid.s", "axioms.check_comonoid.s",
                "axioms.check_compat.s", "axioms.check_naturality.s",
                "axioms.is_linearized.s", "axioms.check_connected.s",
                "structures.pal_keep_ratio"] + ENUMERATION),
    Workload("dims_pal",
             ["species-dims", "--species", "Pal", "--max-n", "7", "--types"],
             ("get_species", "Pal"), check_dims_pal,
             ["structures.pal_keep_ratio"] + ENUMERATION
             + _per_size("species.structures.count.n%d", range(0, 8))
             + ["species.orbit_count.s", "cli.emit.s"]),
]}


def load_reference() -> dict:
    """sha256 and length of each workload's stdout, recorded from the
    unchanged program; the text and JSON output must stay byte-identical."""
    with open(HERE / "reference.json") as fh:
        return json.load(fh)["workloads"]


def matches_reference(ref: dict, out: bytes) -> bool:
    return (len(out) == ref["bytes"]
            and hashlib.sha256(out).hexdigest() == ref["sha256"])


# ---------------------------------------------------------------------------
# Per-layer metrics from a tracer dump
# ---------------------------------------------------------------------------

def layer_unit(metric: str) -> str:
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_values(trace: dict, output_bytes: int) -> dict:
    """Every per-layer metric the tracer can give, by name.

    Times are self times in seconds: a span's duration minus its child
    spans. `structures.product.s`/`coproduct.s` cover evaluations of the
    structure maps on cache misses only; hits are counted, not timed.
    """
    self_s, counts = trace["self_s"], trace["counts"]

    def ratio(num: float, den: float, empty: float) -> float:
        return num / den if den else empty

    def total(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + ".n"))

    adds = counts.get("exactalg.echelon_add", 0)
    out = {
        "exactalg.echelon_add.s": self_s.get("exactalg.echelon_add", 0.0),
        "exactalg.echelon_add.calls": adds,
        "exactalg.echelon_add.useful_ratio":
            ratio(counts.get("exactalg.echelon_add.useful", 0), adds, 0.0),
        "exactalg.row_nnz_in": counts.get("exactalg.row_nnz_in", 0),
        "exactalg.max_pivot_bits": trace["max_pivot_bits"],
        "exactalg.rref.s": self_s.get("exactalg.rref", 0.0),
        "kernels.primitive_space.s": total("kernels.primitive_space"),
        "kernels.hker_space.s": total("kernels.hker_space"),
        "structures.morphism.calls": counts.get("structures.morphism", 0),
        # candidates the Pal enumerator filters: 1 when nothing is wasted
        "structures.pal_keep_ratio":
            ratio(counts.get("species.enumerated.Pal", 0),
                  counts.get("structures.compositions_generated", 0), 1.0),
        "species.structures.s": self_s.get("species.structures", 0.0),
        "species.structures.count": sum(
            v for k, v in counts.items()
            if k.startswith("species.structures.count.n")),
        "species.orbit_count.s": self_s.get("species.orbit_count", 0.0),
        "species.qvector.inits": counts.get("species.qvector.inits", 0),
        "species.qtensor.inits": counts.get("species.qtensor.inits", 0),
        "cli.emit.s": self_s.get("cli.emit", 0.0),
        "cli.output_bytes": output_bytes,
    }
    for op in ("product", "coproduct"):
        calls = counts.get("structures.%s" % op, 0)
        misses = counts.get("structures.%s.miss" % op, 0)
        out["structures.%s.calls" % op] = calls
        out["structures.%s.miss_ratio" % op] = ratio(misses, calls, 0.0)
        out["structures.%s.s" % op] = self_s.get("structures.%s.miss" % op, 0.0)
    for name, value in self_s.items():
        if name.startswith(("axioms.", "kernels.")):
            out[name + ".s"] = value
    for name, value in counts.items():
        if name.startswith("species.structures.count.n"):
            out[name] = value
    return out


def module_self_times(trace: dict) -> list:
    """(module, self seconds) for every layer module, largest first."""
    acc: dict = {}
    for name, value in trace["self_s"].items():
        module = name.split(".", 1)[0]
        acc[module] = acc.get(module, 0.0) + value
    return sorted(acc.items(), key=lambda kv: -kv[1])
