"""Command-line front end.

Subcommands run the library's tests and computations and print either an
aligned text report or JSON. Exit code 0 means every verdict passed, 1 means
some verdict failed, 2 means a usage or input error. Output is deterministic:
the library sorts everything and rationals print as exact fractions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import axioms as axioms_mod
from . import kernels as kernels_mod
from . import seqtests as seq_mod
from .exactalg import egf_from_counts, nonneg_prefix, ogf_from_counts
from .reports import jsonable
from .species import FiniteSet, LinearOrder, labelset, orbit_count
from .structures import get_hopf, get_morphism, get_species, make_L

HARD_MAX_N = 9
HARD_MAX_ORDER = 32


class UsageError(ValueError):
    pass


def _cap_n(n: int) -> int:
    cap = HARD_MAX_N
    env = os.environ.get("HOPF_MAX_N")
    if env:
        try:
            cap = min(cap, int(env))
        except ValueError:
            raise UsageError("HOPF_MAX_N must be an integer: %r" % env)
    if n > cap:
        raise UsageError("max size %d exceeds the cap %d" % (n, cap))
    if n < 0:
        raise UsageError("max size must be nonnegative")
    return n


def _cap_order(order: int) -> int:
    if order > HARD_MAX_ORDER:
        raise UsageError("truncation order %d exceeds the cap %d"
                         % (order, HARD_MAX_ORDER))
    if order < 0:
        raise UsageError("truncation order must be nonnegative")
    return order


def _parse_ints(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError("expected a comma-separated integer list: %r" % text)


def _parse_labels(text: str) -> list:
    labels = [tok for tok in text.split(",") if tok]
    if not labels:
        raise UsageError("expected a comma-separated label list: %r" % text)
    return labels


def _emit(report: dict, fmt: str, lines) -> None:
    """Print the JSON report or the text lines. Commands that print vectors
    render those lines only in text mode; JSON mode never prints them."""
    if fmt == "json":
        print(json.dumps(jsonable(report), sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _verdict_exit(ok: bool) -> int:
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_seq_tests(args) -> int:
    with open(args.input) as fh:
        seq = seq_mod.DimSequence.from_json(json.load(fh))
    order = _cap_order(args.order) if args.order is not None else None
    wanted = args.tests.split(",") if args.tests else None
    if wanted is None:
        # gates every connected Hopf monoid must pass; the e/l gates assume
        # a relation to the one-dimensional or linear-order monoid and are
        # opt-in via --tests
        wanted = ["ordexp", "eklimit", "supermult", "support"]
        if seq.abar is not None:
            wanted.append("ordtype")

    def run_one(name: str):
        name = name.strip()
        if name == "etest":
            return seq_mod.e_test(seq)
        if name == "ltest":
            return seq_mod.l_test(seq)
        if name == "ordexp":
            return seq_mod.ord_exp_test(seq, order)
        if name == "ordtype":
            return seq_mod.ord_type_test(seq, order)
        if name == "eklimit":
            return seq_mod.ek_limit_test(seq)
        if name == "supermult":
            return seq_mod.supermult_test(seq)
        if name == "support":
            return seq_mod.support_test(seq)
        if name.startswith("ek:"):
            return seq_mod.ek_test(seq, int(name[3:]), order)
        if name.startswith("growth:"):
            return seq_mod.growth_test(seq, int(name[7:]))
        raise UsageError("unknown test name: %r" % name)

    reports = [run_one(name) for name in wanted]
    ok = all(r.verdict != "fail" for r in reports)
    payload = {"tool": "seq-tests", "input": seq.to_json(),
               "verdict": "pass" if ok else "fail",
               "details": [r.to_json() for r in reports]}
    _emit(payload, args.format,
          ["sequence %s" % seq.name] + ["  " + r.summary() for r in reports])
    return _verdict_exit(ok)


def cmd_series_div(args) -> int:
    numer = _parse_ints(args.numer)
    denom = _parse_ints(args.denom)
    order = seq_mod.series_window(
        _cap_order(args.order) if args.order is not None else None,
        len(numer), len(denom))
    build = egf_from_counts if args.kind == "egf" else ogf_from_counts
    quot = build(numer, order) / build(denom, order)
    rep = nonneg_prefix(quot)
    payload = {"tool": "series-div", "verdict": rep.verdict,
               "details": [{"quotient": quot.to_json(),
                            "nonneg": rep.to_json()}]}
    _emit(payload, args.format,
          ["quotient = %s" % quot, rep.summary()])
    return _verdict_exit(rep.ok)


def cmd_species_dims(args) -> int:
    nmax = _cap_n(args.max_n)
    sp = get_species(args.species)
    dims = [sp.dimension(n) for n in range(nmax + 1)]
    rows = ["%-3s %10s%s" % ("n", "dim", "   orbits" if args.types else "")]
    types = []
    for n in range(nmax + 1):
        if args.types:
            types.append(orbit_count(sp, n))
            rows.append("%-3d %10d %8d" % (n, dims[n], types[n]))
        else:
            rows.append("%-3d %10d" % (n, dims[n]))
    detail = {"species": sp.name, "dims": dims}
    if args.types:
        detail["types"] = types
    payload = {"tool": "species-dims", "verdict": "pass", "details": [detail]}
    _emit(payload, args.format, ["species %s" % sp.name] + rows)
    return 0


def cmd_axioms(args) -> int:
    nmax = _cap_n(args.max_n)
    h = get_hopf(args.species)
    rep = axioms_mod.check_all(h, nmax)
    payload = {"tool": "axioms", "verdict": "pass" if rep.ok else "fail",
               "details": [rep.to_json()]}
    _emit(payload, args.format, [rep.summary()])
    return _verdict_exit(rep.ok)


def cmd_morphism_check(args) -> int:
    nmax = _cap_n(args.max_n)
    f = get_morphism(args.morphism)
    rep = axioms_mod.check_morphism(f, nmax)
    payload = {"tool": "morphism-check", "verdict": "pass" if rep.ok else "fail",
               "details": [rep.to_json()]}
    _emit(payload, args.format, [rep.summary()])
    return _verdict_exit(rep.ok)


def cmd_primitives(args) -> int:
    nmax = _cap_n(args.max_n)
    h = get_hopf(args.species)
    dims = kernels_mod.primitive_dims(h, nmax)
    text = args.format == "text"
    lines = ["primitive dimensions of %s: %s" % (h.name, dims)]
    details = [{"species": h.name, "primitive_dims": dims}]
    if args.show_basis:
        for n in range(1, nmax + 1):
            vecs = kernels_mod.primitive_space(h, labelset(n)).vectors()
            details.append({"n": n, "basis": [v.to_json() for v in vecs]})
            if text:
                lines.append("n = %d:" % n)
                lines.extend("  %r" % v for v in vecs)
    payload = {"tool": "primitives", "verdict": "pass", "details": details}
    _emit(payload, args.format, lines)
    return 0


def cmd_lie_basis(args) -> int:
    labels = _parse_labels(args.labels)
    _cap_n(len(labels))
    ell0 = LinearOrder(_parse_labels(args.ell0)) if args.ell0 else LinearOrder(sorted(labels))
    if sorted(ell0.seq) != sorted(labels):
        raise UsageError("--ell0 must order exactly the given labels")
    I = FiniteSet(labels)
    L = make_L()
    text = args.format == "text"
    lines = []
    details = []
    for gamma in kernels_mod.cyclic_orders(I):
        vec = kernels_mod.lie_basis_p(gamma, ell0, L)
        expr = kernels_mod.bracket_expr(gamma, ell0)
        if text:
            lines.append("p_%r = %s = %r" % (gamma, expr, vec))
        details.append({"cycle": repr(gamma), "bracket": expr,
                        "vector": vec.to_json()})
    payload = {"tool": "lie-basis", "verdict": "pass", "details": details}
    _emit(payload, args.format, lines)
    return 0


def cmd_hker_basis(args) -> int:
    ell0 = LinearOrder(_parse_labels(args.ell0))
    _cap_n(len(ell0.seq))
    if args.ell:
        orders = [LinearOrder(_parse_labels(args.ell))]
    else:
        orders = list(kernels_mod.derangements(ell0))
    L = make_L()
    text = args.format == "text"
    lines = []
    details = []
    for ell in orders:
        vec = kernels_mod.hker_basis_derangement(ell, ell0, L)
        expr = kernels_mod.p_ell_expr(ell, ell0)
        if text:
            lines.append("p_{%s} = %s = %r" % (ell.text(), expr, vec))
        details.append({"ell": ell.text(), "factors": expr,
                        "vector": vec.to_json()})
    payload = {"tool": "hker-basis", "verdict": "pass", "details": details}
    _emit(payload, args.format, lines)
    return 0


def cmd_hker_dims(args) -> int:
    nmax = _cap_n(args.max_n)
    f = get_morphism(args.morphism)
    dims = kernels_mod.hker_dims(f, nmax)
    payload = {"tool": "hker-dims", "verdict": "pass",
               "details": [{"morphism": f.name, "hker_dims": dims}]}
    _emit(payload, args.format,
          ["Hopf kernel dimensions of %s: %s" % (f.name, dims)])
    return 0


def cmd_lagrange(args) -> int:
    nmax = _cap_n(args.max_n)
    if bool(args.sub) == bool(args.quotient):
        raise UsageError("exactly one of --sub or --quotient is required")
    if args.sub:
        f = get_morphism(args.sub)
        q = kernels_mod.lagrange_quotient_dims(f, nmax)
        payload = {"tool": "lagrange", "verdict": "pass",
                   "details": [{"sub": f.name, "quotient_dims": q}]}
        _emit(payload, args.format,
              ["factorization holds for %s; q = %s"
               % (f.name, ",".join(str(v) for v in q))])
        return 0
    f = get_morphism(args.quotient)
    rep = kernels_mod.dual_factorization_check(f, nmax)
    payload = {"tool": "lagrange", "verdict": rep.verdict,
               "details": [rep.to_json()]}
    _emit(payload, args.format, [rep.summary()])
    return _verdict_exit(rep.ok)


def cmd_pbw_check(args) -> int:
    nmax = _cap_n(args.max_n)
    h = get_hopf(args.species)
    rep = kernels_mod.pbw_series_check(h, nmax)
    payload = {"tool": "pbw-check", "verdict": rep.verdict,
               "details": [rep.to_json()]}
    _emit(payload, args.format, [rep.summary()])
    return _verdict_exit(rep.ok)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfspecies",
        description="Exact computations with connected Hopf monoids in species")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq-tests", help="run dimension-sequence tests")
    p.add_argument("--input", required=True, help="JSON file: {name, a, abar?}")
    p.add_argument("--tests", help="comma list: etest,ltest,ordexp,ordtype,"
                                   "ek:K,eklimit,supermult,growth:K,support")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_seq_tests)

    p = sub.add_parser("series-div", help="divide two generating series")
    p.add_argument("--numer", required=True, help="comma-separated counts")
    p.add_argument("--denom", required=True, help="comma-separated counts")
    p.add_argument("--kind", choices=("ogf", "egf"), default="ogf")
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(func=cmd_series_div)

    p = sub.add_parser("species-dims", help="dimension table of a species")
    p.add_argument("--species", required=True)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--types", action="store_true", help="include orbit counts")
    p.set_defaults(func=cmd_species_dims)

    p = sub.add_parser("axioms", help="verify the Hopf monoid axioms")
    p.add_argument("--species", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("morphism-check", help="verify a morphism of Hopf monoids")
    p.add_argument("--morphism", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=cmd_morphism_check)

    p = sub.add_parser("primitives", help="primitive spaces of a Hopf monoid")
    p.add_argument("--species", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--show-basis", action="store_true")
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("lie-basis", help="cyclic-order basis of the Lie space")
    p.add_argument("--labels", required=True, help="comma-separated labels")
    p.add_argument("--ell0", help="reference order (default: sorted labels)")
    p.set_defaults(func=cmd_lie_basis)

    p = sub.add_parser("hker-basis", help="derangement basis of the Hopf kernel")
    p.add_argument("--ell0", required=True, help="reference order, comma-separated")
    p.add_argument("--ell", help="one derangement (default: all of them)")
    p.set_defaults(func=cmd_hker_basis)

    p = sub.add_parser("hker-dims", help="Hopf kernel dimensions of a morphism")
    p.add_argument("--morphism", required=True)
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(func=cmd_hker_dims)

    p = sub.add_parser("lagrange", help="verify the dimension factorization")
    p.add_argument("--sub", help="injective morphism identifier, e.g. E->Pi")
    p.add_argument("--quotient", help="surjective morphism identifier, e.g. L->E")
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(func=cmd_lagrange)

    p = sub.add_parser("pbw-check", help="exp of primitive series vs the series")
    p.add_argument("--species", required=True)
    p.add_argument("--max-n", type=int, default=5)
    p.set_defaults(func=cmd_pbw_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except kernels_mod.LagrangeFactorizationError as exc:
        print("FAIL: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
