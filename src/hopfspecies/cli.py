"""Command-line front end.

Subcommands run the library's tests and computations and print either an
aligned text report or JSON. Exit code 0 means every verdict passed, 1 means
some verdict failed, 2 means a usage or input error. Output is deterministic:
the library sorts everything and rationals print as exact fractions.

Only the species layer (`species`) loads with this module; each command
imports the rest of what it runs. A dimension table compiles no Hopf
monoid, vector, axiom, kernel or sequence-gate code, and a kernel command
none of the Lie bases or theorem checks.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial

from .species import (SIZE_CAP, FiniteSet, LinearOrder, get_species, labelset,
                      orbit_count)

HARD_MAX_N = SIZE_CAP
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


def _series_order(order: int | None, *lengths: int) -> int | None:
    """--order, capped; without it the window is the sequences' whole
    common prefix, refused here when it passes the cap, since the series
    division is quadratic in ever longer Fractions."""
    if order is not None:
        return _cap_order(order)
    from .seqtests import series_window
    window = series_window(None, *lengths)
    if window > HARD_MAX_ORDER:
        raise UsageError("the default window 0..%d exceeds the order cap %d;"
                         " pass --order N with N <= %d"
                         % (window, HARD_MAX_ORDER, HARD_MAX_ORDER))
    return None


def get_hopf(ident: str):
    """The Hopf monoid an identifier names; `structures` loads on the first
    call."""
    from .structures import get_hopf
    return get_hopf(ident)


def get_morphism(ident: str):
    """The morphism an identifier names; `structures` loads on the first
    call."""
    from .structures import get_morphism
    return get_morphism(ident)


def _parse_ints(text: str) -> list:
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        values = []
    if not values:
        raise UsageError("expected a comma-separated integer list: %r" % text)
    return values


def _parse_labels(text: str) -> list:
    labels = [tok for tok in text.split(",") if tok]
    if not labels:
        raise UsageError("expected a comma-separated label list: %r" % text)
    return labels


CHUNK_CHARS = 8192  # the text joined into one write, which may be a system call


def _emit(report: dict, fmt: str, lines) -> None:
    """Print the JSON report or the text lines, which may be a generator
    rendered as it is printed. Commands that print vectors render those
    lines only in text mode; JSON mode never prints them. The JSON report
    is written as it is walked, so no copy of its text is held; pieces and
    lines are joined into writes of about CHUNK_CHARS characters, and what
    is joined is written before an exception leaves."""
    out, pending, size = sys.stdout, [], 0

    def put(piece: str) -> None:
        nonlocal size
        pending.append(piece)
        size += len(piece)
        if size >= CHUNK_CHARS:
            out.write("".join(pending))
            pending.clear()
            size = 0

    try:
        if fmt == "json":
            from .reports import _write
            _write(report, put, "\n")
            put("\n")
        else:
            for line in lines:
                put("%s\n" % (line,))
    finally:
        out.write("".join(pending))


def _verdict_exit(ok: bool) -> int:
    return 0 if ok else 1


def _emit_verdict(tool: str, rep, fmt: str) -> int:
    """Print a command whose one report is its verdict: the report as JSON,
    or its summary line; exit 0 on pass, 1 on fail."""
    _emit({"tool": tool, "verdict": rep.verdict, "details": [rep.to_json()]},
          fmt, [rep.summary()])
    return _verdict_exit(rep.ok)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_seq_tests(args) -> int:
    import json

    from . import seqtests as seq_mod
    with open(args.input) as fh:
        seq = seq_mod.DimSequence.from_json(json.load(fh))
    order = _series_order(args.order, len(seq.a))
    wanted = args.tests.split(",") if args.tests else None
    if wanted is None:
        # gates every connected Hopf monoid must pass; the e/l gates assume
        # a relation to the one-dimensional or linear-order monoid and are
        # opt-in via --tests
        wanted = ["ordexp", "eklimit", "supermult", "support"]
        if seq.abar is not None:
            wanted.append("ordtype")

    # each test by name; the names ending in ":" take an integer K after it
    tests = {"etest": seq_mod.e_test, "ltest": seq_mod.l_test,
             "ordexp": partial(seq_mod.ord_exp_test, order=order),
             "ordtype": partial(seq_mod.ord_type_test, order=order),
             "eklimit": seq_mod.ek_limit_test, "supermult": seq_mod.supermult_test,
             "support": seq_mod.support_test,
             "ek:": partial(seq_mod.ek_test, order=order), "growth:": seq_mod.growth_test}

    def run_one(name: str):
        name = name.strip()
        head, colon, arg = name.partition(":")
        test = tests.get(head + colon)
        if test is None:
            raise UsageError("unknown test name: %r" % name)
        if not colon:
            return test(seq)
        try:
            k = int(arg)
        except ValueError:
            raise ValueError("bad test %r: K must be an integer" % name) from None
        return test(seq, k)

    reports = [run_one(name) for name in wanted]
    ok = all(r.verdict != "fail" for r in reports)
    payload = {"tool": "seq-tests", "input": seq.to_json(),
               "verdict": "pass" if ok else "fail",
               "details": [r.to_json() for r in reports]}
    _emit(payload, args.format,
          ["sequence %s" % seq.name] + ["  " + r.summary() for r in reports])
    return _verdict_exit(ok)


def cmd_series_div(args) -> int:
    from .exactalg import TruncatedSeries, egf_from_counts, ogf_from_counts
    from .seqtests import _quotient_gate, series_window
    numer = _parse_ints(args.numer)
    denom = _parse_ints(args.denom)
    order = series_window(
        _series_order(args.order, len(numer), len(denom)), len(numer), len(denom))
    build = egf_from_counts if args.kind == "egf" else ogf_from_counts
    rep = _quotient_gate("nonneg-prefix", build(numer, order), build(denom, order))
    # the gate reports the quotient among its details; this command prints
    # it beside the bare nonnegativity report
    quot = rep.details.pop("quotient")
    payload = {"tool": "series-div", "verdict": rep.verdict,
               "details": [{"quotient": quot, "nonneg": rep.to_json()}]}
    _emit(payload, args.format,
          ["quotient = %s" % TruncatedSeries.from_json(quot), rep.summary()])
    return _verdict_exit(rep.ok)


def cmd_species_dims(args) -> int:
    nmax = _cap_n(args.max_n)
    sp = get_species(args.species)
    # orbit_count makes the one pass per size; dimension reads its count
    types = [orbit_count(sp, n) for n in range(nmax + 1)] if args.types else []
    dims = [sp.dimension(n) for n in range(nmax + 1)]
    rows = ["%-3s %10s%s" % ("n", "dim", "   orbits" if args.types else "")]
    rows += ["%-3d %10d" % (n, dims[n]) + (" %8d" % types[n] if args.types else "")
             for n in range(nmax + 1)]
    detail = {"species": sp.name, "dims": dims}
    if args.types:
        detail["types"] = types
    payload = {"tool": "species-dims", "verdict": "pass", "details": [detail]}
    _emit(payload, args.format, ["species %s" % sp.name] + rows)
    return 0


def cmd_axioms(args) -> int:
    from . import axioms as axioms_mod
    nmax = _cap_n(args.max_n)
    rep = axioms_mod.check_all(get_hopf(args.species), nmax)
    return _emit_verdict("axioms", rep, args.format)


def cmd_morphism_check(args) -> int:
    from . import axioms as axioms_mod
    nmax = _cap_n(args.max_n)
    rep = axioms_mod.check_morphism(get_morphism(args.morphism), nmax)
    return _emit_verdict("morphism-check", rep, args.format)


def _basis_lines(head: str, spaces):
    """`head`, then the text lines of each size's primitive basis, one size
    at a time: each row is printed from its columns by `terms_text`, as
    `%r` of its QVector would print it, with each structure's text made
    once."""
    from .vectors import terms_text
    yield head
    for n, space in enumerate(spaces, 1):
        yield "n = %d:" % n
        rows = space.rows()
        if rows:
            name = space.names().__getitem__
            for row in rows:
                yield "  " + terms_text(row, name)


def _basis_json(space) -> list:
    """The basis of `space` as `QVector.to_json` gives it: one dict per
    vector, sharing one ambient list, and a TermList for its terms, which
    quotes each structure's text once."""
    from .reports import TermList, quote
    rows = space.rows()
    if not rows:
        return []
    ambient = list(space.ambient)
    quoted = [quote(t) for t in space.names()]
    return [{"ambient": ambient, "terms": TermList(row, quoted)}
            for row in rows]


def cmd_primitives(args) -> int:
    from . import kernels as kernels_mod
    nmax = _cap_n(args.max_n)
    h = get_hopf(args.species)
    spaces = [kernels_mod.primitive_space(h, labelset(n))
              for n in range(nmax + 1)]
    dims = [space.dim for space in spaces]
    spaces = spaces[1:] if args.show_basis else []
    if args.format == "text":
        # the basis lines are rendered as _emit prints them
        _emit(None, "text", _basis_lines(
            "primitive dimensions of %s: %s" % (h.name, dims), spaces))
        return 0
    details = [{"species": h.name, "primitive_dims": dims}]
    details += [{"n": n, "basis": _basis_json(space)}
                for n, space in enumerate(spaces, 1)]
    _emit({"tool": "primitives", "verdict": "pass", "details": details},
          "json", ())
    return 0


def cmd_lie_basis(args) -> int:
    from . import lie
    from .structures import make_L
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
    for gamma in lie.cyclic_orders(I):
        vec = lie.lie_basis_p(gamma, ell0, L)
        expr = lie.bracket_expr(gamma, ell0)
        if text:
            lines.append("p_%r = %s = %r" % (gamma, expr, vec))
        details.append({"cycle": repr(gamma), "bracket": expr,
                        "vector": vec.to_json()})
    payload = {"tool": "lie-basis", "verdict": "pass", "details": details}
    _emit(payload, args.format, lines)
    return 0


def cmd_hker_basis(args) -> int:
    from . import lie
    from .structures import make_L
    ell0 = LinearOrder(_parse_labels(args.ell0))
    _cap_n(len(ell0.seq))
    if args.ell:
        orders = [LinearOrder(_parse_labels(args.ell))]
    else:
        orders = list(lie.derangements(ell0))
    L = make_L()
    text = args.format == "text"
    lines = []
    details = []
    for ell in orders:
        vec = lie.hker_basis_derangement(ell, ell0, L)
        expr = lie.p_ell_expr(ell, ell0)
        if text:
            lines.append("p_{%s} = %s = %r" % (ell.text(), expr, vec))
        details.append({"ell": ell.text(), "factors": expr,
                        "vector": vec.to_json()})
    payload = {"tool": "hker-basis", "verdict": "pass", "details": details}
    _emit(payload, args.format, lines)
    return 0


def cmd_hker_dims(args) -> int:
    from . import kernels as kernels_mod
    nmax = _cap_n(args.max_n)
    f = get_morphism(args.morphism)
    dims = kernels_mod.hker_dims(f, nmax)
    payload = {"tool": "hker-dims", "verdict": "pass",
               "details": [{"morphism": f.name, "hker_dims": dims}]}
    _emit(payload, args.format,
          ["Hopf kernel dimensions of %s: %s" % (f.name, dims)])
    return 0


def cmd_lagrange(args) -> int:
    from . import lagrange
    nmax = _cap_n(args.max_n)
    if bool(args.sub) == bool(args.quotient):
        raise UsageError("exactly one of --sub or --quotient is required")
    if args.quotient:
        rep = lagrange.dual_factorization_check(get_morphism(args.quotient), nmax)
    else:
        f = get_morphism(args.sub)
        rep = lagrange.lagrange_factorization_check(f, nmax)
        if rep.ok:
            q = rep.details["quotient_dims"]
            payload = {"tool": "lagrange", "verdict": "pass",
                       "details": [{"sub": f.name, "quotient_dims": q}]}
            _emit(payload, args.format,
                  ["factorization holds for %s; q = %s"
                   % (f.name, ",".join(str(v) for v in q))])
            return 0
    return _emit_verdict("lagrange", rep, args.format)


def cmd_pbw_check(args) -> int:
    from . import lagrange
    nmax = _cap_n(args.max_n)
    rep = lagrange.pbw_series_check(get_hopf(args.species), nmax)
    return _emit_verdict("pbw-check", rep, args.format)


# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: argparse's objects form reference cycles, so a
    parser per `run` is garbage whose collection time moves a run's peak."""
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
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        # json.JSONDecodeError is a ValueError
        print("input error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
