"""In-process tracer for perfbench's traced runs.

`install` wraps hopfspecies' public names at the point where callers look
them up (a module attribute, or a method on the class), so the program is
traced without editing it. Coarse layer boundaries get spans; hot calls
(`product`, `coproduct`, `QVector`/`QTensor` construction, `on_basis`) get
plain counters only. Spans are aggregated in memory by name as self time:
a span's duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_pivot_bits = 0
        # time covered by child spans, one entry per open span; the bottom
        # entry collects the top-level spans
        self._open = [0.0]

    def span(self, name, fn):
        """Wrap `fn` so that each call records a span and counts a call.

        `name` is a string or a callable that gets `fn`'s arguments.
        """
        clock = time.perf_counter
        open_spans, self_s, counts = self._open, self.self_s, self.counts

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            counts[label] += 1
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                self_s[label] += duration - open_spans.pop()
                open_spans[-1] += duration
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    def dump(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "max_pivot_bits": self.max_pivot_bits}


def install(tr: Tracer) -> None:
    """Wrap the layer boundaries of every hopfspecies module."""
    from hopfspecies import axioms, cli, exactalg, kernels, species, structures

    counts = tr.counts

    # exactalg: echelon insertion and back-substitution
    ech = exactalg.Echelon
    add = ech.add

    def echelon_add(self, row):
        counts["exactalg.row_nnz_in"] += sum(1 for v in row.values() if v)
        grew = add(self, row)
        if grew:
            counts["exactalg.echelon_add.useful"] += 1
            # a row that raises the rank is stored under a new pivot
            # column, so it is the last entry of the pivot dict
            stored = next(reversed(self.pivots.values()))
            bits = max(abs(v).bit_length() for v in stored.values())
            tr.max_pivot_bits = max(tr.max_pivot_bits, bits)
        return grew

    ech.add = tr.span("exactalg.echelon_add", echelon_add)
    ech.rref = tr.span("exactalg.rref", ech.rref)
    ech.kernel = tr.span("exactalg.rref", ech.kernel)
    kernels.SubspaceBasis.vectors = tr.span("exactalg.rref",
                                            kernels.SubspaceBasis.vectors)

    # kernels: constraint-row assembly and dedup, per size
    kernels.primitive_space = tr.span(
        lambda h, I: "kernels.primitive_space.n%d" % len(I),
        kernels.primitive_space)
    kernels.hker_space = tr.span(
        lambda f, I: "kernels.hker_space.n%d" % len(I), kernels.hker_space)

    # structures: structure maps (calls, and evaluations that missed the
    # memo cache), morphisms, and the set compositions Pal filters
    monoid = structures.HopfMonoid
    monoid_init = monoid.__init__

    def init_monoid(self, species_, mu, delta, name=None):
        monoid_init(self, species_,
                    tr.span("structures.product.miss", mu),
                    tr.span("structures.coproduct.miss", delta), name)

    monoid.__init__ = init_monoid
    monoid.product = tr.counted("structures.product", monoid.product)
    monoid.coproduct = tr.counted("structures.coproduct", monoid.coproduct)
    structures.HopfMorphism.on_basis = tr.counted(
        "structures.morphism", structures.HopfMorphism.on_basis)

    set_compositions = structures.set_compositions
    depth = [0]

    def generated(compositions):
        depth[0] += 1
        try:
            for c in compositions:
                counts["structures.compositions_generated"] += 1
                yield c
        finally:
            depth[0] -= 1

    def top_level_counted(*args, **kwargs):
        # the recursion calls back through this name; count only the
        # compositions handed to the outermost caller
        compositions = set_compositions(*args, **kwargs)
        return compositions if depth[0] else generated(compositions)

    structures.set_compositions = top_level_counted

    # species: enumeration (per size and per species), orbit counting and
    # vector/tensor construction
    spec = species.SpeciesSpec
    spec_init = spec.__init__

    def init_spec(self, name, enumerator, linearized=True):
        def enumerate_counted(I):
            by_size = "species.structures.count.n%d" % len(I)
            by_name = "species.enumerated.%s" % name
            for s in enumerator(I):
                counts[by_size] += 1
                counts[by_name] += 1
                yield s
        spec_init(self, name, enumerate_counted, linearized)

    spec.__init__ = init_spec
    # only the first request for a label set enumerates; repeats are memo
    # hits, left untimed because they are frequent and cheap
    structures_ = spec.structures
    enumerate_traced = tr.span("species.structures", structures_)
    requested = set()

    def structures_traced(self, I):
        key = (self, I.labels)
        if key in requested:
            return structures_(self, I)
        requested.add(key)
        return enumerate_traced(self, I)

    spec.structures = structures_traced
    cli.orbit_count = tr.span("species.orbit_count", cli.orbit_count)
    species.QVector.__init__ = tr.counted("species.qvector.inits",
                                          species.QVector.__init__)
    species.QTensor.__init__ = tr.counted("species.qtensor.inits",
                                          species.QTensor.__init__)

    # axioms: each check of the battery, as check_all looks them up
    for check in ("check_monoid", "check_comonoid", "check_compat",
                  "check_naturality", "is_linearized", "check_connected"):
        setattr(axioms, check, tr.span("axioms." + check, getattr(axioms, check)))

    # cli: report rendering; the whole command is the root span
    cli._emit = tr.span("cli.emit", cli._emit)
    cli.run = tr.span("cli.run", cli.run)
