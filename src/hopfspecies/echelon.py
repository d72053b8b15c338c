"""The sparse fraction-free echelon engine over Q.

`Echelon` is the one linear-algebra engine: the kernel computations stack
their constraint rows into it, and the span and membership queries of
`kernels.SubspaceBasis` read it. It eliminates integer rows by integer
cross-multiplication; Fractions appear only where rref()/kernel() divide by
a pivot entry other than 1. A reduced row with unit pivot stays integral.

It imports nothing from the package, so the kernel commands load it
without the series code of `exactalg`.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _integer_row(row: dict) -> dict:
    """`row` itself when every entry is an int; otherwise its multiple by the
    least common denominator, an integer row on the same support."""
    if all(type(v) is int for v in row.values()):
        return row
    denom = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (denom // v.denominator) for c, v in row.items()}


def _row_gcd_normalize(row: dict) -> dict:
    """Scale a sparse integer row to coprime entries with positive leading
    entry."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g not in (0, 1):
        row = {c: v // g for c, v in row.items()}
    return row


class Echelon:
    """Incremental sparse row echelon over Q.

    Rows are dicts column -> int or Fraction; each row is scaled to an
    integer row once and eliminated fraction-free. Stored pivot rows are
    gcd-normalized integer rows; membership and rank queries never need
    back-substitution, which is deferred to rref()/kernel().
    """

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, row: dict) -> dict:
        """Forward-reduce a copy of `row` against the stored pivot rows.

        A row with Fraction entries is scaled to an integer row on entry, so
        the result is an integer multiple of the reduced row. The copy is
        private, so it is updated in place; it is scaled by the pivot entry
        (integer cross-multiplication, fraction-free) only when that entry
        is not 1, which gcd normalization makes the common case.

        The leading column comes off a heap of the row's columns, not from
        a scan with min(row) at each step: a fill-in column is pushed when
        it enters the row, and a popped column the row no longer holds has
        cancelled and is skipped. Each step is the same subtraction, in the
        same order, as eliminating at min(row).
        """
        row = _integer_row({c: v for c, v in row.items() if v})
        pivots = self.pivots
        heap = list(row)
        heapify(heap)
        while heap:
            c = heappop(heap)
            f = row.get(c)
            if f is None:
                continue
            prow = pivots.get(c)
            if prow is None:
                return row
            p = prow[c]
            if p != 1:
                row = {cc: v * p for cc, v in row.items()}
            for cc, v in prow.items():
                nv = row.get(cc)
                if nv is None:
                    row[cc] = -f * v
                    heappush(heap, cc)
                    continue
                # f and v are nonzero, so a zero result means cc cancelled
                nv -= f * v
                if nv:
                    row[cc] = nv
                else:
                    del row[cc]
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        row = _row_gcd_normalize(row)
        self.pivots[min(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def rref(self) -> dict:
        """Fully reduced rows with pivot value 1, keyed by pivot column.

        Back-substitution stays fraction-free: a copy of each stored pivot
        row is reduced in place against the already reduced integer rows of
        the later pivot columns, scaled only by a pivot entry other than 1,
        and gcd-normalized. A row whose pivot entry is then 1 is returned
        as ints; only the entries of a row with another pivot entry are
        Fractions, one division each.
        """
        reduced = {}
        out = {}
        for c in sorted(self.pivots, reverse=True):
            # one private copy of the stored row, updated in place
            acc = dict(self.pivots[c])
            for cc in [k for k in acc if k in reduced]:
                # reduced[cc] is zero at every other pivot column, so this
                # only adds entries at free columns
                prow = reduced[cc]
                g = gcd(acc[cc], prow[cc])
                f, p = acc[cc] // g, prow[cc] // g
                if p != 1:
                    for k, v in acc.items():
                        acc[k] = v * p
                for k, v in prow.items():
                    nv = acc.get(k, 0) - f * v
                    if nv:
                        acc[k] = nv
                    else:
                        acc.pop(k, None)
            acc = reduced[c] = _row_gcd_normalize(acc)
            lead = acc[c]
            out[c] = acc if lead == 1 else {k: Fraction(v, lead) for k, v in acc.items()}
        return out

    def kernel(self, ncols: int) -> list:
        """Deterministic kernel basis of the row system, one sparse vector
        {column: nonzero exact rational} per free column in ascending order:
        1 at its free column, minus that column's rref entry at each pivot.
        """
        rref = self.rref()
        basis = {f: {f: 1} for f in range(ncols) if f not in rref}
        for c, row in rref.items():
            for f, v in row.items():
                # an rref row is zero at every other pivot column
                if f != c:
                    basis[f][c] = -v
        return list(basis.values())
