"""The theorem checks on Hopf monoids and their morphisms.

The ideal k_+ h of a sub-monoid and the Lagrange factorization
dim h[n] = sum_i C(n,i) dim k[i] q_{n-i}, its dual for a quotient with the
Hopf kernel in place of q, the PBW identity between the primitive and the
dimension series of a cocommutative monoid, and the generation of the Hopf
kernel by products of Lie-kernel elements. The commands `lagrange` and
`pbw-check` run them, on the kernel spaces of `kernels`.
"""

from __future__ import annotations

import itertools
from math import comb

from .echelon import Echelon
from .kernels import (SubspaceBasis, _block, hker_dims, hker_space, lker_space,
                      primitive_dims)
from .reports import FAIL, PASS, TestReport
from .species import EMPTY, FiniteSet, block_partitions, labelset
from .structures import HopfMonoid, HopfMorphism, iterated_product
from .vectors import QVector


class NotInjective(ValueError):
    """A morphism required to be injective has a kernel."""


class NotSurjective(ValueError):
    """A morphism required to be surjective misses part of the target."""


class NotCocommutative(ValueError):
    """A construction valid only for cocommutative Hopf monoids."""


# ---------------------------------------------------------------------------
# The ideal k_+ h and the Lagrange factorization
# ---------------------------------------------------------------------------

def _require_full_rank(f: HopfMorphism, nmax: int, error) -> None:
    """Raise `error`, NotInjective or NotSurjective, at the first size up to
    nmax where the rank of f, its (I, empty) block, falls short of the
    dimension of its source or of its target."""
    injective = error is NotInjective
    sp = (f.source if injective else f.target).species
    for n in range(nmax + 1):
        I = labelset(n)
        ech = Echelon()
        for row in _block(f.source, f.source.species.structures(I), I, EMPTY,
                          f).values():
            ech.add(row)
        if ech.rank != sp.dimension(I):
            raise error("%s is not %s at size %d" % (
                f.name, "injective" if injective else "surjective", n))


def ideal_kplus_h(f: HopfMorphism, I: FiniteSet) -> SubspaceBasis:
    """Span of mu_{S,T}(f(k[S]) . h[T]) over decompositions with S nonempty,
    inside the component h[I] of the big Hopf monoid. Each generator's row
    is summed from the pairs of f(x) and of mu_{S,T}(t . y), as the kernel
    rows are, and goes straight into the echelon."""
    h = f.target
    out = SubspaceBasis(I, h.species.structures(I))
    index = out.index
    add = out._ech.add
    product = h.product
    for S, T in I.decompositions():
        if not S.labels:
            continue
        ys = h.species.structures(T)
        for x in f.source.species.structures(S):
            fx = f.on_basis(x)
            for y in ys:
                row: dict = {}
                for t, d in fx:
                    for z, c in product(S, T, t, y):
                        j = index[z]
                        row[j] = row.get(j, 0) + c * d
                add(row)
    return out


def _factorization(name: str, hdims: list, kdims: list, d: list,
                   details: dict) -> TestReport:
    """dim h[n] = sum_i C(n,i) dim k[i] d[n-i] at every size, with the first
    size where it fails as the witness."""
    for n, hdim in enumerate(hdims):
        total = sum(comb(n, i) * kdims[i] * d[n - i] for i in range(n + 1))
        if total != hdim:
            return TestReport(name, FAIL, first_violation=n,
                              witness={"dim h[n]": hdim, "convolution": total},
                              details=details)
    return TestReport(name, PASS, details=details)


def lagrange_quotient_dims(f: HopfMorphism, nmax: int) -> list:
    """Quotient dimensions q_n = dim h[n] - dim (k_+ h)[n] for an injective
    morphism of Hopf monoids k -> h."""
    _require_full_rank(f, nmax, NotInjective)
    # the ideal's ambient basis is h[n], so dim h[n] is read off it
    ideals = (ideal_kplus_h(f, labelset(n)) for n in range(nmax + 1))
    return [len(ideal.coords) - ideal.dim for ideal in ideals]


def lagrange_factorization_check(f: HopfMorphism, nmax: int) -> TestReport:
    """For an injection k -> h: dim h[n] = sum_i C(n,i) dim k[i] q_{n-i}."""
    q = lagrange_quotient_dims(f, nmax)
    return _factorization("lagrange-factorization", f.target.species.dims(nmax),
                          f.source.species.dims(nmax), q, {"quotient_dims": q})


def dual_factorization_check(f: HopfMorphism, nmax: int) -> TestReport:
    """For a surjection h ->> k: dim h[n] = sum_i C(n,i) dim k[i] dim Hker[n-i]."""
    _require_full_rank(f, nmax, NotSurjective)
    d = hker_dims(f, nmax)
    return _factorization("dual-factorization", f.source.species.dims(nmax),
                          f.target.species.dims(nmax), d, {"hker_dims": d})


# ---------------------------------------------------------------------------
# PBW series identity and generation of Hker by Lker
# ---------------------------------------------------------------------------

def _require_cocommutative(h: HopfMonoid, nmax: int):
    # the axiom battery is loaded by the two checks that need it, not by
    # every command that computes a kernel
    from .axioms import check_cocommutative
    rep = check_cocommutative(h, min(nmax, 4))
    if not rep.ok:
        raise NotCocommutative(rep.summary())


def pbw_series_check(h: HopfMonoid, nmax: int) -> TestReport:
    """exp of the primitive-dimension exponential series must equal the
    exponential series of a cocommutative connected Hopf monoid."""
    # the series layer is loaded here only, not by every kernel command
    from .exactalg import egf_from_counts
    _require_cocommutative(h, nmax)
    pdims = primitive_dims(h, nmax)
    lhs = egf_from_counts(pdims).exp()
    rhs = egf_from_counts([h.species.dimension(n) for n in range(nmax + 1)])
    if lhs == rhs:
        return TestReport("pbw-series", PASS,
                          details={"primitive_dims": pdims,
                                   "egf": rhs.to_json()})
    bad = min(n for n in range(nmax + 1) if lhs[n] != rhs[n])
    return TestReport("pbw-series", FAIL, first_violation=bad,
                      witness={"exp(primitives)": lhs[bad], "egf": rhs[bad]},
                      details={"primitive_dims": pdims})


def hker_generated_check(f: HopfMorphism, nmax: int) -> TestReport:
    """The span of all products of Lie-kernel elements over set compositions
    must equal the Hopf kernel, size by size.

    Blocks are restricted to sizes where the Lie kernel is nonzero; other
    block sizes contribute nothing to the span. The Lie-kernel spaces, asked
    for again at every size, are kept in a dict that lives for this call.
    """
    _require_cocommutative(f.source, nmax)
    _require_cocommutative(f.target, nmax)
    _require_full_rank(f, nmax, NotSurjective)
    lker: dict = {}

    def lie(S: FiniteSet) -> SubspaceBasis:
        if S.labels not in lker:
            lker[S.labels] = lker_space(f, S)
        return lker[S.labels]

    dims_checked = []
    for n in range(nmax + 1):
        I = labelset(n)
        hk = hker_space(f, I)
        sizes = [s for s in range(1, n + 1) if lie(labelset(s)).dim > 0]
        gen = SubspaceBasis(I, f.source.species.structures(I))
        if n == 0:
            gen.add(QVector.basis(f.source.one()))
        else:
            for blocks in block_partitions(I.labels, sizes):
                for comp in itertools.permutations(map(FiniteSet._fast, blocks)):
                    choices = [lie(S).vectors() for S in comp]
                    for pick in itertools.product(*choices):
                        gen.add(iterated_product(f.source, comp, pick))
        if not gen.same_span(hk):
            return TestReport("hker-generated", FAIL, first_violation=n,
                              witness={"span_dim": gen.dim, "hker_dim": hk.dim})
        dims_checked.append(hk.dim)
    return TestReport("hker-generated", PASS, details={"hker_dims": dims_checked})
