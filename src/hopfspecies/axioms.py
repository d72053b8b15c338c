"""Exhaustive small-size verification of Hopf monoid and morphism axioms.

Every check walks all label sets of size up to nmax (one canonical set per
size), all decompositions, and all basis elements. There is no sampling:
the state spaces are small and exactness is the point. Naturality is
checked along generators only (see `_bijection_pool`), which decides it for
every bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .species import (EMPTY, FiniteSet, QTensor, QVector, labelset,
                      tensor_text, terms_text)
from .structures import (HopfMonoid, HopfMorphism, coproduct_vector,
                         product_vectors)

SHIFT_ALPHABET = "pqrstuvwx"


@dataclass
class Violation:
    axiom: str
    size: int
    context: str
    left: str
    right: str

    def to_json(self):
        return {"axiom": self.axiom, "size": self.size, "context": self.context,
                "left": self.left, "right": self.right}

    def sort_key(self):
        return (self.axiom, self.size, self.context)


@dataclass
class AxiomReport:
    subject: str
    checked_sizes: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, axiom, size, context, left, right):
        self.violations.append(Violation(axiom, size, context, str(left), str(right)))

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        out = AxiomReport(self.subject,
                          sorted(set(self.checked_sizes) | set(other.checked_sizes)))
        out.violations = sorted(self.violations + other.violations,
                                key=Violation.sort_key)
        return out

    def to_json(self):
        return {"subject": self.subject, "checked_sizes": self.checked_sizes,
                "ok": self.ok,
                "violations": [v.to_json() for v in self.violations]}

    def summary(self) -> str:
        if self.ok:
            return "%s: all axioms hold at sizes %s" % (self.subject, self.checked_sizes)
        head = self.violations[0]
        return "%s: %d violation(s); first: %s at size %d (%s): %s != %s" % (
            self.subject, len(self.violations), head.axiom, head.size,
            head.context, head.left, head.right)


def _sets(nmax: int):
    return [labelset(n) for n in range(nmax + 1)]


def check_monoid(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Associativity over all triple decompositions, and the unit laws."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    for I in _sets(nmax):
        n = len(I)
        for s in h.species.structures(I):
            if h.product(EMPTY, I, h.one(), s) != QVector.basis(s):
                rep.record("left-unit", n, s.text(), h.product(EMPTY, I, h.one(), s),
                           QVector.basis(s))
            if h.product(I, EMPTY, s, h.one()) != QVector.basis(s):
                rep.record("right-unit", n, s.text(), h.product(I, EMPTY, s, h.one()),
                           QVector.basis(s))
        for R, S, T in I.triple_decompositions():
            RS, ST = R.union(S), S.union(T)
            for x in h.species.structures(R):
                for y in h.species.structures(S):
                    xy = h.product(R, S, x, y)
                    for z in h.species.structures(T):
                        lhs = product_vectors(h, RS, T, xy, QVector.basis(z))
                        rhs = product_vectors(h, R, ST, QVector.basis(x),
                                              h.product(S, T, y, z))
                        if lhs != rhs:
                            rep.record("associativity", n,
                                       "R=%r S=%r T=%r x=%s y=%s z=%s"
                                       % (R, S, T, x.text(), y.text(), z.text()),
                                       lhs, rhs)
    return rep


def check_comonoid(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Coassociativity over all triple decompositions, and the counit laws."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    for I in _sets(nmax):
        n = len(I)
        for s in h.species.structures(I):
            if h.coproduct(EMPTY, I, s) != QTensor.basis(h.one(), s):
                rep.record("left-counit", n, s.text(), h.coproduct(EMPTY, I, s),
                           QTensor.basis(h.one(), s))
            if h.coproduct(I, EMPTY, s) != QTensor.basis(s, h.one()):
                rep.record("right-counit", n, s.text(), h.coproduct(I, EMPTY, s),
                           QTensor.basis(s, h.one()))
        for R, S, T in I.triple_decompositions():
            RS, ST = R.union(S), S.union(T)
            for s in h.species.structures(I):
                lhs = {}
                for (u, w), c1 in h.coproduct(RS, T, s).terms.items():
                    for (u1, u2), c2 in h.coproduct(R, S, u).terms.items():
                        key = (u1, u2, w)
                        lhs[key] = lhs.get(key, 0) + c1 * c2
                rhs = {}
                for (u, w), c1 in h.coproduct(R, ST, s).terms.items():
                    for (w1, w2), c2 in h.coproduct(S, T, w).terms.items():
                        key = (u, w1, w2)
                        rhs[key] = rhs.get(key, 0) + c1 * c2
                lhs = {k: v for k, v in lhs.items() if v}
                rhs = {k: v for k, v in rhs.items() if v}
                if lhs != rhs:
                    rep.record("coassociativity", n,
                               "R=%r S=%r T=%r s=%s" % (R, S, T, s.text()),
                               terms_text(sorted(lhs.items()), tensor_text),
                               terms_text(sorted(rhs.items()), tensor_text))
    return rep


def check_compat(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Delta_{S,T} after mu_{S,T} is the identity, plus the general
    product/coproduct exchange law over the four intersections."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    for I in _sets(nmax):
        n = len(I)
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    back = coproduct_vector(h, S, T, h.product(S, T, x, y))
                    if back != QTensor.basis(x, y):
                        rep.record("delta-mu-identity", n,
                                   "S=%r T=%r x=%s y=%s" % (S, T, x.text(), y.text()),
                                   back, QTensor.basis(x, y))
        for A, B in I.decompositions():
            for S, T in I.decompositions():
                AS, AT = A.restrict(S), A.restrict(T)
                BS, BT = B.restrict(S), B.restrict(T)
                for x in h.species.structures(A):
                    dx = h.coproduct(AS, AT, x)
                    for y in h.species.structures(B):
                        dy = h.coproduct(BS, BT, y)
                        lhs = coproduct_vector(h, S, T, h.product(A, B, x, y))
                        rhs = QTensor(S, T, (
                            ((s1, s2), c1 * c2 * d1 * d2)
                            for (x1, x2), c1 in dx.terms.items()
                            for (y1, y2), c2 in dy.terms.items()
                            for s1, d1 in h.product(AS, BS, x1, y1).terms.items()
                            for s2, d2 in h.product(AT, BT, x2, y2).terms.items()))
                        if lhs != rhs:
                            rep.record("exchange", n,
                                       "A=%r B=%r S=%r T=%r x=%s y=%s"
                                       % (A, B, S, T, x.text(), y.text()), lhs, rhs)
    return rep


def _bijection_pool(I: FiniteSet):
    """The n-1 adjacent transpositions of I and one bijection onto fresh
    labels.

    Every bijection from I to I, or from I to the fresh labels, is a
    composite of these; a check that holds for two bijections at every
    decomposition and structure holds for their composite, so these decide
    naturality along all of them.
    """
    toks = tuple(I)
    pool = []
    for i in range(len(toks) - 1):
        sigma = dict(zip(toks, toks))
        sigma[toks[i]], sigma[toks[i + 1]] = toks[i + 1], toks[i]
        pool.append(sigma)
    if toks:
        pool.append(dict(zip(toks, SHIFT_ALPHABET)))
    return pool


def check_naturality(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Structure maps commute with relabeling along bijections, checked
    along the generators of `_bijection_pool`."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    for I in _sets(nmax):
        n = len(I)
        for sigma in _bijection_pool(I):
            rel: dict = {}

            def relab(s, rel=rel, sigma=sigma):
                got = rel.get(s)
                if got is None:
                    got = s.relabel(sigma)
                    rel[s] = got
                return got

            for S, T in I.decompositions():
                sS = FiniteSet(sigma[t] for t in S)
                sT = FiniteSet(sigma[t] for t in T)
                for x in h.species.structures(S):
                    sx = relab(x)
                    for y in h.species.structures(T):
                        lhs = h.product(S, T, x, y)
                        rhs = h.product(sS, sT, sx, relab(y))
                        if {relab(s): c for s, c in lhs.terms.items()} != rhs.terms:
                            rep.record("mu-naturality", n,
                                       "S=%r T=%r sigma=%r x=%s y=%s"
                                       % (S, T, sigma, x.text(), y.text()), lhs, rhs)
                for s in h.species.structures(I):
                    lhs = h.coproduct(S, T, s)
                    rhs = h.coproduct(sS, sT, relab(s))
                    moved = {(relab(u), relab(w)): c
                             for (u, w), c in lhs.terms.items()}
                    if moved != rhs.terms:
                        rep.record("delta-naturality", n,
                                   "S=%r T=%r sigma=%r s=%s"
                                   % (S, T, sigma, s.text()), lhs, rhs)
    return rep


def check_connected(h: HopfMonoid) -> AxiomReport:
    rep = AxiomReport(h.name, [0])
    # the battery keeps the structures on the empty set anyway
    dim0 = len(h.species.structures(EMPTY))
    if dim0 != 1:
        rep.record("connectedness", 0, "dim at empty set = %d" % dim0, dim0, 1)
    return rep


def is_linearized(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Products are single basis elements with coefficient 1; coproducts are
    single basis tensors with coefficient 1, or zero."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    for I in _sets(nmax):
        n = len(I)
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    v = h.product(S, T, x, y)
                    if sorted(v.terms.values()) != [1]:
                        rep.record("linearized-product", n,
                                   "S=%r T=%r x=%s y=%s" % (S, T, x.text(), y.text()),
                                   v, "one basis element")
            for s in h.species.structures(I):
                t = h.coproduct(S, T, s)
                if t.terms and sorted(t.terms.values()) != [1]:
                    rep.record("linearized-coproduct", n,
                               "S=%r T=%r s=%s" % (S, T, s.text()),
                               t, "one basis tensor or zero")
    return rep


def check_cocommutative(h: HopfMonoid, nmax: int) -> AxiomReport:
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    for I in _sets(nmax):
        n = len(I)
        for S, T in I.decompositions():
            for s in h.species.structures(I):
                lhs = h.coproduct(S, T, s).swap()
                rhs = h.coproduct(T, S, s)
                if lhs != rhs:
                    rep.record("cocommutativity", n,
                               "S=%r T=%r s=%s" % (S, T, s.text()), lhs, rhs)
    return rep


def check_commutative(h: HopfMonoid, nmax: int) -> AxiomReport:
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    for I in _sets(nmax):
        n = len(I)
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    lhs = h.product(S, T, x, y)
                    rhs = h.product(T, S, y, x)
                    if lhs != rhs:
                        rep.record("commutativity", n,
                                   "S=%r T=%r x=%s y=%s" % (S, T, x.text(), y.text()),
                                   lhs, rhs)
    return rep


def check_morphism(f: HopfMorphism, nmax: int) -> AxiomReport:
    """f is unital, multiplicative, comultiplicative and natural."""
    rep = AxiomReport(f.name, list(range(nmax + 1)))
    h, k = f.source, f.target
    if f.on_basis(h.one()) != QVector.basis(k.one()):
        rep.record("unit-preservation", 0, "empty set", f.on_basis(h.one()),
                   QVector.basis(k.one()))
    for I in _sets(nmax):
        n = len(I)
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                fx = f.on_basis(x)
                for y in h.species.structures(T):
                    lhs = f(h.product(S, T, x, y))
                    rhs = product_vectors(k, S, T, fx, f.on_basis(y))
                    if lhs != rhs:
                        rep.record("f-mu", n, "S=%r T=%r x=%s y=%s"
                                   % (S, T, x.text(), y.text()), lhs, rhs)
            for s in h.species.structures(I):
                lhs = QTensor(S, T, (
                    ((s1, s2), c * c1 * c2)
                    for (u, w), c in h.coproduct(S, T, s).terms.items()
                    for s1, c1 in f.on_basis(u).terms.items()
                    for s2, c2 in f.on_basis(w).terms.items()))
                rhs = coproduct_vector(k, S, T, f.on_basis(s))
                if lhs != rhs:
                    rep.record("f-delta", n, "S=%r T=%r s=%s" % (S, T, s.text()),
                               lhs, rhs)
        for sigma in _bijection_pool(I):
            for s in h.species.structures(I):
                lhs = f.on_basis(s).relabel(sigma)
                rhs = f.on_basis(s.relabel(sigma))
                if lhs != rhs:
                    rep.record("f-naturality", n, "sigma=%r s=%s" % (sigma, s.text()),
                               lhs, rhs)
    return rep


def check_all(h: HopfMonoid, nmax: int) -> AxiomReport:
    """The full battery: monoid, comonoid, compatibility, naturality,
    connectedness and linearization, merged in a fixed order."""
    rep = check_connected(h)
    for chk in (check_monoid, check_comonoid, check_compat, check_naturality,
                is_linearized):
        rep = rep.merged(chk(h, nmax))
    return rep
