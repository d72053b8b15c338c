"""Exhaustive small-size verification of Hopf monoid and morphism axioms.

Every check walks all label sets of size up to nmax (one canonical set per
size), all decompositions, and all basis elements. There is no sampling:
the state spaces are small and exactness is the point. Naturality is
checked along generators only (see `_bijection_pool`), which decides it for
every bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .species import (ALPHABET, EMPTY, SIZE_CAP, FiniteSet, labelset, summed,
                      tensor_text, terms_text)
from .structures import HopfMonoid, HopfMorphism

# The fresh labels of `_bijection_pool`'s shift: SIZE_CAP letters from "p"
# on ("pqrstuvwx" at the cap of 9), so they never meet labelset(SIZE_CAP).
SHIFT_ALPHABET = ALPHABET[ALPHABET.index("p"):][:SIZE_CAP]
if len(SHIFT_ALPHABET) < SIZE_CAP:
    raise ValueError("no %d fresh labels for the shift bijection" % SIZE_CAP)


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
        """Record a violation. A side given as a coefficient dict prints as
        a signed sum of structures, or of tensors where its keys are tuples."""
        left, right = (terms_text(sorted(side.items()), lambda k: tensor_text(
            k if isinstance(k, tuple) else (k,))) if isinstance(side, dict)
            else str(side) for side in (left, right))
        self.violations.append(Violation(axiom, size, context, left, right))

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


def _memo(h: HopfMonoid):
    """h's product and coproduct, each evaluated once per key. A check that
    asks for the same values again makes one memo and drops it when it
    returns."""
    memo: dict = {}

    def mu(S, T, x, y) -> tuple:
        key = (S.labels, x, y)
        got = memo.get(key)
        if got is None:
            got = memo[key] = h.product(S, T, x, y)
        return got

    def delta(S, T, s) -> tuple:
        key = (S.labels, s)
        got = memo.get(key)
        if got is None:
            got = memo[key] = h.coproduct(S, T, s)
        return got
    return mu, delta


def check_monoid(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Associativity over all triple decompositions, and the unit laws."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    mu, _ = _memo(h)
    for I in _sets(nmax):
        n = len(I)
        for s in h.species.structures(I):
            for axiom, got in (("left-unit", summed(mu(EMPTY, I, h.one(), s))),
                               ("right-unit", summed(mu(I, EMPTY, s, h.one())))):
                if got != {s: 1}:
                    rep.record(axiom, n, s.text(), got, {s: 1})
        for R, S, T in I.triple_decompositions():
            RS, ST = R.union(S), S.union(T)
            for x in h.species.structures(R):
                for y in h.species.structures(S):
                    xy = mu(R, S, x, y)
                    for z in h.species.structures(T):
                        lhs = summed((s, c * d) for w, c in xy
                                     for s, d in mu(RS, T, w, z))
                        rhs = summed((s, c * d) for w, c in mu(S, T, y, z)
                                     for s, d in mu(R, ST, x, w))
                        if lhs != rhs:
                            rep.record("associativity", n,
                                       "R=%r S=%r T=%r x=%s y=%s z=%s"
                                       % (R, S, T, x.text(), y.text(), z.text()),
                                       lhs, rhs)
    return rep


def check_comonoid(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Coassociativity over all triple decompositions, and the counit laws."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    _, delta = _memo(h)
    for I in _sets(nmax):
        n = len(I)
        for s in h.species.structures(I):
            for axiom, got, want in (
                    ("left-counit", summed(delta(EMPTY, I, s)), {(h.one(), s): 1}),
                    ("right-counit", summed(delta(I, EMPTY, s)), {(s, h.one()): 1})):
                if got != want:
                    rep.record(axiom, n, s.text(), got, want)
        for R, S, T in I.triple_decompositions():
            RS, ST = R.union(S), S.union(T)
            for s in h.species.structures(I):
                lhs = [((u1, u2, w), c1 * c2)
                       for (u, w), c1 in delta(RS, T, s)
                       for (u1, u2), c2 in delta(R, S, u)]
                rhs = [((u, w1, w2), c1 * c2)
                       for (u, w), c1 in delta(R, ST, s)
                       for (w1, w2), c2 in delta(S, T, w)]
                # two single equal terms with a nonzero coefficient agree
                # as sums; only the other cases need the summed dicts
                if len(lhs) == len(rhs) == 1 and lhs == rhs and lhs[0][1]:
                    continue
                lhs, rhs = summed(lhs), summed(rhs)
                if lhs != rhs:
                    rep.record("coassociativity", n,
                               "R=%r S=%r T=%r s=%s" % (R, S, T, s.text()),
                               lhs, rhs)
    return rep


def check_compat(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Delta_{S,T} after mu_{S,T} is the identity, plus the general
    product/coproduct exchange law over the four intersections."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    mu, delta = _memo(h)
    for I in _sets(nmax):
        n = len(I)
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    back = summed((k, c * d) for z, c in mu(S, T, x, y)
                                  for k, d in delta(S, T, z))
                    if back != {(x, y): 1}:
                        rep.record("delta-mu-identity", n,
                                   "S=%r T=%r x=%s y=%s" % (S, T, x.text(), y.text()),
                                   back, {(x, y): 1})
        for A, B in I.decompositions():
            for S, T in I.decompositions():
                AS, AT = A.restrict(S), A.restrict(T)
                BS, BT = B.restrict(S), B.restrict(T)
                for x in h.species.structures(A):
                    dx = delta(AS, AT, x)
                    for y in h.species.structures(B):
                        dy = delta(BS, BT, y)
                        lhs = summed((k, c * d) for z, c in mu(A, B, x, y)
                                     for k, d in delta(S, T, z))
                        rhs = summed(((s1, s2), c1 * c2 * d1 * d2)
                                     for (x1, x2), c1 in dx
                                     for (y1, y2), c2 in dy
                                     for s1, d1 in mu(AS, BS, x1, y1)
                                     for s2, d2 in mu(AT, BT, x2, y2))
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
    mu, delta = _memo(h)
    for I in _sets(nmax):
        n = len(I)
        for sigma in _bijection_pool(I):
            rel: dict = {}

            def relab(s, rel=rel, sigma=sigma):
                got = rel.get(s)
                if got is None:
                    got = rel[s] = s.relabel(sigma)
                return got

            for S, T in I.decompositions():
                sS = FiniteSet(sigma[t] for t in S)
                sT = FiniteSet(sigma[t] for t in T)
                for x in h.species.structures(S):
                    sx = relab(x)
                    for y in h.species.structures(T):
                        moved = summed((relab(z), c) for z, c in mu(S, T, x, y))
                        rhs = summed(mu(sS, sT, sx, relab(y)))
                        if moved != rhs:
                            rep.record("mu-naturality", n,
                                       "S=%r T=%r sigma=%r x=%s y=%s"
                                       % (S, T, sigma, x.text(), y.text()),
                                       summed(mu(S, T, x, y)), rhs)
                for s in h.species.structures(I):
                    moved = summed(((relab(u), relab(w)), c)
                                   for (u, w), c in delta(S, T, s))
                    rhs = summed(delta(sS, sT, relab(s)))
                    if moved != rhs:
                        rep.record("delta-naturality", n,
                                   "S=%r T=%r sigma=%r s=%s" % (S, T, sigma, s.text()),
                                   summed(delta(S, T, s)), rhs)
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
                    v = summed(h.product(S, T, x, y))
                    if sorted(v.values()) != [1]:
                        rep.record("linearized-product", n,
                                   "S=%r T=%r x=%s y=%s" % (S, T, x.text(), y.text()),
                                   v, "one basis element")
            for s in h.species.structures(I):
                t = summed(h.coproduct(S, T, s))
                if t and sorted(t.values()) != [1]:
                    rep.record("linearized-coproduct", n,
                               "S=%r T=%r s=%s" % (S, T, s.text()),
                               t, "one basis tensor or zero")
    return rep


def check_cocommutative(h: HopfMonoid, nmax: int) -> AxiomReport:
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    _, delta = _memo(h)
    for I in _sets(nmax):
        for S, T in I.decompositions():
            for s in h.species.structures(I):
                lhs = summed(((y, x), c) for (x, y), c in delta(S, T, s))
                rhs = summed(delta(T, S, s))
                if lhs != rhs:
                    rep.record("cocommutativity", len(I),
                               "S=%r T=%r s=%s" % (S, T, s.text()), lhs, rhs)
    return rep


def check_commutative(h: HopfMonoid, nmax: int) -> AxiomReport:
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    mu, _ = _memo(h)
    for I in _sets(nmax):
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    lhs, rhs = summed(mu(S, T, x, y)), summed(mu(T, S, y, x))
                    if lhs != rhs:
                        rep.record("commutativity", len(I),
                                   "S=%r T=%r x=%s y=%s" % (S, T, x.text(), y.text()),
                                   lhs, rhs)
    return rep


def check_morphism(f: HopfMorphism, nmax: int) -> AxiomReport:
    """f is unital, multiplicative, comultiplicative and natural."""
    rep = AxiomReport(f.name, list(range(nmax + 1)))
    h, k = f.source, f.target
    kmu, kdelta = _memo(k)
    unit = summed(f.on_basis(h.one()))
    if unit != {k.one(): 1}:
        rep.record("unit-preservation", 0, "empty set", unit, {k.one(): 1})
    for I in _sets(nmax):
        n = len(I)
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                fx = f.on_basis(x)
                for y in h.species.structures(T):
                    lhs = summed((t, c * d) for z, c in h.product(S, T, x, y)
                                 for t, d in f.on_basis(z))
                    rhs = summed((t, c1 * c2 * d) for x1, c1 in fx
                                 for y1, c2 in f.on_basis(y)
                                 for t, d in kmu(S, T, x1, y1))
                    if lhs != rhs:
                        rep.record("f-mu", n, "S=%r T=%r x=%s y=%s"
                                   % (S, T, x.text(), y.text()), lhs, rhs)
            for s in h.species.structures(I):
                lhs = summed(((s1, s2), c * c1 * c2)
                             for (u, w), c in h.coproduct(S, T, s)
                             for s1, c1 in f.on_basis(u)
                             for s2, c2 in f.on_basis(w))
                rhs = summed((key, c * d) for t, c in f.on_basis(s)
                             for key, d in kdelta(S, T, t))
                if lhs != rhs:
                    rep.record("f-delta", n, "S=%r T=%r s=%s" % (S, T, s.text()),
                               lhs, rhs)
        for sigma in _bijection_pool(I):
            for s in h.species.structures(I):
                lhs = summed((t.relabel(sigma), c) for t, c in f.on_basis(s))
                rhs = summed(f.on_basis(s.relabel(sigma)))
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
