"""Exhaustive small-size verification of Hopf monoid and morphism axioms.

Every check walks all label sets of size up to nmax (one canonical set per
size), all decompositions, and all basis elements. There is no sampling:
the state spaces are small and exactness is the point. Naturality is
checked along generators only (see `_bijection_pool`), which decides it for
every bijection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .species import (ALPHABET, EMPTY, SIZE_CAP, FiniteSet, Structure,
                      labelset, summed, tensor_text, terms_text)
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

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def compare(self, axiom, size, context, lhs, rhs, shown=None):
        """Record a violation unless the (key, coefficient) sequences lhs
        and rhs sum alike. Equal sequences pass at once, so both sides are
        built as one sequence type; only differing ones are summed. The
        context, a format string and the objects it prints (structures by
        their text), and `shown`, printed in place of lhs, are read only
        for a violation."""
        if lhs == rhs:
            return
        left, right = summed(lhs), summed(rhs)
        if left != right:
            fmt, *objs = context
            self.record(axiom, size, fmt % tuple(
                o.text() if isinstance(o, Structure) else o for o in objs),
                left if shown is None else summed(shown), right)

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
    """Each size n up to nmax with its canonical label set."""
    return [(n, labelset(n)) for n in range(nmax + 1)]


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
    """Associativity over all triple decompositions. The unit laws are not
    compared: `HopfMonoid.product` gives them itself, returning the other
    factor whenever one side is empty, so no monoid can break them."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    mu, _ = _memo(h)
    for n, I in _sets(nmax):
        for R, S, T in I.triple_decompositions():
            RS, ST = R.union(S), S.union(T)
            for x in h.species.structures(R):
                for y in h.species.structures(S):
                    xy = mu(R, S, x, y)
                    for z in h.species.structures(T):
                        rep.compare("associativity", n,
                                    ("R=%r S=%r T=%r x=%s y=%s z=%s", R, S, T, x, y, z),
                                    [(s, c * d) for w, c in xy for s, d in mu(RS, T, w, z)],
                                    [(s, c * d) for w, c in mu(S, T, y, z)
                                     for s, d in mu(R, ST, x, w)])
    return rep


def check_comonoid(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Coassociativity over all triple decompositions. The counit laws are
    not compared: `HopfMonoid.coproduct` gives them itself, returning
    (1 . s) or (s . 1) whenever one side is empty, so no monoid can break
    them."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    _, delta = _memo(h)
    for n, I in _sets(nmax):
        for R, S, T in I.triple_decompositions():
            RS, ST = R.union(S), S.union(T)
            for s in h.species.structures(I):
                rep.compare("coassociativity", n, ("R=%r S=%r T=%r s=%s", R, S, T, s),
                            [((u1, u2, w), c1 * c2) for (u, w), c1 in delta(RS, T, s)
                             for (u1, u2), c2 in delta(R, S, u)],
                            [((u, w1, w2), c1 * c2) for (u, w), c1 in delta(R, ST, s)
                             for (w1, w2), c2 in delta(S, T, w)])
    return rep


def check_compat(h: HopfMonoid, nmax: int) -> AxiomReport:
    """Delta_{S,T} after mu_{S,T} is the identity, plus the general
    product/coproduct exchange law over the four intersections."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    mu, delta = _memo(h)
    for n, I in _sets(nmax):
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                for y in h.species.structures(T):
                    rep.compare("delta-mu-identity", n, ("S=%r T=%r x=%s y=%s", S, T, x, y),
                                [(k, c * d) for z, c in mu(S, T, x, y)
                                 for k, d in delta(S, T, z)], [((x, y), 1)])
        for A, B in I.decompositions():
            for S, T in I.decompositions():
                AS, AT = A.restrict(S), A.restrict(T)
                BS, BT = B.restrict(S), B.restrict(T)
                for x in h.species.structures(A):
                    dx = delta(AS, AT, x)
                    for y in h.species.structures(B):
                        dy = delta(BS, BT, y)
                        rep.compare("exchange", n,
                                    ("A=%r B=%r S=%r T=%r x=%s y=%s", A, B, S, T, x, y),
                                    [(k, c * d) for z, c in mu(A, B, x, y)
                                     for k, d in delta(S, T, z)],
                                    [((s1, s2), c1 * c2 * d1 * d2) for (x1, x2), c1 in dx
                                     for (y1, y2), c2 in dy for s1, d1 in mu(AS, BS, x1, y1)
                                     for s2, d2 in mu(AT, BT, x2, y2)])
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
    """Structure maps commute with relabeling along the generators of
    `_bijection_pool`; a violation shows the value before relabeling."""
    rep = AxiomReport(h.name, list(range(nmax + 1)))
    mu, delta = _memo(h)
    for n, I in _sets(nmax):
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
                        xy = mu(S, T, x, y)
                        rep.compare("mu-naturality", n,
                                    ("S=%r T=%r sigma=%r x=%s y=%s", S, T, sigma, x, y),
                                    tuple([(relab(z), c) for z, c in xy]),
                                    mu(sS, sT, sx, relab(y)), shown=xy)
                for s in h.species.structures(I):
                    st = delta(S, T, s)
                    rep.compare("delta-naturality", n,
                                ("S=%r T=%r sigma=%r s=%s", S, T, sigma, s),
                                tuple([((relab(u), relab(w)), c) for (u, w), c in st]),
                                delta(sS, sT, relab(s)), shown=st)
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
    for n, I in _sets(nmax):
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
    for n, I in _sets(nmax):
        for S, T in I.decompositions():
            for s in h.species.structures(I):
                rep.compare("cocommutativity", n, ("S=%r T=%r s=%s", S, T, s),
                            tuple([((y, x), c) for (x, y), c in delta(S, T, s)]),
                            delta(T, S, s))
    return rep


def check_morphism(f: HopfMorphism, nmax: int) -> AxiomReport:
    """f is unital, multiplicative, comultiplicative and natural."""
    rep = AxiomReport(f.name, list(range(nmax + 1)))
    h, k = f.source, f.target
    kmu, kdelta = _memo(k)
    rep.compare("unit-preservation", 0, ("empty set",), f.on_basis(h.one()),
                ((k.one(), 1),))
    for n, I in _sets(nmax):
        for S, T in I.decompositions():
            for x in h.species.structures(S):
                fx = f.on_basis(x)
                for y in h.species.structures(T):
                    rep.compare("f-mu", n, ("S=%r T=%r x=%s y=%s", S, T, x, y),
                                [(t, c * d) for z, c in h.product(S, T, x, y)
                                 for t, d in f.on_basis(z)],
                                [(t, c1 * c2 * d) for x1, c1 in fx
                                 for y1, c2 in f.on_basis(y) for t, d in kmu(S, T, x1, y1)])
            for s in h.species.structures(I):
                rep.compare("f-delta", n, ("S=%r T=%r s=%s", S, T, s),
                            [((s1, s2), c * c1 * c2) for (u, w), c in h.coproduct(S, T, s)
                             for s1, c1 in f.on_basis(u) for s2, c2 in f.on_basis(w)],
                            [(key, c * d) for t, c in f.on_basis(s)
                             for key, d in kdelta(S, T, t)])
        for sigma in _bijection_pool(I):
            for s in h.species.structures(I):
                rep.compare("f-naturality", n, ("sigma=%r s=%s", sigma, s),
                            tuple([(t.relabel(sigma), c) for t, c in f.on_basis(s)]),
                            f.on_basis(s.relabel(sigma)))
    return rep


def check_all(h: HopfMonoid, nmax: int) -> AxiomReport:
    """The full battery: monoid, comonoid, compatibility, naturality,
    connectedness and linearization, merged in a fixed order. A monoid
    that is not connected is refused at every size (ValueError from
    h.one()), since the empty-side coproducts need the unit."""
    h.one()
    rep = check_connected(h)
    for chk in (check_monoid, check_comonoid, check_compat, check_naturality,
                is_linearized):
        rep = rep.merged(chk(h, nmax))
    return rep
