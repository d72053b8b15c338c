"""Exact vectors and tensors over a fixed label set.

A `QVector` is a sparse combination of structures on one label set, a
`QTensor` one of pairs (structure on S, structure on T); coefficients are
int or `fractions.Fraction`, never floating point. This layer is kept out
of `species`, so that counting a species loads no `fractions`: only the
commands that evaluate structure maps or print vectors load it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .species import FiniteSet, Structure


def qstr(x) -> str:
    """Render an exact number as 'p' or 'p/q'. Never a decimal."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return "%d/%d" % (x.numerator, x.denominator)
    return str(int(x)) if isinstance(x, (int, Fraction)) else str(x)


def terms_text(items, key_text) -> str:
    """Print sorted (key, coeff) pairs as a signed sum, '0' when empty."""
    parts = []
    for key, c in items:
        parts.append(("- " if c < 0 else ("+ " if parts else ""))
                     + ("" if abs(c) == 1 else qstr(abs(c)) + "*") + key_text(key))
    return " ".join(parts) if parts else "0"


def tensor_text(key) -> str:
    """A tuple of structures printed as a tensor, 'a|b (x) c'."""
    return " (x) ".join(x.text() for x in key)


def check_coeff(c):
    """Refuse a coefficient that is not an exact int or Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("exact coefficient expected, got %r" % (c,))


def summed(pairs) -> dict:
    """The nonzero sums of (key, coefficient) pairs by key; each coefficient
    must be exact."""
    acc = {}
    for key, c in pairs:
        check_coeff(c)
        acc[key] = acc[key] + c if key in acc else c
    return {key: c for key, c in acc.items() if c}


class _Combination:
    """A sparse exact combination: keys -> nonzero int or Fraction coefficients.

    Coefficients are kept as given, so integer data stays integer; Fractions
    appear only where a caller divides. `terms` may be a dict or an iterable
    of (key, coeff) pairs with repeated keys, which are summed once here.
    Subclasses fix the ambient (`_frame`), the key check and the key printer.
    """

    __slots__ = ("terms",)

    def _collect(self, terms):
        self.terms = summed(terms.items() if isinstance(terms, dict) else terms or ())
        self._check_keys()

    def _like(self, terms):
        return type(self)(*self._frame(), terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        return self._like(itertools.chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self._like(itertools.chain(
            self.terms.items(), ((k, -c) for k, c in other.terms.items())))

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (type(other) is type(self) and self._frame() == other._frame()
                and self.terms == other.terms)

    def __hash__(self):
        return hash(self._frame() + (tuple(self.items()),))

    def __repr__(self):
        return terms_text(self.items(), self._key_text)


class QVector(_Combination):
    """A sparse exact-rational combination of structures on one label set."""

    __slots__ = ("ambient",)

    def __init__(self, ambient: FiniteSet, terms=None):
        self.ambient = ambient
        self._collect(terms)

    def _frame(self):
        return (self.ambient,)

    def _check_keys(self):
        for s in self.terms:
            self.check_key(self.ambient, s)

    @staticmethod
    def check_key(ambient: FiniteSet, s: Structure) -> None:
        # the labels tuples compare in C; FiniteSet.__eq__ would not
        if s._labels.labels != ambient.labels:
            raise ValueError("structure %r not on ambient %r" % (s, ambient))

    @staticmethod
    def _key_text(s):
        return s.text()

    @classmethod
    def basis(cls, s: Structure, coeff=1) -> "QVector":
        # s lies on its own label set, so only the coefficient needs a check
        check_coeff(coeff)
        out = object.__new__(cls)
        out.ambient = s.labels
        out.terms = {s: coeff} if coeff else {}
        return out

    @classmethod
    def zero(cls, ambient: FiniteSet) -> "QVector":
        return cls(ambient)

    def coordinates(self, basis_index: dict) -> dict:
        """Sparse coordinate row {index: coeff} for a fixed basis ordering."""
        return {basis_index[s]: c for s, c in self.terms.items()}

    def to_json(self) -> dict:
        return {"ambient": list(self.ambient),
                "terms": [{"structure": s.text(), "coeff": qstr(c)}
                          for s, c in self.items()]}


class QTensor(_Combination):
    """A sparse combination of pairs (structure on S, structure on T)."""

    __slots__ = ("left", "right")

    def __init__(self, left: FiniteSet, right: FiniteSet, terms=None):
        self.left = left
        self.right = right
        self._collect(terms)

    def _frame(self):
        return (self.left, self.right)

    def _check_keys(self):
        for key in self.terms:
            self.check_key(self.left, self.right, key)

    @staticmethod
    def check_key(left: FiniteSet, right: FiniteSet, key: tuple) -> None:
        x, y = key
        if x._labels.labels != left.labels or y._labels.labels != right.labels:
            raise ValueError("tensor term (%r, %r) off ambient (%r, %r)"
                             % (x, y, left, right))

    _key_text = staticmethod(tensor_text)

    @classmethod
    def basis(cls, x: Structure, y: Structure, coeff=1) -> "QTensor":
        # (x, y) lies on its own label sets, so only the coefficient needs a check
        check_coeff(coeff)
        out = object.__new__(cls)
        out.left = x.labels
        out.right = y.labels
        out.terms = {(x, y): coeff} if coeff else {}
        return out

    @classmethod
    def zero(cls, left: FiniteSet, right: FiniteSet) -> "QTensor":
        return cls(left, right)
