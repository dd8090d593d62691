"""Exact scalar arithmetic for the oscillator series.

Every quantity produced by the symbolic pipeline is a finite sum of terms

    (rational coefficient) * alpha**(p/2) * lambda**a * J**b

with p an integer (half-integer powers of alpha are the natural currency
here) and a, b non-negative integers.  Coefficients are `fractions.Fraction`,
so all arithmetic is exact; floats appear only in `ScalarSeries.evaluate`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = [
    "Frozen",
    "ScalarTerm",
    "ScalarSeries",
    "DivergentIntegral",
    "NonPositiveAlpha",
    "OracleFailure",
]

class DivergentIntegral(ArithmeticError):
    """A wedge integral fails to decay (alpha <= 0 or a malformed integrand)."""


class NonPositiveAlpha(DivergentIntegral, ValueError):
    """Raised when a series is evaluated at alpha <= 0 (the metric diverges there)."""


class OracleFailure(RuntimeError):
    """A numeric cross-check could not produce a trustworthy value.

    Defined here, with no numpy import, so that the CLI can catch every
    oracle failure without loading the numeric stack.
    """


class Frozen:
    """An immutable record: its fields are its `__slots__`, which `__init__`
    sets by object.__setattr__.  It equals only a record of its own class
    with equal fields, hashes by them and prints as Name(field, ...).  Copy
    and pickle rebuild it through `__init__` from its fields in slot order,
    so each subclass lists `__slots__` in its `__init__` positional order.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"


def _finite(value: float, alpha: float, lam: float, j: float) -> float:
    """value, unless finite arguments gave a value beyond the float range."""
    if not math.isfinite(value) and all(map(math.isfinite, (alpha, lam, j))):
        raise OverflowError(f"the value at alpha={alpha!r}, lambda={lam!r}, j={j!r} overflows a float")
    return value


class ScalarTerm(Frozen):
    """One monomial: coeff * alpha**(alpha_half_pow/2) * lambda**lambda_pow * J**j_pow."""

    __slots__ = ("coeff", "alpha_half_pow", "lambda_pow", "j_pow")

    def __init__(self, coeff, alpha_half_pow: int = 0, lambda_pow: int = 0, j_pow: int = 0):
        if lambda_pow < 0 or j_pow < 0:
            raise ValueError("coupling powers must be non-negative")
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        _set = object.__setattr__  # the class refuses assignment
        _set(self, "coeff", coeff)
        _set(self, "alpha_half_pow", alpha_half_pow)
        _set(self, "lambda_pow", lambda_pow)
        _set(self, "j_pow", j_pow)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.lambda_pow, self.j_pow, self.alpha_half_pow)

    def evaluate(self, alpha: float, lam: float = 0.0, j: float = 0.0) -> float:
        if alpha <= 0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
        value = (
            float(self.coeff)
            * float(alpha) ** (self.alpha_half_pow / 2)
            * float(lam) ** self.lambda_pow
            * float(j) ** self.j_pow
        )
        return _finite(value, alpha, lam, j)


class ScalarSeries(Frozen):
    """Canonical sum of ScalarTerms, merged and sorted by (lambda_pow, j_pow, alpha_half_pow)."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[ScalarTerm, ...] = ()):
        object.__setattr__(self, "terms", terms)  # the class refuses assignment

    @classmethod
    def from_terms(cls, terms: Iterable[ScalarTerm]) -> "ScalarSeries":
        merged: dict[tuple[int, int, int], Fraction] = {}
        for t in terms:
            merged[t.key] = merged.get(t.key, Fraction(0)) + t.coeff
        out = [
            ScalarTerm(c, key[2], key[0], key[1])
            for key, c in merged.items()
            if c != 0
        ]
        out.sort(key=lambda t: t.key)
        return cls(tuple(out))

    @classmethod
    def term(
        cls,
        coeff,
        alpha_half_pow: int = 0,
        lambda_pow: int = 0,
        j_pow: int = 0,
    ) -> "ScalarSeries":
        c = Fraction(coeff)
        if c == 0:
            return cls()
        return cls((ScalarTerm(c, alpha_half_pow, lambda_pow, j_pow),))

    @classmethod
    def zero(cls) -> "ScalarSeries":
        return cls()

    @classmethod
    def one(cls) -> "ScalarSeries":
        return cls.term(1)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ScalarSeries") -> "ScalarSeries":
        return ScalarSeries.from_terms(self.terms + other.terms)

    def __neg__(self) -> "ScalarSeries":
        return ScalarSeries(
            tuple(
                ScalarTerm(-t.coeff, t.alpha_half_pow, t.lambda_pow, t.j_pow)
                for t in self.terms
            )
        )

    def __sub__(self, other: "ScalarSeries") -> "ScalarSeries":
        return self + (-other)

    def __mul__(self, other) -> "ScalarSeries":
        if isinstance(other, (int, Fraction)):
            other = ScalarSeries.term(other)
        if not isinstance(other, ScalarSeries):
            return NotImplemented
        prods = [
            ScalarTerm(
                a.coeff * b.coeff,
                a.alpha_half_pow + b.alpha_half_pow,
                a.lambda_pow + b.lambda_pow,
                a.j_pow + b.j_pow,
            )
            for a in self.terms
            for b in other.terms
        ]
        return ScalarSeries.from_terms(prods)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ScalarSeries":
        if n < 0:
            raise ValueError("negative series powers are not defined")
        out = ScalarSeries.one()
        for _ in range(n):
            out = out * self
        return out

    def truncate_lambda(self, max_pow: int) -> "ScalarSeries":
        return ScalarSeries(tuple(t for t in self.terms if t.lambda_pow <= max_pow))

    def evaluate(self, alpha: float, lam: float = 0.0, j: float = 0.0) -> float:
        if alpha <= 0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
        return _finite(sum(t.evaluate(alpha, lam, j) for t in self.terms), alpha, lam, j)

    # -- canonical text form ------------------------------------------------
    #
    # Example: "1/32 * a^-2 - 11/512 * l * a^-7/2"
    # Symbols: a = alpha (half-integer exponents), l = lambda, j = J.

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, t in enumerate(self.terms):
            sign = "-" if t.coeff < 0 else "+"
            factors = []
            mag = abs(t.coeff)
            for sym, pow_ in (("l", t.lambda_pow), ("j", t.j_pow)):
                if pow_ == 1:
                    factors.append(sym)
                elif pow_ > 1:
                    factors.append(f"{sym}^{pow_}")
            if t.alpha_half_pow:
                if t.alpha_half_pow % 2 == 0:
                    exp = str(t.alpha_half_pow // 2)
                else:
                    exp = f"{t.alpha_half_pow}/2"
                factors.append("a" if exp == "1" else f"a^{exp}")
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            text = " * ".join(factors)
            if i == 0:
                pieces.append(f"-{text}" if sign == "-" else text)
            else:
                pieces.append(f" {sign} {text}")
        return "".join(pieces)

    __str__ = render
