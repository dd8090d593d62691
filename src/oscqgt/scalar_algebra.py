"""Exact scalar arithmetic for the oscillator series.

Every quantity produced by the symbolic pipeline is a finite sum of terms

    (rational coefficient) * alpha**(p/2) * lambda**a * J**b

with p an integer (half-integer powers of alpha are the natural currency
here) and a, b non-negative integers.  Coefficients are `fractions.Fraction`,
so all arithmetic is exact; floats appear only in `ScalarSeries.evaluate`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

__all__ = [
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


class ScalarTerm:
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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: ScalarTerm is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeff, self.alpha_half_pow, self.lambda_pow, self.j_pow) == (
            other.coeff, other.alpha_half_pow, other.lambda_pow, other.j_pow
        )

    def __hash__(self):
        return hash((self.coeff, self.alpha_half_pow, self.lambda_pow, self.j_pow))

    def __reduce__(self):  # copy and pickle by __init__: their default assigns the slots
        return self.__class__, (self.coeff, self.alpha_half_pow, self.lambda_pow, self.j_pow)

    def __repr__(self):
        return f"ScalarTerm({self.coeff!r}, {self.alpha_half_pow}, {self.lambda_pow}, {self.j_pow})"

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.lambda_pow, self.j_pow, self.alpha_half_pow)

    def evaluate(self, alpha: float, lam: float = 0.0, j: float = 0.0) -> float:
        if alpha <= 0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
        return (
            float(self.coeff)
            * float(alpha) ** (self.alpha_half_pow / 2)
            * float(lam) ** self.lambda_pow
            * float(j) ** self.j_pow
        )


class ScalarSeries:
    """Canonical sum of ScalarTerms, merged and sorted by (lambda_pow, j_pow, alpha_half_pow)."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[ScalarTerm, ...] = ()):
        object.__setattr__(self, "terms", terms)  # the class refuses assignment

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: ScalarSeries is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __reduce__(self):  # copy and pickle by __init__: their default assigns the slots
        return self.__class__, (self.terms,)

    def __repr__(self):
        return f"ScalarSeries({self.terms!r})"

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
        return sum(t.evaluate(alpha, lam, j) for t in self.terms)

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
