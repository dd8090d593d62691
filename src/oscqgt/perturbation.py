"""Connected integrands of the interacting theory as formal coupling series.

A tensor component G_ab needs the connected correlator of q**k_a and q**k_b,
the monomials of dH/da and dH/db (`hamiltonian_derivative`, whose table also
tells `_require_ground_state` whether a point has a ground state), in the
theory with interaction lambda*V(q).  At order m the free
oscillator expansion inserts m internal vertices s_1..s_m, each carrying
q**deg and weight (-1)^m/m! times the potential coefficients.  By the
linked-cluster theorem the connected correlator is the sum of the Wick graphs
in which tau1, tau2 and every s_i form one component: vacuum bubbles cancel
identically against the normalisation, and subtracting the product of the
one-point functions removes the graphs that keep tau1 and tau2 apart.  So only
the connected graphs are kept.

The internal vertices are interchangeable, so each class of graphs under
relabelling of s_1..s_m comes from `wick.connected_classes` once, under its
canonical form, and is weighted by 1/|Aut| in place of 1/m! times its
m!/|Aut| labellings (orbit-stabiliser).  Pairs (k_a, k_b) of one parity
share the walk at their largest degrees (K_a, K_b): a graph of (k_a, k_b) is
a class with p_a = (K_a - k_a)/2 loops at tau1 and p_b at tau2 removed.  A
loop links no times and enters no rank, so the class, form and |Aut| carry
over; l loops at tau1 scale the multiplicity by k_a!/K_a! * 2^p_a * l!/(l - p_a)!
(likewise at tau2).  A class that also stands for its tau1 <-> tau2 mirror
adds the mirror's weight, for integration, or its canonical graph, for a
reader.  A grade is {edge counts: exact coefficient}, keyed by `EdgeCounts`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, perm, prod
from typing import Iterable

from .scalar_algebra import Frozen
from .wick import EdgeCounts, connected_classes, mirror_form

__all__ = ["PolynomialPotential", "NoGroundState", "hamiltonian_derivative", "connected_grades"]


class PolynomialPotential(Frozen):
    """V(q) = sum_n c_n q**n with finite support and exact coefficients;
    the coefficients of a repeated degree are summed."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[tuple[int, Fraction]]):
        summed: dict[int, Fraction] = {}
        for n, c in coefficients:
            summed[int(n)] = summed.get(int(n), 0) + Fraction(c)
        coeffs = tuple(sorted((n, c) for n, c in summed.items() if c != 0))
        if not coeffs or coeffs[0][0] < 1:
            raise ValueError("potential needs finite support of degree >= 1")
        object.__setattr__(self, "coefficients", coeffs)  # the class refuses assignment

    @classmethod
    def monomial(cls, k: int) -> "PolynomialPotential":
        """V(q) = q**k / k!"""
        return cls(((k, Fraction(1, factorial(k))),))

    @property
    def degree(self) -> int:
        return self.coefficients[-1][0]


def hamiltonian_derivative(label: str, potential: PolynomialPotential) -> tuple[tuple[int, Fraction], ...]:
    """dH/d(label) of H = p^2/2 + alpha q^2/2 + J q + lambda V(q) as
    (degree, coefficient) pairs: q^2/2 for alpha, q for j and V(q) for lambda."""
    if label == "alpha":
        return ((2, Fraction(1, 2)),)
    if label == "j":
        return ((1, Fraction(1)),)
    if label == "lambda":
        return potential.coefficients
    raise ValueError(f"unknown parameter {label!r}")


class NoGroundState(ValueError):
    """The Hamiltonian is unbounded below, so there is no ground state to probe."""


def _require_ground_state(alpha: float, lam: float, potential: PolynomialPotential) -> None:
    """Reject a potential that leaves H unbounded below before any solve.

    The leading term of alpha q**2/2 + lambda V(q) decides: an odd degree is
    unbounded below for either sign of its coefficient, and so is an even
    degree with a negative coefficient; a truncated basis would still return
    a lowest eigenvector, but it describes the basis edge, not a ground state.
    lambda q (k = 1) and a q**2 term that alpha outweighs keep the oscillator.
    """
    if lam == 0.0:
        return
    full: dict[int, float] = {}
    for label, value in (("alpha", alpha), ("lambda", lam)):
        for deg, c in hamiltonian_derivative(label, potential):
            full[deg] = full.get(deg, 0.0) + value * float(c)
    k = max((deg for deg, c in full.items() if c != 0.0), default=0)
    if k == 0:
        raise NoGroundState(
            f"a vanishing potential has no ground state (lambda={lam!r}, alpha={alpha!r})"
        )
    if k % 2:
        raise NoGroundState(
            f"odd k has no ground state for lambda != 0 "
            f"(k={k}, lambda={lam!r}: the potential is unbounded below)"
        )
    if full[k] < 0:
        raise NoGroundState(
            f"a negative leading term has no ground state (k={k}, lambda={lam!r}: "
            f"the q**{k} coefficient {full[k]:.6g} leaves the potential unbounded below)"
        )


def connected_grades(
    pairs: Iterable[tuple[int, int]], m: int, potential: PolynomialPotential, expand: bool = True
) -> dict[tuple[int, int], dict[EdgeCounts, Fraction]]:
    """Grade m of the connected integrand of <q^k_a(tau1) q^k_b(tau2)>_int
    for each (k_a, k_b) in `pairs`, as {(k_a, k_b): {edge counts: coefficient}}:
    one graph per class, weighted by (-1)^m * prod c_deg * multiplicity / |Aut|.
    The coefficients of dH/da and dH/db are not included here.  With
    `expand`, a `paired` class's mirror is its own graph, in canonical form;
    without, its weight joins the class's graph, which integrates alike."""
    coefficients, groups = dict(potential.coefficients), {}
    grades: dict[tuple[int, int], dict[EdgeCounts, Fraction]] = {pair: {} for pair in pairs}
    for k_a, k_b in grades:
        groups.setdefault((k_a % 2, k_b % 2), []).append((k_a, k_b))
    for group in groups.values():
        top_a, top_b = map(max, zip(*group))
        top = factorial(top_a) * factorial(top_b)
        for degrees in itertools.combinations_with_replacement(sorted(coefficients), m):
            if (top_a + top_b + sum(degrees)) % 2:
                continue
            weight = prod(map(coefficients.get, degrees), start=Fraction((-1) ** m))
            classes = connected_classes(degrees, top_a, top_b)
            if expand:  # each mirror as a class of its own
                mirrors = {mirror_form(counts, m): (*kept[:2], False) for counts, kept in classes.items() if kept[2]}
                classes = {counts: (*kept[:2], False) for counts, kept in classes.items()} | mirrors
            for k_a, k_b in group:
                p_a, p_b, grade = (top_a - k_a) // 2, (top_b - k_b) // 2, grades[k_a, k_b]
                scale = weight * Fraction(factorial(k_a) * factorial(k_b) << p_a + p_b, top)
                for counts, (multiplicity, automorphisms, paired) in classes.items():
                    ways, mirror = 1, paired
                    if p_a or p_b:  # the (k_a, k_b) graph has p_a and p_b fewer loops at tau1 and tau2
                        loops_a, loops_b = counts[-3], counts[-1]
                        ways = perm(loops_a, p_a) * perm(loops_b, p_b)
                        mirror = paired and perm(loops_b, p_a) * perm(loops_a, p_b)
                        if not ways + mirror:
                            continue
                        q_a, q_b = (p_a, p_b) if ways else (p_b, p_a)  # else the mirror's graph, relabelled
                        counts = (*counts[:-3], loops_a - q_a, counts[-2], loops_b - q_b)
                    multiplicity *= ways + mirror
                    grade[counts] = Fraction(scale.numerator * multiplicity, scale.denominator * automorphisms)
    return grades
