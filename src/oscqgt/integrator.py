"""Exact wedge integrals of free-propagator products.

The integrands are products of free Euclidean propagators
D(t1, t2) = exp(-sqrt(alpha) |t1 - t2|) / (2 sqrt(alpha)) over tau1 <= 0,
tau2 >= 0 and internal vertices s_i on the real line.  They depend only on
time differences, so integrating out the common translation leaves all
configurations with tau1 < tau2, weighted by tau2 - tau1.

On one total order of the n = m + 2 times the gaps between neighbours are
independent half-axis variables; gap g is crossed by c_g propagators (the cut
of the set of earlier times).  Integrating every gap gives

    prod_g 1/(sqrt(alpha) c_g) * sum_{gaps j between tau1 and tau2} 1/(sqrt(alpha) c_j),

the sum coming from the weight tau2 - tau1.  Equal-time loops only add their
constant 1/(2 sqrt(alpha)).  As c_g depends on the set of earlier times and
not on their order, the sum over all orders is a dynamic programme over the
2^n subsets with two exact accumulators: plain, and with one gap marked.  A
zero cut on a proper subset means the graph is disconnected and the integral
diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .scalar_algebra import DivergentIntegral, ScalarSeries, ScalarTerm

__all__ = [
    "Propagator", "PropagatorProduct", "DivergentIntegral", "TAU1", "TAU2",
    "internal_vertex", "cut_sizes", "wedge_integral", "propagator_value",
]

TAU1 = "tau1"  # integrated over (-inf, 0]
TAU2 = "tau2"  # integrated over [0, inf)


def internal_vertex(i: int) -> str:
    """The i-th internal vertex (1-based), integrated over the full axis."""
    return f"s{i}"


@dataclass(frozen=True)
class Propagator:
    """Free two-point function D(t1, t2); symmetric in its endpoints."""

    endpoints: tuple[str, str]

    def __post_init__(self):
        a, b = self.endpoints
        if a > b:
            object.__setattr__(self, "endpoints", (b, a))


@dataclass(frozen=True)
class PropagatorProduct:
    """coefficient * product of propagators; the pre-integration expression."""

    coeff: ScalarSeries
    propagators: tuple[Propagator, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "propagators", tuple(sorted(self.propagators, key=lambda p: p.endpoints))
        )

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(p.endpoints for p in self.propagators)


def cut_sizes(edges: Iterable[tuple[str, str]], names: Sequence[str]) -> list[int]:
    """c[s], the number of propagators with one endpoint in subset s (bit i = names[i])."""
    bit = {name: 1 << i for i, name in enumerate(names)}
    ends = [bit[a] | bit[b] for a, b in edges if a != b]
    return [sum(0 < s & e < e for e in ends) for s in range(1 << len(names))]


def _ordered_sum(edges: Iterable[tuple[str, str]], names: Sequence[str]) -> Fraction:
    """Sum over orders with tau1 before tau2 of prod_g 1/c_g * sum_j 1/c_j.

    tau1 and tau2 come first in `names`, so they are bits 0 and 1 of a subset.
    The accumulators are integers over the common denominator scale**n.
    """
    bit = {name: 1 << i for i, name in enumerate(names)}
    full = (1 << len(names)) - 1
    cut = cut_sizes(edges, names)
    for s in range(1, full):
        if cut[s] == 0:
            members = ", ".join(n for n, b in bit.items() if s & b)
            raise DivergentIntegral(f"no propagator links {{{members}}} to the other times")
    scale = math.lcm(*cut[1:full])
    plain, marked = [1] + [0] * full, [0] * (full + 1)
    for s in range(1, full + 1):  # every subset comes after its subsets
        if s & 3 == 2:
            continue  # tau2 before tau1
        p = sum(plain[s ^ b] for b in bit.values() if s & b)
        m = sum(marked[s ^ b] for b in bit.values() if s & b)
        if s != full:
            w = scale // cut[s]
            if s & 3 == 1:
                m += p * w  # the gap after s lies between tau1 and tau2
            p, m = p * w, m * w
        plain[s], marked[s] = p, m
    return Fraction(marked[full], scale ** len(names))


def wedge_integral(
    products: Iterable[PropagatorProduct],
    n_vertices: int = 0,
    elimination_order: Sequence[str] | None = None,
) -> ScalarSeries:
    """Exact integral of a sum of propagator products over the wedge.

    The products may reference tau1, tau2 and internal vertices s1..s_n.
    `elimination_order`, if given, must name exactly these variables; the
    result does not depend on it, since every order of integration agrees.
    """
    names = [TAU1, TAU2] + [internal_vertex(i) for i in range(1, n_vertices + 1)]
    if elimination_order is not None and sorted(elimination_order) != sorted(names):
        raise ValueError("elimination order must cover exactly the active variables")
    terms = []
    for product in products:
        unknown = {t for edge in product.edges for t in edge} - set(names)
        if unknown:
            raise ValueError(f"propagator endpoints {sorted(unknown)} are not active variables")
        n_props = len(product.propagators)
        value = _ordered_sum(product.edges, names) / 2**n_props
        terms.extend(
            ScalarTerm(t.coeff * value, t.alpha_half_pow - n_props - len(names), t.lambda_pow, t.j_pow)
            for t in product.coeff.terms
        )
    return ScalarSeries.from_terms(terms)


def propagator_value(alpha: float, t1: float, t2: float) -> float:
    """Numeric D(t1, t2); used by the quadrature oracles in the test-suite."""
    root = math.sqrt(alpha)
    return math.exp(-root * abs(t1 - t2)) / (2.0 * root)
