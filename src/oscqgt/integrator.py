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

import functools
import math
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .scalar_algebra import DivergentIntegral, ScalarSeries, ScalarTerm

__all__ = [
    "DivergentIntegral", "Edges", "TAU1", "TAU2", "internal_vertices", "cut_sizes",
    "wedge_integral",
]

TAU1 = "tau1"  # integrated over (-inf, 0]
TAU2 = "tau2"  # integrated over [0, inf)

# edge multiset of one diagram: tuple of sorted (name, name) pairs, sorted
Edges = tuple[tuple[str, str], ...]


def internal_vertices(m: int) -> list[str]:
    """The names s1..sm of m internal vertices, integrated over the full axis."""
    return [f"s{i}" for i in range(1, m + 1)]


def cut_sizes(links: Iterable[tuple[int, int]], n: int) -> list[int]:
    """c[s], the number of propagators with one endpoint in subset s of n times
    (bit i = time i), for propagators given as index pairs (i, j).

    The table is summed as one integer with a 32-bit field per subset.
    """
    crossings = _crossings(n)
    packed = sum(crossings[i][j] for i, j in links)
    return memoryview(packed.to_bytes(4 << n, sys.byteorder)).cast("I").tolist()


@functools.cache
def _crossings(n: int) -> tuple[tuple[int, ...], ...]:
    """[i][j] has field s set to 1 when a propagator between times i and j
    crosses the cut of subset s (never for a loop, i = j)."""
    return tuple(
        tuple(sum(1 << 32 * s for s in range(1 << n) if (s >> i ^ s >> j) & 1) for j in range(n))
        for i in range(n)
    )


def _ordered_sum(links: Sequence[tuple[int, int]], names: Sequence[str]) -> Fraction:
    """Sum over orders with tau1 before tau2 of prod_g 1/c_g * sum_j 1/c_j.

    `links` are the propagators between distinct times, as index pairs into
    `names`.  tau1 and tau2 come first in `names`, so they are bits 0 and 1
    of a subset.  The accumulators are integers over the common denominator
    scale**n.
    """
    full = (1 << len(names)) - 1
    cut = cut_sizes(links, len(names))
    if 0 in cut[1:full]:
        s = cut.index(0, 1)
        members = ", ".join(n for i, n in enumerate(names) if s >> i & 1)
        raise DivergentIntegral(f"no propagator links {{{members}}} to the other times")
    scale = math.lcm(*cut[1:full])
    plain, marked = [1] + [0] * full, [0] * (full + 1)
    for s in range(1, full + 1):  # every subset comes after its subsets
        if s & 3 == 2:
            continue  # tau2 before tau1
        p = m = 0
        t = s
        while t:  # the last time of the order is one of the set bits of s
            b = t & -t
            t ^= b
            p += plain[s ^ b]
            m += marked[s ^ b]
        if s != full:
            w = scale // cut[s]
            if s & 3 == 1:
                m += p * w  # the gap after s lies between tau1 and tau2
            p, m = p * w, m * w
        plain[s], marked[s] = p, m
    return Fraction(marked[full], scale ** len(names))


def wedge_integral(
    graphs: Mapping[Edges, Fraction], n_vertices: int = 0, sums: dict | None = None
) -> ScalarSeries:
    """Exact integral of sum_edges coeff * prod_edges D over the wedge, a series in alpha.

    The edges may reference tau1, tau2 and internal vertices s1..s_n.  A
    self-loop only contributes its constant, so graphs with one loop-free
    skeleton share one ordered sum; `sums` keeps those sums by (vertex count,
    skeleton) and may be passed to several calls to share them.
    """
    names = [TAU1, TAU2] + internal_vertices(n_vertices)
    # the index pair of each propagator between two times, None for a loop
    links = {(a, b): (i, j) if i != j else None for i, a in enumerate(names) for j, b in enumerate(names)}
    sums = {} if sums is None else sums
    totals: dict[int, Fraction] = {}  # by alpha power
    for edges, coeff in graphs.items():
        try:
            skeleton = tuple(filter(None, map(links.__getitem__, edges)))
        except KeyError:
            unknown = sorted({t for edge in edges for t in edge} - set(names))
            raise ValueError(f"propagator endpoints {unknown} are not active variables") from None
        value = sums.get((len(names), skeleton))
        if value is None:
            value = sums[len(names), skeleton] = _ordered_sum(skeleton, names)
        power = -len(edges) - len(names)
        term = Fraction(coeff.numerator * value.numerator, coeff.denominator * value.denominator << len(edges))
        totals[power] = totals.get(power, 0) + term
    return ScalarSeries.from_terms(ScalarTerm(c, power) for power, c in totals.items())
