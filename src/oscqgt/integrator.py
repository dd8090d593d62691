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
constant 1/(2 sqrt(alpha)).  A graph arrives as the pairing walk's edge counts
over s_1..s_m, tau1 and tau2 (times 0..m+1), so its loops sit on the diagonal
positions and cut no gap.  As c_g depends on the set of earlier times and
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
from operator import itemgetter, mul
from typing import Mapping

from .scalar_algebra import DivergentIntegral, ScalarSeries, ScalarTerm
from .wick import EdgeCounts, edge_layout, edge_names

__all__ = ["DivergentIntegral", "cut_sizes", "wedge_integral"]


def cut_sizes(counts: EdgeCounts, n: int) -> list[int]:
    """c[s], the number of propagators with one endpoint in subset s of n times
    (bit i = time i), for a graph given by its edge counts over the n times.

    The table is summed as one integer with a 32-bit field per subset.
    """
    packed = sum(map(mul, counts, _crossings(n)))
    return memoryview(packed.to_bytes(4 << n, sys.byteorder)).cast("I").tolist()


@functools.cache
def _crossings(n: int) -> tuple[int, ...]:
    """For each position (i, j) of the edge counts over n times, the packed
    table with field s set to 1 when an edge between times i and j crosses
    the cut of subset s (never for a loop, i = j)."""
    return tuple(
        sum(1 << 32 * s for s in range(1 << n) if (s >> i ^ s >> j) & 1) for i, j in edge_layout(n)[0]
    )


@functools.cache
def _skeleton(n: int) -> itemgetter:
    """Picks the edge counts between distinct times, which fix the ordered sum."""
    return itemgetter(*(p for p, (i, j) in enumerate(edge_layout(n)[0]) if i != j))


def _ordered_sum(counts: EdgeCounts, n: int) -> Fraction:
    """Sum over orders with tau1 before tau2 of prod_g 1/c_g * sum_j 1/c_j.

    tau1 and tau2 are the last two of the n times, bits n - 2 and n - 1 of a
    subset.  The accumulators are integers over the common denominator
    scale**n.
    """
    full = (1 << n) - 1
    cut = cut_sizes(counts, n)
    if 0 in cut[1:full]:
        pattern = " ".join(f"D({a},{b})" for a, b in edge_names(counts))
        raise DivergentIntegral(f"the graph {pattern} leaves some of its {n} times unlinked")
    scale = math.lcm(*cut[1:full])
    tau1, tau2 = 1 << n - 2, 1 << n - 1
    taus = tau1 | tau2
    plain, marked = [1] + [0] * full, [0] * (full + 1)
    for s in range(1, full + 1):  # every subset comes after its subsets
        if s & taus == tau2:
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
            if s & taus == tau1:
                m += p * w  # the gap after s lies between tau1 and tau2
            p, m = p * w, m * w
        plain[s], marked[s] = p, m
    return Fraction(marked[full], scale**n)


def wedge_integral(
    graphs: Mapping[EdgeCounts, Fraction], n_vertices: int = 0, sums: dict | None = None
) -> ScalarSeries:
    """Exact integral of sum_graphs coeff * prod_edges D over the wedge, a series in alpha.

    Each graph is keyed by its edge counts over s_1..s_n, tau1 and tau2, for
    n = `n_vertices`.  A self-loop only contributes its constant, so graphs
    with one loop-free skeleton share one ordered sum; `sums` keeps those
    sums by (vertex count, skeleton) and may be passed to several calls to
    share them.
    """
    n = n_vertices + 2
    size = n * (n + 1) // 2
    skeleton_of = _skeleton(n)
    sums = {} if sums is None else sums
    totals: dict[int, Fraction] = {}  # by alpha power
    for counts, coeff in graphs.items():
        if len(counts) != size:
            raise ValueError(f"a graph of {len(counts)} edge counts does not fit {n_vertices} vertices")
        key = (n, skeleton_of(counts))
        value = sums.get(key)
        if value is None:
            value = sums[key] = _ordered_sum(counts, n)
        edges = sum(counts)
        term = Fraction(coeff.numerator * value.numerator, coeff.denominator * value.denominator << edges)
        power = -edges - n
        totals[power] = totals.get(power, 0) + term
    return ScalarSeries.from_terms(ScalarTerm(c, power) for power, c in totals.items())
