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
2^n subsets with two exact accumulators: plain, and with one gap marked.
Time reversal (t -> -t, tau1 <-> tau2) keeps the orders with tau1 first, so
a skeleton and its mirror share one sum.  One pass per call sums every
skeleton of its grades not yet in the memo.  A zero cut on a proper subset
means the graph is disconnected and the integral diverges.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from operator import add, itemgetter, mul
from typing import Mapping, Sequence

from .scalar_algebra import DivergentIntegral, ScalarSeries, ScalarTerm
from .wick import EdgeCounts, edge_layout, edge_names, mirrored

__all__ = ["DivergentIntegral", "cut_sizes", "wedge_integrals"]


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


@functools.cache
def _plan(n: int) -> tuple[tuple[int, list[int], bool], ...]:
    """The subset pass over n times: each subset s (after its subsets), the
    subsets one time smaller that an order with tau1 (bit n - 2) before tau2
    (bit n - 1) passes on its way to s, and whether the gap after s lies
    between tau1 and tau2."""
    taus, tau2 = 3 << n - 2, 1 << n - 1
    return tuple(
        (s, [s ^ 1 << i for i in range(n) if s >> i & 1 and (s ^ 1 << i) & taus != tau2], s & taus == taus ^ tau2)
        for s in range(1, 1 << n) if s & taus != tau2
    )


def _ordered_sums(batch: list[EdgeCounts], n: int) -> list[Fraction]:
    """For each graph of the batch, given by its edge counts over the n times,
    the sum over orders with tau1 before tau2 of prod_g 1/c_g * sum_j 1/c_j.
    The accumulators of a subset are rows of integers, one per graph over its
    own denominator scale**n, added and weighted by scale // c[s] with `map`;
    a large batch runs in pieces, to bound the rows' memory."""
    full, step, sums = (1 << n) - 1, max(1, (1 << 14) >> n), []  # 2^14 integers per accumulator
    for start in range(0, len(batch), step):
        piece, weights, denominators = batch[start : start + step], [()], []
        for counts in piece:
            cut = cut_sizes(counts, n)[1:full]
            if 0 in cut:
                pattern = " ".join(f"D({a},{b})" for a, b in edge_names(counts))
                raise DivergentIntegral(f"the graph {pattern} leaves some of its {n} times unlinked")
            scale = math.lcm(*cut)
            weights.append(list(map(scale.__floordiv__, cut)))
            denominators.append(scale**n)
        weights[1:] = zip(*weights[1:])  # by subset, one weight per graph
        plain, marked = [[1] * len(piece)] + [None] * full, [[0] * len(piece)] + [None] * full
        for s, earlier, between in _plan(n):
            p, m = plain[earlier[0]], marked[earlier[0]]
            for t in earlier[1:]:
                p, m = list(map(add, p, plain[t])), list(map(add, m, marked[t]))
            if s != full:
                w = weights[s]
                if between:
                    m = map(add, m, map(mul, p, w))
                p, m = list(map(mul, p, w)), list(map(mul, m, w))
            plain[s], marked[s] = p, m
        sums += map(Fraction, marked[full], denominators)
    return sums


def wedge_integrals(grades: Sequence[Mapping[EdgeCounts, Fraction]], n_vertices: int, sums: dict) -> list[ScalarSeries]:
    """The exact integral over the wedge of each grade, sum_graphs coeff *
    prod_edges D, as a series in alpha; every graph is keyed by its edge
    counts over s_1..s_n, tau1 and tau2, for n = `n_vertices`.

    A loop only adds its constant, and time reversal gives a skeleton and its
    tau1 <-> tau2 mirror one ordered sum, so the memo `sums` keeps one per
    loop-free skeleton up to the mirror, by vertex count; it may be shared by
    several calls.  The skeletons missing from it are summed in one pass, and
    each alpha power adds its terms as integers over one denominator.
    """
    n = n_vertices + 2
    size = n * (n + 1) // 2
    skeleton, mirror = _skeleton(n), mirrored(n)
    keys, missing = [], {}
    for graphs in grades:
        for counts in graphs:
            if len(counts) != size:
                raise ValueError(f"a graph of {len(counts)} edge counts does not fit {n_vertices} vertices")
            keys.append(key := (n, max(skeleton(counts), skeleton(mirror(counts)))))
            if key not in sums:
                missing.setdefault(key, counts)
    sums.update(zip(missing, _ordered_sums(list(missing.values()), n)))
    series, keys = [], iter(keys)
    for graphs in grades:
        terms: dict[int, list[tuple[int, int]]] = {}  # by alpha power: (numerator, denominator)
        for (counts, coeff), key in zip(graphs.items(), keys):
            value, edges = sums[key], sum(counts)
            term = (coeff.numerator * value.numerator, coeff.denominator * value.denominator << edges)
            terms.setdefault(-edges - n, []).append(term)
        totals = []
        for power, fractions in terms.items():
            lcm = math.lcm(*(d for _, d in fractions))
            totals.append(ScalarTerm(Fraction(sum(c * (lcm // d) for c, d in fractions), lcm), power))
        series.append(ScalarSeries.from_terms(totals))
    return series
