"""Connected integrands of the interacting theory as formal coupling series.

A tensor component G_ab needs the connected correlator of q**k_a and q**k_b,
the monomials of dH/da and dH/db (`hamiltonian_derivative`), in the theory
with interaction lambda*V(q).  At order m the free
oscillator expansion inserts m internal vertices s_1..s_m, each carrying
q**deg and weight (-1)^m/m! times the potential coefficients.  By the
linked-cluster theorem the connected correlator is the sum of the Wick graphs
in which tau1, tau2 and every s_i form one component: vacuum bubbles cancel
identically against the normalisation, and subtracting the product of the
one-point functions removes the graphs that keep tau1 and tau2 apart.  So only
the connected graphs are kept, and the pairing walk drops every branch that
can only end disconnected.

Vertices of equal degree are interchangeable, so each class of graphs under
relabelling of s_1..s_m is generated once, from a labelling in which the
vertices' ranks (`_walk_rank`) are sorted, and weighted by 1/|Aut|
in place of 1/m! times its m!/|Aut| labellings (orbit-stabiliser).  Diagrams
are stored per coupling order as {edge counts: exact coefficient}, keyed by
the walk's `EdgeCounts` over s_1..s_m, tau1 and tau2 (times 0..m+1), each
under one fixed labelling of its class: the sorted one when no two ranks tie,
otherwise the canonical form of `_class_form`.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial
from typing import Iterable

from .scalar_algebra import Frozen
from .wick import EdgeCounts, walk_pairings

__all__ = [
    "PolynomialPotential",
    "hamiltonian_derivative",
    "connected_grade",
    "connected_integrand",
]

# coupling-graded diagram sum: order -> {edge counts: coefficient}
GradedSum = dict[int, dict[EdgeCounts, Fraction]]


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


def hamiltonian_derivative(
    label: str, potential: PolynomialPotential | None
) -> tuple[tuple[int, Fraction], ...]:
    """dH/d(label) of H = p^2/2 + alpha q^2/2 + J q + lambda V(q) as
    (degree, coefficient) pairs: q^2/2 for alpha, q for j and V(q) for lambda
    (nothing without a potential)."""
    if label == "alpha":
        return ((2, Fraction(1, 2)),)
    if label == "j":
        return ((1, Fraction(1)),)
    if label == "lambda":
        return potential.coefficients if potential is not None else ()
    raise ValueError(f"unknown parameter {label!r}")


def _walk_rank(m: int, i: int, row: list[int]) -> tuple | None:
    """Rank of the i-th time of the pairing walk, kept by relabelling s_1..s_m.

    row lists the time's edges to s_1..s_m, tau1 and tau2.  The rank is the
    degree, then the edges to tau1, the edges to tau2, the self-loops and the
    sorted multiplicities to the other vertices.  The walk visits s_1..s_m, in
    that order, before tau1 and tau2, which stay unranked.  The degree comes
    first, so the rank-sorted labelling of a class also has the nondecreasing
    degrees that the walk's vertices are given.
    """
    if i >= m:
        return None
    others = row[:m]
    del others[i]
    others.sort()
    return (sum(row) + row[i], row[m], row[m + 1], row[i], others)


def _class_form(counts: EdgeCounts, m: int) -> tuple[EdgeCounts, int]:
    """Canonical edge counts and automorphism count of a connected diagram
    given by its edge counts over s_1..s_m (0..m-1), tau1 (m) and tau2 (m + 1).

    The internal vertices are ranked by the walk's key `_walk_rank`; the form
    is the minimal relabeled edge multiset over the relabelings that keep that
    ranking, so isomorphic diagrams share it, and the number of relabelings
    that reach it is the order of the diagram's automorphism group.  When no
    two ranks tie, one relabeling keeps the ranking: the one that numbers the
    vertices in rank order, with |Aut| = 1.
    """
    n = m + 2
    position = _positions(n)
    layout = itertools.combinations_with_replacement(range(n), 2)
    pairs = [pair for pair, c in zip(layout, counts) for _ in range(c)]
    rank = [_walk_rank(m, i, [counts[p] for p in row]) for i, row in enumerate(position[:m])]
    ranked = sorted(range(m), key=rank.__getitem__)
    classes = [list(group) for _, group in itertools.groupby(ranked, key=rank.__getitem__)]
    # a relabeled diagram is keyed by the sorted positions of its edges
    label = list(range(n))
    best, automorphisms = None, 0
    for choice in itertools.product(*(itertools.permutations(c) for c in classes)):
        for new, old in enumerate(itertools.chain.from_iterable(choice)):
            label[old] = new
        key = sorted(position[label[i]][label[j]] for i, j in pairs)
        if best is None or key < best:
            best, automorphisms = key, 1
        elif key == best:
            automorphisms += 1
    form = [0] * len(counts)
    for p in best:
        form[p] += 1
    return tuple(form), automorphisms


@functools.cache
def _positions(n: int) -> tuple[tuple[int, ...], ...]:
    """[i][j], the position of the edges between times i and j in the edge
    counts over n times."""
    position = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(itertools.combinations_with_replacement(range(n), 2)):
        position[i][j] = position[j][i] = p
    return tuple(map(tuple, position))


def connected_grade(
    k_a: int, k_b: int, m: int, potential: PolynomialPotential
) -> dict[EdgeCounts, Fraction]:
    """Grade m of `connected_integrand`: {edge counts: coefficient}.

    The pairing walk yields only connected graphs, one sorted labelling or
    more per class.  A graph whose walk ranks all differ is the only sorted
    labelling of its class, which is then stored under that labelling with
    |Aut| = 1; a graph with tied ranks is stored under its `_class_form`
    form, on which all its tied labellings land.
    """
    coefficients = dict(potential.coefficients)
    grade: dict[EdgeCounts, Fraction] = {}
    rank = functools.partial(_walk_rank, m)
    for degrees in itertools.combinations_with_replacement(sorted(coefficients), m):
        if (k_a + k_b + sum(degrees)) % 2:
            continue
        weight = Fraction((-1) ** m)
        for d in degrees:
            weight *= coefficients[d]
        # nondecreasing degrees in the walk's order, so that the sorted
        # labelling of every class passes `rank`
        for counts, multiplicity, tied in walk_pairings([*degrees, k_a, k_b], rank, connected=True):
            automorphisms = 1
            if tied:
                counts, automorphisms = _class_form(counts, m)
            grade[counts] = Fraction(weight.numerator * multiplicity, weight.denominator * automorphisms)
    return grade


def connected_integrand(k_a: int, k_b: int, order: int, potential: PolynomialPotential) -> GradedSum:
    """Two-cluster connected integrand, graded by coupling order.

    Grade m holds {edge counts: coefficient} for the diagrams of
    <q^k_a(tau1) q^k_b(tau2)>_int - <q^k_a(tau1)>_int <q^k_b(tau2)>_int with m
    internal vertices: one graph per class of Wick graphs in which tau1, tau2
    and every vertex form one component, weighted by
    (-1)^m * prod c_deg * multiplicity / |Aut|.  The walk drops disconnected
    branches before they finish, and the canonical search of `_class_form`
    runs only on graphs whose vertex ranks tie (see `connected_grade`).  The
    coefficients of dH/da and dH/db are not included here (the tensor
    assembly owns them).
    """
    return {m: connected_grade(k_a, k_b, m, potential) for m in range(order + 1)}
