"""Connected integrands of the interacting theory as formal coupling series.

A tensor component needs the connected correlator of the two deformation
operators in the theory with interaction lambda*V(q).  At order m the free
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
are stored per coupling order as {edge-multiset: exact coefficient}, each
under one fixed labelling of its class: the sorted one when no two ranks tie,
otherwise the canonical form of `_linked_class`.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .integrator import TAU1, TAU2, Edges, internal_vertices
from .wick import InsertionPoint, enumerate_pairings

__all__ = [
    "PolynomialPotential",
    "DeformationOperator",
    "connected_grade",
    "connected_integrand",
]

# coupling-graded diagram sum: order -> {edges: coefficient}
GradedSum = dict[int, dict[Edges, Fraction]]


class PolynomialPotential:
    """V(q) = sum_n c_n q**n with finite support and exact coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[tuple[int, Fraction]]):
        coeffs = tuple(sorted((int(n), Fraction(c)) for n, c in coefficients if c != 0))
        if not coeffs or coeffs[0][0] < 1:
            raise ValueError("potential needs finite support of degree >= 1")
        object.__setattr__(self, "coefficients", coeffs)  # the class refuses assignment

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: PolynomialPotential is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __reduce__(self):  # copy and pickle by __init__: their default assigns the slots
        return self.__class__, (self.coefficients,)

    @classmethod
    def monomial(cls, k: int) -> "PolynomialPotential":
        """V(q) = q**k / k!"""
        return cls(((k, Fraction(1, factorial(k))),))

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, Fraction]) -> "PolynomialPotential":
        return cls(tuple(coeffs.items()))

    @property
    def degree(self) -> int:
        return self.coefficients[-1][0]

    @property
    def is_monomial(self) -> bool:
        return len(self.coefficients) == 1


class DeformationOperator:
    """Operator conjugate to a parameter: prefactor * q**q_power."""

    __slots__ = ("q_power", "prefactor")

    def __init__(self, q_power: int, prefactor: Fraction):
        object.__setattr__(self, "q_power", q_power)  # the class refuses assignment
        object.__setattr__(self, "prefactor", prefactor)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: DeformationOperator is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q_power, self.prefactor) == (other.q_power, other.prefactor)

    def __hash__(self):
        return hash((self.q_power, self.prefactor))

    def __reduce__(self):  # copy and pickle by __init__: their default assigns the slots
        return self.__class__, (self.q_power, self.prefactor)

    @classmethod
    def stiffness(cls) -> "DeformationOperator":
        # conjugate to alpha in H = p^2/2 + alpha q^2/2 + ...
        return cls(2, Fraction(-1, 2))

    @classmethod
    def coupling(cls, potential: PolynomialPotential) -> "DeformationOperator":
        # conjugate to the coupling of a monomial potential: -V(q); with
        # V = q this is the source J of H -> H + J q
        if not potential.is_monomial:
            raise ValueError("the coupling deformation requires a monomial potential")
        k, c = potential.coefficients[0]
        return cls(k, -c)


def _walk_rank(m: int, i: int, row: Sequence[int]) -> tuple | None:
    """Rank of the i-th time of the pairing walk, kept by relabelling s_1..s_m.

    row lists the time's edges to s_1..s_m, tau1 and tau2.  The rank is the
    degree, then the edges to tau1, the edges to tau2, the self-loops and the
    sorted multiplicities to the other vertices.  The walk visits s_1..s_m (in
    name order) before tau1 and tau2, which stay unranked.  The degree comes
    first, so the rank-sorted labelling of a class also has the nondecreasing
    degrees that the walk's vertices are given.
    """
    if i >= m:
        return None
    return (sum(row) + row[i], row[m], row[m + 1], row[i], sorted(row[:i] + row[i + 1 : m]))


def _linked_class(
    edges: Sequence[tuple[str, str]], names: Sequence[str]
) -> tuple[Edges, int] | None:
    """Canonical edge multiset and automorphism count of a connected diagram.

    Returns None when tau1, tau2 and `names` are not one connected component.
    The internal vertices are ranked by the walk's key `_walk_rank`; the form
    is the minimal relabeled edge multiset over the relabelings that keep that
    ranking, so isomorphic diagrams share it, and the number of relabelings
    that reach it is the order of the diagram's automorphism group.  When no
    two ranks tie, one relabeling keeps the ranking: the one that numbers the
    vertices in rank order, with |Aut| = 1.
    """
    m = len(names)
    n = m + 2
    index = dict(zip(names, range(m)))
    index[TAU1], index[TAU2] = m, m + 1
    count = [[0] * n for _ in range(n)]
    root = list(range(n))
    pairs = []
    joined = 0
    for a, b in edges:
        i, j = index[a], index[b]
        pairs.append((i, j))
        count[i][j] += 1
        if i != j:
            count[j][i] += 1
        while root[i] != i:
            i = root[i]
        while root[j] != j:
            j = root[j]
        if i != j:
            root[i] = j
            joined += 1
    if joined != n - 1:
        return None
    rank = [_walk_rank(m, i, row) for i, row in enumerate(count[:m])]
    ranked = sorted(range(m), key=rank.__getitem__)
    classes = [list(group) for _, group in itertools.groupby(ranked, key=rank.__getitem__)]
    # a relabeled diagram is keyed by the sorted codes lo * n + hi of its edges
    label = list(range(n))
    best, automorphisms = None, 0
    for choice in itertools.product(*(itertools.permutations(c) for c in classes)):
        for new, old in enumerate(itertools.chain.from_iterable(choice)):
            label[old] = new
        key = sorted(
            label[i] * n + label[j] if label[i] <= label[j] else label[j] * n + label[i]
            for i, j in pairs
        )
        if best is None or key < best:
            best, automorphisms = key, 1
        elif key == best:
            automorphisms += 1
    pair_names = _pair_names(m)
    return tuple(sorted(pair_names[c] for c in best)), automorphisms


@functools.cache
def _pair_names(m: int) -> tuple[tuple[str, str], ...]:
    """Sorted name pair of each edge code lo * (m + 2) + hi."""
    nodes = internal_vertices(m) + [TAU1, TAU2]
    return tuple(tuple(sorted((a, b))) for a in nodes for b in nodes)


def connected_grade(
    op_a: DeformationOperator,
    op_b: DeformationOperator,
    m: int,
    potential: PolynomialPotential,
) -> dict[Edges, Fraction]:
    """Grade m of `connected_integrand`: {edge multiset: coefficient}.

    The pairing walk yields only connected graphs, one sorted labelling or
    more per class.  A graph whose walk ranks all differ is the only sorted
    labelling of its class, which is then stored under that labelling with
    |Aut| = 1; a graph with tied ranks is stored under its `_linked_class`
    form, on which all its tied labellings land.
    """
    externals = [InsertionPoint(TAU1, op_a.q_power), InsertionPoint(TAU2, op_b.q_power)]
    coefficients = dict(potential.coefficients)
    grade: dict[Edges, Fraction] = {}
    names = internal_vertices(m)
    rank = functools.partial(_walk_rank, m)
    for degrees in itertools.combinations_with_replacement(sorted(coefficients), m):
        if (op_a.q_power + op_b.q_power + sum(degrees)) % 2:
            continue
        weight = Fraction((-1) ** m)
        for d in degrees:
            weight *= coefficients[d]
        # nondecreasing degrees in the walk's order, so that the sorted
        # labelling of every class passes `rank`
        insertions = externals + [
            InsertionPoint(name, deg) for name, deg in zip(sorted(names), degrees)
        ]
        for diag in enumerate_pairings(insertions, rank=rank, connected=True):
            if diag.tied:
                edges, automorphisms = _linked_class(diag.edges, names)
            else:
                edges, automorphisms = diag.edges, 1
            grade[edges] = weight * Fraction(diag.multiplicity, automorphisms)
    return grade


def connected_integrand(
    op_a: DeformationOperator,
    op_b: DeformationOperator,
    order: int,
    potential: PolynomialPotential,
) -> GradedSum:
    """Two-cluster connected integrand, graded by coupling order.

    Grade m holds {edge multiset: coefficient} for the diagrams of
    <q^na(tau1) q^nb(tau2)>_int - <q^na(tau1)>_int <q^nb(tau2)>_int with m
    internal vertices: one graph per class of Wick graphs in which tau1, tau2
    and every vertex form one component, weighted by
    (-1)^m * prod c_deg * multiplicity / |Aut|.  The walk drops disconnected
    branches before they finish, and the canonical search of `_linked_class`
    runs only on graphs whose vertex ranks tie (see `connected_grade`).  The
    operator prefactors are not included here (the tensor assembly owns them).
    """
    return {m: connected_grade(op_a, op_b, m, potential) for m in range(order + 1)}
