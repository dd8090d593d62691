"""Connected integrands of the interacting theory as formal coupling series.

A tensor component needs the connected correlator of the two deformation
operators in the theory with interaction lambda*V(q).  At order m the free
oscillator expansion inserts m internal vertices s_1..s_m, each carrying
q**deg and weight (-1)^m/m! times the potential coefficients.  By the
linked-cluster theorem the connected correlator is the sum of the Wick graphs
in which tau1, tau2 and every s_i form one component: vacuum bubbles cancel
identically against the normalisation, and subtracting the product of the
one-point functions removes the graphs that keep tau1 and tau2 apart.  So the
pairings are enumerated once per order and only the connected graphs are kept.

Diagrams are stored per coupling order as {edge-multiset: exact coefficient},
with internal vertex labels canonicalized (relabelings merged, the 1/m!
symmetrization absorbed into the coefficients).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .integrator import Propagator, PropagatorProduct
from .scalar_algebra import ScalarSeries
from .wick import InsertionPoint, enumerate_pairings

__all__ = [
    "PolynomialPotential",
    "DeformationOperator",
    "OrderOverflow",
    "DEFAULT_MAX_ORDER",
    "connected_integrand",
    "integrand_products",
    "connected_components",
    "clusters_linked",
    "has_vacuum_component",
]

DEFAULT_MAX_ORDER = 2

EXTERNAL_A = "tau1"
EXTERNAL_B = "tau2"

# edge multiset of one diagram: tuple of sorted (name, name) pairs, sorted
Edges = tuple[tuple[str, str], ...]
# coupling-graded diagram sum: order -> {edges: coefficient}
GradedSum = dict[int, dict[Edges, Fraction]]


class OrderOverflow(ValueError):
    """Requested expansion order exceeds the configured maximum."""


@dataclass(frozen=True)
class PolynomialPotential:
    """V(q) = sum_n c_n q**n with finite support and exact coefficients."""

    coefficients: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        coeffs = tuple(sorted((int(n), Fraction(c)) for n, c in self.coefficients if c != 0))
        if not coeffs or coeffs[0][0] < 1:
            raise ValueError("potential needs finite support of degree >= 1")
        object.__setattr__(self, "coefficients", coeffs)

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


@dataclass(frozen=True)
class DeformationOperator:
    """Operator conjugate to a parameter: prefactor * q**q_power."""

    parameter_label: str
    q_power: int
    prefactor: Fraction

    @classmethod
    def stiffness(cls) -> "DeformationOperator":
        # conjugate to alpha in H = p^2/2 + alpha q^2/2 + ...
        return cls("alpha", 2, Fraction(-1, 2))

    @classmethod
    def coupling(cls, potential: PolynomialPotential) -> "DeformationOperator":
        # conjugate to the coupling of a monomial potential: -V(q)
        if not potential.is_monomial:
            raise ValueError("the coupling deformation requires a monomial potential")
        k, c = potential.coefficients[0]
        return cls("lambda", k, -c)

    @classmethod
    def source(cls) -> "DeformationOperator":
        # conjugate to the source J in H -> H + J q
        return cls("j", 1, Fraction(-1))


def _vertex_names(m: int) -> list[str]:
    return [f"s{i}" for i in range(1, m + 1)]


def _linked_class(edges: Sequence[tuple[str, str]], names: Sequence[str]) -> Edges | None:
    """Canonical edge multiset of a diagram joining tau1, tau2 and all of `names`.

    Returns None when the diagram has more than one connected component.  The
    internal vertices are ranked by invariants that any relabeling preserves
    (edges to tau1, edges to tau2, self-loops, sorted multiplicities to the
    other vertices); the form is the minimal relabeled edge multiset over the
    relabelings that keep that ranking, so isomorphic diagrams share it.
    """
    m = len(names)
    n = m + 2
    index = dict(zip(names, range(m)))
    index[EXTERNAL_A], index[EXTERNAL_B] = m, m + 1
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
    invariant = [
        (row[m], row[m + 1], row[i], sorted(row[:i] + row[i + 1 : m]))
        for i, row in enumerate(count[:m])
    ]
    ranked = sorted(range(m), key=invariant.__getitem__)
    classes = [list(group) for _, group in itertools.groupby(ranked, key=invariant.__getitem__)]
    # a relabeled diagram is keyed by the sorted codes lo * n + hi of its edges
    label = list(range(n))
    best = None
    for choice in itertools.product(*(itertools.permutations(c) for c in classes)):
        for new, old in enumerate(itertools.chain.from_iterable(choice)):
            label[old] = new
        key = sorted(
            label[i] * n + label[j] if label[i] <= label[j] else label[j] * n + label[i]
            for i, j in pairs
        )
        if best is None or key < best:
            best = key
    pair_names = _pair_names(m)
    return tuple(sorted(pair_names[c] for c in best))


@functools.cache
def _pair_names(m: int) -> tuple[tuple[str, str], ...]:
    """Sorted name pair of each edge code lo * (m + 2) + hi."""
    nodes = _vertex_names(m) + [EXTERNAL_A, EXTERNAL_B]
    return tuple(tuple(sorted((a, b))) for a in nodes for b in nodes)


def _add(acc: dict[Edges, Fraction], edges: Edges, coeff: Fraction) -> None:
    new = acc.get(edges, Fraction(0)) + coeff
    if new == 0:
        acc.pop(edges, None)
    else:
        acc[edges] = new


def connected_integrand(
    op_a: DeformationOperator,
    op_b: DeformationOperator,
    order: int,
    potential: PolynomialPotential,
    max_order: int = DEFAULT_MAX_ORDER,
) -> GradedSum:
    """Two-cluster connected integrand, graded by coupling order.

    Grade m holds {edge multiset: coefficient} for the diagrams of
    <q^na(tau1) q^nb(tau2)>_int - <q^na(tau1)>_int <q^nb(tau2)>_int with m
    internal vertices: the Wick graphs in which tau1, tau2 and every vertex
    form one component, weighted by (-1)^m/m! * prod c_deg * multiplicity.
    The operator prefactors are not included here (the tensor assembly owns
    them).
    """
    if order > max_order:
        raise OrderOverflow(f"order {order} exceeds the configured maximum {max_order}")
    externals = [InsertionPoint(EXTERNAL_A, op_a.q_power), InsertionPoint(EXTERNAL_B, op_b.q_power)]
    coefficients = dict(potential.coefficients)
    out: GradedSum = {}
    for m in range(order + 1):
        grade: dict[Edges, Fraction] = {}
        names = _vertex_names(m)
        for degrees in itertools.product(sorted(coefficients), repeat=m):
            if (op_a.q_power + op_b.q_power + sum(degrees)) % 2:
                continue
            weight = Fraction((-1) ** m, factorial(m))
            for d in degrees:
                weight *= coefficients[d]
            insertions = externals + [InsertionPoint(name, deg) for name, deg in zip(names, degrees)]
            counts: dict[Edges, int] = {}
            for diag in enumerate_pairings(insertions):
                edges = _linked_class(diag.edges, names)
                if edges is not None:
                    counts[edges] = counts.get(edges, 0) + diag.multiplicity
            for edges, count in counts.items():
                _add(grade, edges, weight * count)
        out[m] = grade
    return out


def integrand_products(
    graded: GradedSum, coupling_label: str = "lambda"
) -> dict[int, list[PropagatorProduct]]:
    """Attach the coupling power to each grade and wrap diagrams for the integrator."""
    if coupling_label == "lambda":
        power_slot = {"lambda_pow": 1}
    elif coupling_label == "j":
        power_slot = {"j_pow": 1}
    else:
        raise ValueError(f"unknown coupling label {coupling_label!r}")
    out: dict[int, list[PropagatorProduct]] = {}
    for m, grade in sorted(graded.items()):
        products = []
        for edges, coeff in sorted(grade.items()):
            series = ScalarSeries.term(coeff, **{k: v * m for k, v in power_slot.items()})
            products.append(PropagatorProduct(series, tuple(Propagator(e) for e in edges)))
        out[m] = products
    return out


# -- connectivity helpers (used by the verification suite) -------------------


def connected_components(edges: Iterable[tuple[str, str]]) -> list[set[str]]:
    nodes: set[str] = set()
    adj: dict[str, set[str]] = {}
    for a, b in edges:
        nodes.update((a, b))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen: set[str] = set()
    comps = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        comps.append(comp)
    return comps


def clusters_linked(edges: Edges, a: str = EXTERNAL_A, b: str = EXTERNAL_B) -> bool:
    """True if the two external clusters sit in one connected component."""
    for comp in connected_components(edges):
        if a in comp and b in comp:
            return True
    return False


def has_vacuum_component(edges: Edges, external: Sequence[str] = (EXTERNAL_A, EXTERNAL_B)) -> bool:
    """True if some component touches no external time (a vacuum bubble)."""
    for comp in connected_components(edges):
        if not comp & set(external):
            return True
    return False
