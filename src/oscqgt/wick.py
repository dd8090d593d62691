"""Wick contractions of Gaussian moments <q^n1(t1) ... q^nk(tk)>.

Moments of the free (or constant-source) Euclidean oscillator factorize into
sums over perfect pairings of the q-factors.  Legs attached to the same time
are interchangeable, so a diagram is fully described by how many propagators
join each pair of times (plus self-loops and, with a source, legs routed to
the one-point function).  Diagrams are enumerated directly in that collapsed
form; the pairing multiplicity of a diagram with n_i legs at time i, e_ij
edges between times i and j, e_ii self-loops and m_i mean legs is

    prod_i n_i! / ( prod_{i<j} e_ij! * prod_i 2**e_ii e_ii! * prod_i m_i! ).

With a constant source J the one-point function is <q> = -J/alpha, constant
in Euclidean time, so the s-integral of the attached propagator is folded in
once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Sequence

from .integrator import Propagator, PropagatorProduct
from .scalar_algebra import ScalarSeries

__all__ = [
    "InsertionPoint",
    "WickDiagram",
    "GaussianModel",
    "enumerate_pairings",
    "moment",
    "connected_pair_correlator",
    "edges_to_dot",
]


@dataclass(frozen=True)
class InsertionPoint:
    """power q-factors inserted at one Euclidean time."""

    time_var: str
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("insertion power must be >= 1")


@dataclass(frozen=True)
class WickDiagram:
    """One pairing class: a multiset of edges, optional mean legs, and its multiplicity."""

    edges: tuple[tuple[str, str], ...]
    mean_legs: tuple[str, ...] = ()
    multiplicity: int = 1


@dataclass(frozen=True)
class GaussianModel:
    """Reference Gaussian: free oscillator, optionally with a constant source J."""

    source_j: bool = False

    @property
    def mean_value(self) -> ScalarSeries:
        # <q(tau)> = -J * integral ds D(s, tau) = -J/alpha, constant in tau
        if self.source_j:
            return ScalarSeries.term(-1, alpha_half_pow=-2, j_pow=1)
        return ScalarSeries.zero()


def _merge_points(points: Iterable[InsertionPoint]) -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for p in points:
        counts[p.time_var] = counts.get(p.time_var, 0) + p.power
    return sorted(counts.items())


def enumerate_pairings(
    points: Sequence[InsertionPoint],
    with_mean: bool = False,
    rank: Callable[[int, list[int]], object] | None = None,
) -> list[WickDiagram]:
    """All pairing classes of the given insertions, with exact multiplicities.

    Multiplicities over all diagrams of 2n legs (no mean) sum to (2n-1)!!.
    An odd total without mean legs yields an empty list (the moment is zero).

    `rank(i, row)` breaks the symmetry between interchangeable times: row[j]
    counts the edges between the i-th and j-th time in name order (row[i] the
    self-loops), and the walk skips every diagram in which a time's rank sorts
    below the previous ranked time's (None leaves a time unranked).  With a
    rank that relabelling preserves, every class of diagrams under relabelling
    keeps at least its sorted labelling.
    """
    nodes = _merge_points(points)
    names = [n for n, _ in nodes]
    legs = [c for _, c in nodes]
    k = len(nodes)
    fact = [factorial(i) for i in range(max(legs, default=0) + 1)]
    total = 1
    for c in legs:
        total *= fact[c]
    compositions: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    links = [[0] * k for _ in range(k)]
    diagrams: list[WickDiagram] = []

    # assign node i's remaining legs to mean legs, self-loops and edges toward
    # nodes j > i; edges and mean legs are appended in sorted order, and the
    # denominator of the multiplicity grows with them.  Row i of `links` is
    # complete once node i is placed: earlier nodes filled in its first i
    # entries.
    def walk(i: int, remaining: list[int], edges: tuple, means: tuple, denom: int, floor):
        if i == k:
            q, rem = divmod(total, denom)
            assert rem == 0
            diagrams.append(WickDiagram(edges, means, q))
            return
        n_i, name, row = remaining[i], names[i], links[i]
        later = tuple(remaining[i + 1 :])
        for m_i in range(n_i + 1) if with_mean else (0,):
            head_means = means + (name,) * m_i
            for self_i in range((n_i - m_i) // 2 + 1):
                head_edges = edges + ((name, name),) * self_i
                head_denom = denom * fact[m_i] * fact[self_i] * 2**self_i
                row[i] = self_i
                rest = n_i - m_i - 2 * self_i
                key = (rest, later)
                if key not in compositions:
                    compositions[key] = list(_compositions(rest, later))
                for combo in compositions[key]:
                    row[i + 1 :] = combo
                    r = rank(i, row) if rank else None
                    if r is None:
                        r = floor
                    elif floor is not None and r < floor:
                        continue
                    new_remaining = list(remaining)
                    new_edges, new_denom = head_edges, head_denom
                    for j, e in enumerate(combo, start=i + 1):
                        links[j][i] = e
                        if e:
                            new_edges += ((name, names[j]),) * e
                            new_denom *= fact[e]
                            new_remaining[j] -= e
                    walk(i + 1, new_remaining, new_edges, head_means, new_denom, r)

    walk(0, legs, (), (), 1, None)
    diagrams.sort(key=lambda d: (d.edges, d.mean_legs))
    return diagrams


def _compositions(total: int, caps: Sequence[int]):
    """Ways to write `total` as an ordered sum bounded by caps."""
    if not caps:
        if total == 0:
            yield ()
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def moment(model: GaussianModel, points: Sequence[InsertionPoint]) -> list[PropagatorProduct]:
    """<prod q^power(time)> as a sum of propagator products (pre-integration)."""
    diagrams = enumerate_pairings(points, with_mean=model.source_j)
    mean = model.mean_value
    out = []
    for d in diagrams:
        coeff = ScalarSeries.term(d.multiplicity)
        if d.mean_legs:
            coeff = coeff * mean ** len(d.mean_legs)
        if coeff.is_zero:
            continue
        out.append(PropagatorProduct(coeff, tuple(Propagator(e) for e in d.edges)))
    return _merge_products(out)


def _merge_products(products: Iterable[PropagatorProduct]) -> list[PropagatorProduct]:
    acc: dict[tuple, ScalarSeries] = {}
    for p in products:
        acc[p.edges] = acc.get(p.edges, ScalarSeries.zero()) + p.coeff
    out = [
        PropagatorProduct(c, tuple(Propagator(e) for e in edges))
        for edges, c in acc.items()
        if not c.is_zero
    ]
    out.sort(key=lambda p: p.edges)
    return out


def product_of_sums(
    a: Iterable[PropagatorProduct], b: Iterable[PropagatorProduct]
) -> list[PropagatorProduct]:
    """Distributive product of two propagator sums, canonically merged."""
    out = [
        PropagatorProduct(pa.coeff * pb.coeff, pa.propagators + pb.propagators)
        for pa in a
        for pb in b
    ]
    return _merge_products(out)


def connected_pair_correlator(
    model: GaussianModel,
    a_points: Sequence[InsertionPoint],
    b_points: Sequence[InsertionPoint],
) -> list[PropagatorProduct]:
    """<O_A O_B> - <O_A><O_B>, cancelled exactly term by term.

    What survives are the pairing classes in which the A-cluster and the
    B-cluster are joined by at least one chain of propagators; the clusters
    may even share a time variable.
    """
    joint = moment(model, list(a_points) + list(b_points))
    disconnected = product_of_sums(moment(model, a_points), moment(model, b_points))
    negated = [PropagatorProduct(-p.coeff, p.propagators) for p in disconnected]
    return _merge_products(joint + negated)


# -- diagram rendering -------------------------------------------------------


def edges_to_dot(
    edges: Sequence[tuple[str, str]],
    name: str,
    label: str,
    mean_legs: Sequence[str] = (),
) -> str:
    lines = [f"graph {name} {{", f'  label="{label}";']
    nodes = sorted({e for pair in edges for e in pair} | set(mean_legs))
    for n in nodes:
        lines.append(f"  {n};")
    if mean_legs:
        lines.append('  source [shape=box, label="J"];')
    for a, b in sorted(edges):
        lines.append(f"  {a} -- {b};")
    for leg in sorted(mean_legs):
        lines.append(f"  {leg} -- source [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
