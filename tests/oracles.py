"""Independent oracles for the test-suite.

The library keys a graph by its integer edge counts; `counts_of` turns named
edges into those counts and `edge_names` turns them back.  `walk_pairings` is
the generic pairing walk that `wick.connected_classes` specialises: any legs,
an optional rank callback and an optional connectivity cut, with the ties of
the rank reported per diagram.  `enumerate_pairings` names its diagrams for
any {time: legs} map, as sorted `WickDiagram`s.  `connected_grade` walks one
pair's grade on its own, the reference for the shared walk of
`perturbation.connected_grades`, `class_form` searches the relabelled edge
lists, the reference for the counts maps of `wick._class_form`, and
`ordered_sum` runs one graph's subset DP, the reference for the batched pass
of `integrator._ordered_sums`; `connected_integrand` builds one pair's
integrand through the library.

The oracles below deliberately avoid the library's own enumeration and
integration paths:
a literal recursive pairing enumerator over individual q-legs (optionally
routing legs to the mean of a constant source), numeric quadrature of the
|t - t'| propagator integrands and their exact sum over every time order,
Gaussian moments of the constant-source oscillator with its mean
<q> = -J/alpha folded in and their connected two-cluster correlators (the
linear model without any J vertex), the connected integrand built the long
way, as numerator/vacuum ratios of interacting Green functions minus their
graded product, with an all-m! canonical form, the connected integrand from
every labelled Wick graph weighted by 1/m!, the spectral oracle's dense
path: H from dense matrix products, solved by a dense symmetric eigensolver,
and its metric as a sum over every excited state, the banded ground state
with its sign fixed, the metric from finite differences of banded ground
states with a step-halving guard, a
parser of the canonical series text, and the linear model's shifted
Gaussian with its metric from finite-difference overlap quadrature.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from operator import itemgetter, sub
from collections import Counter
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import integrate, linalg

from oscqgt import spectral_oracle
from oscqgt.integrator import DivergentIntegral, cut_sizes, wedge_integrals
from oscqgt.linear_exact import exact_linear_qgt
from oscqgt.perturbation import PolynomialPotential, _require_ground_state, connected_grades
from oscqgt.scalar_algebra import Frozen, NonPositiveAlpha, OracleFailure, ScalarSeries, ScalarTerm
from oscqgt.spectral_oracle import NumericQGT, OracleConfig
from oscqgt.wick import EdgeCounts, _compositions, _walk_rank, edge_layout, edge_names

# edge multiset of one diagram: tuple of sorted (name, name) pairs, sorted
Edges = tuple[tuple[str, str], ...]
# coupling-graded diagram sum: order -> {edge counts: coefficient}
GradedSum = dict[int, dict[EdgeCounts, Fraction]]


def potential_from_dict(coeffs: Mapping[int, Fraction]) -> PolynomialPotential:
    return PolynomialPotential(tuple(coeffs.items()))


# -- named diagrams -------------------------------------------------------------


def time_names(m: int) -> list[str]:
    """The names of the library's times 0..m+1: s1..sm, tau1, tau2."""
    return [*_vertex_names(m), "tau1", "tau2"]


def counts_of(edges: Iterable[tuple[str, str]], names: Sequence[str]) -> EdgeCounts:
    """The edge counts of a diagram given by named edges, over the times
    `names` (time i is names[i]): e_ij for i <= j, row by row."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    counts = [0] * (n * (n + 1) // 2)
    for a, b in edges:
        i, j = index[a], index[b]
        if i > j:
            i, j = j, i
        counts[i * n - i * (i - 1) // 2 + j - i] += 1
    return tuple(counts)


def named_edges(counts: EdgeCounts) -> Edges:
    """`edge_names` the long way: every edge named by its pair of times, in
    the order `counts_of` reads them, then sorted."""
    n = (math.isqrt(8 * len(counts) + 1) - 1) // 2
    pairs = itertools.combinations_with_replacement(time_names(n - 2), 2)
    return tuple(sorted(tuple(sorted(pair)) for pair, c in zip(pairs, counts) for _ in range(c)))


def named(graded: GradedSum) -> dict[int, dict[Edges, Fraction]]:
    """A graded diagram sum re-keyed by `edge_names`."""
    return {m: {edge_names(counts): c for counts, c in grade.items()} for m, grade in graded.items()}


class WickDiagram(Frozen):
    """One pairing class: a multiset of edges and its multiplicity.

    `tied` marks a diagram of a ranked walk in which two times share a rank.
    """

    __slots__ = ("edges", "multiplicity", "tied")

    def __init__(self, edges: Edges, multiplicity: int = 1, tied: bool = False):
        _set = object.__setattr__  # the class refuses assignment
        _set(self, "edges", edges)
        _set(self, "multiplicity", multiplicity)
        _set(self, "tied", tied)


def walk_pairings(
    legs: Sequence[int],
    rank: Callable[[int, list[int]], object] | None = None,
    connected: bool = False,
) -> list[tuple[EdgeCounts, int, bool]]:
    """Every pairing class of legs[i] q-factors at the i-th time, as
    (edge counts, multiplicity, tied), in walk order.

    `rank(i, row)` breaks the symmetry between interchangeable times: row[j]
    counts the edges between the i-th and j-th time (row[i] the self-loops),
    and the walk skips every diagram in which a time's rank sorts below the
    previous ranked time's (None leaves a time unranked).  With a rank that
    relabelling preserves, every class of diagrams under relabelling keeps at
    least its sorted labelling.  A diagram is `tied` when two of its ranked
    times share a rank: other labellings of its class may then sort too.

    With `connected`, only the diagrams that join every time into one
    component are returned.  The walk places the times in order and drops a
    branch as soon as the component of the time just placed has no edge left
    to a later time: that component can no longer grow, so every diagram
    below the branch is disconnected.
    """
    if any(c < 1 for c in legs):
        raise ValueError("every time needs >= 1 leg")
    if not legs:
        return [((), 1, False)]  # the empty product
    k = len(legs)
    fact = [factorial(i) for i in range(max(legs) + 1)]
    total = prod(fact[c] for c in legs)
    links = [[0] * k for _ in range(k)]
    found: list[tuple[EdgeCounts, int, bool]] = []
    last = k - 1

    # assign node i's remaining legs rest[0] to self-loops and edges toward
    # the nodes after it, which have rest[1:] legs left; `upper` holds the
    # earlier nodes' edge counts, and the denominator of the multiplicity
    # grows with them.  Node i's edges to earlier nodes are copied into its
    # row of `links` on entry, so the row is complete once node i is placed.
    # The last node can only close its legs into self-loops.
    def walk(i: int, rest: tuple[int, ...], upper: tuple[int, ...], denom: int, floor, tied: bool):
        n_i, later, row = rest[0], rest[1:], links[i]
        row[:i] = map(itemgetter(i), links[:i])
        for self_i in range(n_i // 2 if i == last else 0, n_i // 2 + 1):
            if connected and 2 * self_i == n_i and i < last and closes(i):
                continue  # no edge leaves node i's component: disconnected below
            head, head_denom = upper + (self_i,), denom * fact[self_i] << self_i
            row[i] = self_i
            for combo, combo_denom in _compositions(n_i - 2 * self_i, later):
                row[i + 1 :] = combo
                r = rank(i, row) if rank else None
                if r is None:
                    r, tie = floor, tied
                elif floor is not None and r < floor:
                    continue
                else:
                    tie = tied or r == floor
                if i == last:
                    found.append((head, total // head_denom, tie))
                else:
                    walk(i + 1, tuple(map(sub, later, combo)), head + combo, head_denom * combo_denom, r, tie)

    # whether node i's component among nodes 0..i has no edge to a later node
    # when node i itself sends none; the earlier nodes' rows are complete
    def closes(i: int) -> bool:
        seen, stack = {i}, [i]
        while stack:
            j = stack.pop()
            row = links[j]
            if j != i and any(row[i + 1 :]):
                return False
            for other in range(i):
                if row[other] and other not in seen:
                    seen.add(other)
                    stack.append(other)
        return True

    walk(0, tuple(legs), (), 1, None, False)
    return found


def walk_rank(m: int) -> Callable[[int, list[int]], tuple | None]:
    """The rank of `wick.connected_classes` as a `rank` of `walk_pairings`
    over s_1..s_m, tau1 and tau2: tau1 and tau2 stay unranked."""
    return lambda i, row: _walk_rank(m, i, row) if i < m else None


def enumerate_pairings(
    legs: Mapping[str, int],
    rank: Callable[[int, list[int]], object] | None = None,
    connected: bool = False,
) -> list[WickDiagram]:
    """All pairing classes of legs[t] q-factors at each time t, with exact
    multiplicities, sorted by edges.

    Multiplicities over all diagrams of 2n legs sum to (2n-1)!!.  An odd
    total yields an empty list (the moment is zero).  The times are walked
    in name order; `rank` and `connected` are those of `walk_pairings`.
    The walk's diagrams are named by `edge_names`, whose names of the times
    in walk order are then replaced by the keys of `legs`.
    """
    names = sorted(legs)
    k = len(names)
    rename = dict(zip(time_names(k - 2), names))
    # every name pair of the walk's times, as a sorted pair of names of `legs`
    pair_of = {
        pair: tuple(sorted(map(rename.__getitem__, pair)))
        for pair in edge_names((1,) * (k * (k + 1) // 2))
    }
    diagrams = [
        WickDiagram(tuple(sorted(map(pair_of.__getitem__, edge_names(counts)))), multiplicity, tied)
        for counts, multiplicity, tied in walk_pairings([legs[n] for n in names], rank, connected)
    ]
    diagrams.sort(key=lambda d: d.edges)
    return diagrams


def brute_force_diagrams(points: Mapping[str, int], with_mean=False):
    """Enumerate every perfect pairing of points[t] legs at each time t, leg
    by leg.

    Returns {(sorted edge tuple, sorted mean-leg tuple): multiplicity}; the
    multiplicities count raw pairings, so they can be compared directly with
    WickDiagram.multiplicity.
    """
    legs: list[str] = []
    for name, power in points.items():
        legs.extend([name] * power)
    acc: dict[tuple, int] = {}

    def walk(remaining, edges, means):
        if not remaining:
            key = (tuple(sorted(edges)), tuple(sorted(means)))
            acc[key] = acc.get(key, 0) + 1
            return
        first, rest = remaining[0], remaining[1:]
        if with_mean:
            walk(rest, edges, means + [first])
        for i in range(len(rest)):
            partner = rest[i]
            walk(
                rest[:i] + rest[i + 1 :],
                edges + [tuple(sorted((first, partner)))],
                means,
            )

    walk(legs, [], [])
    return acc


# -- constant-source Gaussian with mean legs ----------------------------------


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


def moment(model: GaussianModel, points: Mapping[str, int]) -> dict[Edges, ScalarSeries]:
    """<prod_t q^points[t](t)> as {edges: coefficient}, a sum of propagator products.

    With a source, every leg may instead be routed to the mean <q>.
    """
    mean = model.mean_value
    terms = []
    for (edges, means), multiplicity in brute_force_diagrams(points, model.source_j).items():
        coeff = ScalarSeries.term(multiplicity)
        if means:
            coeff = coeff * mean ** len(means)
        terms.append((edges, coeff))
    return _merged(terms)


def _merged(terms: Iterable[tuple[Edges, ScalarSeries]]) -> dict[Edges, ScalarSeries]:
    """Sum the coefficients of equal edge multisets; drop those that cancel."""
    acc: dict[Edges, ScalarSeries] = {}
    for edges, coeff in terms:
        acc[edges] = acc.get(edges, ScalarSeries.zero()) + coeff
    return {edges: acc[edges] for edges in sorted(acc) if not acc[edges].is_zero}


def product_of_sums(
    a: dict[Edges, ScalarSeries], b: dict[Edges, ScalarSeries]
) -> dict[Edges, ScalarSeries]:
    """Distributive product of two propagator sums, canonically merged."""
    return _merged(
        (tuple(sorted(ea + eb)), ca * cb) for ea, ca in a.items() for eb, cb in b.items()
    )


def connected_pair_correlator(
    model: GaussianModel,
    a_points: Mapping[str, int],
    b_points: Mapping[str, int],
) -> dict[Edges, ScalarSeries]:
    """<O_A O_B> - <O_A><O_B>, cancelled exactly term by term.

    What survives are the pairing classes in which the A-cluster and the
    B-cluster are joined by at least one chain of propagators; the clusters
    may even share a time variable.
    """
    joint = moment(model, Counter(a_points) + Counter(b_points))
    disconnected = product_of_sums(moment(model, a_points), moment(model, b_points))
    return _merged([*joint.items(), *((e, -c) for e, c in disconnected.items())])


# -- numeric propagators and quadrature ----------------------------------------


def propagator_value(alpha: float, t1: float, t2: float) -> float:
    """Numeric D(t1, t2) = exp(-sqrt(alpha) |t1 - t2|) / (2 sqrt(alpha))."""
    root = math.sqrt(alpha)
    return math.exp(-root * abs(t1 - t2)) / (2.0 * root)


def product_value(alpha: float, edges, assignment: dict[str, float]) -> float:
    """Numeric value of a propagator product at fixed times."""
    val = 1.0
    for a, b in edges:
        val *= propagator_value(alpha, assignment[a], assignment[b])
    return val


def quad_internal_vertex(alpha: float, edges, assignment: dict[str, float], vertex: str) -> float:
    """1D adaptive quadrature over one internal vertex at fixed external times."""

    def f(s):
        return product_value(alpha, edges, {**assignment, vertex: s})

    reach = max(abs(v) for v in assignment.values())
    cut = 40.0 / math.sqrt(alpha) + reach
    kinks = sorted(set(assignment.values()))
    value, err = integrate.quad(
        f, -cut, cut, points=kinks, epsabs=1e-14, epsrel=1e-13, limit=500
    )
    assert err < 1e-10
    return value


def quad_separation(alpha: float, edges, vertex: str) -> float:
    """The one-vertex wedge integral as int_0^inf du u f(u), by nested quad.

    The integrand depends only on time differences, so fixing tau1 = 0 and
    tau2 = u leaves the wedge measure u du; f(u) is quad_internal_vertex.
    """

    def f(u):
        return u * quad_internal_vertex(alpha, edges, {"tau1": 0.0, "tau2": u}, vertex)

    value, err = integrate.quad(f, 0.0, 40.0 / math.sqrt(alpha), epsabs=1e-13, epsrel=1e-11, limit=200)
    assert err < 1e-9
    return value


_GAUSS_NODES = 96  # per kink-free piece of a vertex integral; the estimate uses half


@functools.lru_cache(maxsize=1)
def _gauss_pair() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of _GAUSS_NODES and of half as many points on
    [-1, 1], concatenated, and a (2, nodes) matrix whose rows hold each
    rule's weights."""
    fine, coarse = (np.polynomial.legendre.leggauss(n) for n in (_GAUSS_NODES, _GAUSS_NODES // 2))
    weights = np.zeros((2, _GAUSS_NODES + _GAUSS_NODES // 2))
    weights[0, :_GAUSS_NODES], weights[1, _GAUSS_NODES:] = fine[1], coarse[1]
    return np.concatenate([fine[0], coarse[0]]), weights


def gauss_vertex(alpha: float, edges, tau1: float, tau2: float, cut: float) -> float:
    """The integral of a propagator product over one internal vertex s1 in
    [-cut, cut] at fixed tau1 <= tau2, by fixed Gauss-Legendre rules on the
    kink-free pieces [-cut, tau1], [tau1, tau2] and [tau2, cut].  Asserts that
    the rule with half the nodes agrees to 1e-11 relative."""
    x, weights = _gauss_pair()
    lo, hi = np.array([-cut, tau1, tau2]), np.array([tau1, tau2, cut])
    half = 0.5 * (hi - lo)[:, None]
    times = {"tau1": tau1, "tau2": tau2, "s1": half * x + 0.5 * (hi + lo)[:, None]}
    distance = sum(np.abs(times[a] - times[b]) for a, b in edges)
    root = math.sqrt(alpha)
    values = np.exp(-root * distance) / (2.0 * root) ** len(edges)
    fine, coarse = (half * values).sum(axis=0) @ weights.T
    assert abs(fine - coarse) <= 1e-11 * abs(fine), (fine, coarse)
    return float(fine)


def quad_wedge(alpha: float, edges, n_vertices: int = 0) -> float:
    """Quadrature of a propagator product over the full wedge domain.

    Integrates tau1 over (-inf, 0] and tau2 over [0, inf) adaptively, and an
    internal vertex s1, if any, over the real line by gauss_vertex; the
    exponential decay justifies truncating each axis at 40/sqrt(alpha) (tail
    below 1e-17).  Desk scale only (<= 1 vertex).
    """
    assert n_vertices <= 1
    cut = 40.0 / math.sqrt(alpha)

    def f(tau2, tau1):
        if n_vertices:
            return gauss_vertex(alpha, edges, tau1, tau2, cut)
        return product_value(alpha, edges, {"tau1": tau1, "tau2": tau2})

    opts = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 200}
    value, err = integrate.nquad(f, [(0.0, cut), (-cut, 0.0)], opts=[opts, opts])
    assert err < 1e-8
    return value


def brute_force_wedge(edges, names: Sequence[str]) -> Fraction:
    """Exact wedge weight of a propagator product, one time order at a time.

    Sums prod_g 1/c_g * sum_{gaps between tau1 and tau2} 1/c_j over all
    len(names)! orders of the times that put tau1 before tau2, where c_g
    counts the edges with exactly one endpoint among the times before gap g.
    A disconnected product raises ZeroDivisionError.
    """
    links = [(a, b) for a, b in edges if a != b]
    total = Fraction(0)
    for order in itertools.permutations(names):
        lo, hi = order.index("tau1"), order.index("tau2")
        if lo > hi:
            continue
        weights = []
        for g in range(1, len(order)):
            before = set(order[:g])
            weights.append(Fraction(1, sum((a in before) != (b in before) for a, b in links)))
        total += math.prod(weights) * sum(weights[lo:hi])
    return total


# -- connected integrand by formal ratio division ------------------------------


@dataclass(frozen=True)
class InteractingGreen:
    """Numerator, denominator and divided series of one interacting correlator."""

    numerator: dict
    denominator: dict
    ratio: dict


def _vertex_names(m: int, offset: int = 0) -> list[str]:
    return [f"s{i}" for i in range(offset + 1, offset + m + 1)]


def linked_class(edges, names: Sequence[str]) -> tuple[EdgeCounts, int]:
    """`class_form` of a connected diagram given by its edges over tau1,
    tau2 and the internal vertices `names`."""
    return class_form(counts_of(edges, [*names, "tau1", "tau2"]), len(names))


def class_form(counts: EdgeCounts, m: int) -> tuple[EdgeCounts, int]:
    """`wick._class_form` by a search over sorted edge lists: the canonical
    edge counts and automorphism count of a connected diagram over s_1..s_m,
    tau1 and tau2.

    Every relabelling that keeps the vertices' ranks (`wick._walk_rank`)
    sorted is applied to the diagram's edges; the form is the smallest sorted
    list of their positions, as counts, and |Aut| the number of relabellings
    that reach it.
    """
    n = m + 2
    pairs, position = edge_layout(n)
    edges = [pair for pair, c in zip(pairs, counts) for _ in range(c)]
    rank = [_walk_rank(m, i, [counts[p] for p in row]) for i, row in enumerate(position[:m])]
    ranked = sorted(range(m), key=rank.__getitem__)
    classes = [list(group) for _, group in itertools.groupby(ranked, key=rank.__getitem__)]
    label = list(range(n))
    best, automorphisms = None, 0
    for choice in itertools.product(*(itertools.permutations(c) for c in classes)):
        for new, old in enumerate(itertools.chain.from_iterable(choice)):
            label[old] = new
        key = sorted(position[label[i]][label[j]] for i, j in edges)
        if best is None or key < best:
            best, automorphisms = key, 1
        elif key == best:
            automorphisms += 1
    form = [0] * len(counts)
    for p in best:
        form[p] += 1
    return tuple(form), automorphisms


def canonical_edges(edges, vertices: Sequence[str]):
    """Minimal edge multiset over all m! relabelings of the internal vertices."""
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    if len(vertices) < 2:
        return edges
    best = None
    for perm in itertools.permutations(vertices):
        mapping = dict(zip(vertices, perm))
        relab = tuple(
            sorted(tuple(sorted((mapping.get(a, a), mapping.get(b, b)))) for a, b in edges)
        )
        if best is None or relab < best:
            best = relab
    return best


def to_oracle_form(graded: dict) -> dict:
    """Re-key a graded diagram sum by the all-m! canonical form."""
    out = {}
    for m, grade in graded.items():
        merged: dict = {}
        for edges, coeff in grade.items():
            _add(merged, canonical_edges(edges, _vertex_names(m)), coeff)
        out[m] = merged
    return out


def _add(acc: dict, edges, coeff: Fraction) -> None:
    new = acc.get(edges, Fraction(0)) + coeff
    if new == 0:
        acc.pop(edges, None)
    else:
        acc[edges] = new


def _graded_moments(points, order: int, potential) -> dict:
    """Free moments of the external points with m = 0..order interaction vertices.

    Coefficients carry the full (-1)^m/m! * prod c_deg weights, so grade m is
    the exact lambda^m coefficient of <prod q e^{-S_int}> before integration.
    """
    out = {}
    for m in range(order + 1):
        grade: dict = {}
        names = _vertex_names(m)
        for degrees in itertools.product([d for d, _ in potential.coefficients], repeat=m):
            weight = Fraction((-1) ** m, factorial(m))
            for d in degrees:
                weight *= dict(potential.coefficients)[d]
            legs = {**points, **dict(zip(names, degrees))}
            if sum(legs.values()) % 2:
                continue
            for diag in enumerate_pairings(legs):
                _add(grade, canonical_edges(diag.edges, names), weight * diag.multiplicity)
        out[m] = grade
    return out


def _graded_product(a: dict, b: dict, order: int) -> dict:
    """Product of graded sums; the right factor's vertices are relabeled fresh."""
    out: dict = {m: {} for m in range(order + 1)}
    for i, gi in a.items():
        for j, gj in b.items():
            m = i + j
            if m > order:
                continue
            shifted = dict(zip(_vertex_names(j), _vertex_names(j, offset=i)))
            for ea, ca in gi.items():
                for eb, cb in gj.items():
                    moved = tuple(
                        tuple(sorted((shifted.get(x, x), shifted.get(y, y)))) for x, y in eb
                    )
                    _add(out[m], canonical_edges(ea + moved, _vertex_names(m)), ca * cb)
    return out


def interacting_green(points, order: int, potential):
    """Expansion of <prod q^power(time)> in the interacting theory.

    Returns the numerator and vacuum-denominator series and their formal
    ratio, truncated at the given coupling order.
    """
    numerator = _graded_moments(points, order, potential)
    denominator = _graded_moments({}, order, potential)
    # divide: ratio_m = num_m - sum_{i=1..m} den_i * ratio_{m-i}
    ratio: dict = {}
    for m in range(order + 1):
        grade = dict(numerator.get(m, {}))
        for i in range(1, m + 1):
            correction = _graded_product({i: denominator[i]}, {m - i: ratio[m - i]}, m)
            for edges, coeff in correction.get(m, {}).items():
                _add(grade, edges, -coeff)
        ratio[m] = grade
    return InteractingGreen(numerator, denominator, ratio)


def ratio_connected_integrand(k_a: int, k_b: int, order: int, potential):
    """<q^k_a(tau1) q^k_b(tau2)>_int - <q^k_a>_int <q^k_b>_int from the three
    divided series."""
    a_pts = {"tau1": k_a}
    b_pts = {"tau2": k_b}
    g_ab = interacting_green({**a_pts, **b_pts}, order, potential).ratio
    g_a = interacting_green(a_pts, order, potential).ratio
    g_b = interacting_green(b_pts, order, potential).ratio
    product = _graded_product(g_a, g_b, order)
    result = {}
    for m in set(g_ab) | set(product):
        grade = dict(g_ab.get(m, {}))
        for edges, coeff in product.get(m, {}).items():
            _add(grade, edges, -coeff)
        result[m] = grade
    return {m: grade for m, grade in result.items() if m <= order}


# -- connected integrand from every labelled graph ----------------------------


def kept_labelled_graphs(k_a: int, k_b: int, m: int, potential):
    """Every labelled Wick graph with m vertices joining tau1, tau2 and all s_i.

    Walks each ordering of each vertex-degree multiset (itertools.product) and
    yields (degrees, (canonical edges, automorphisms), multiplicity).
    """
    names = _vertex_names(m)
    for degrees in itertools.product([d for d, _ in potential.coefficients], repeat=m):
        if (k_a + k_b + sum(degrees)) % 2:
            continue
        for diag in enumerate_pairings({"tau1": k_a, "tau2": k_b, **dict(zip(names, degrees))}):
            if len(connected_components(diag.edges)) == 1:
                yield degrees, linked_class(diag.edges, names), diag.multiplicity


def labelled_connected_integrand(k_a: int, k_b: int, order: int, potential):
    """connected_integrand summed over labelled graphs, each weighted by 1/m!.

    Each kept labelled graph adds (-1)^m/m! * prod c_deg * multiplicity to its
    canonical class, so a class collects its m!/|Aut| labellings without any
    symmetry breaking.
    """
    coefficients = dict(potential.coefficients)
    out = {}
    for m in range(order + 1):
        grade: dict = {}
        for degrees, (edges, _automorphisms), multiplicity in kept_labelled_graphs(
            k_a, k_b, m, potential
        ):
            weight = Fraction((-1) ** m, factorial(m))
            for d in degrees:
                weight *= coefficients[d]
            _add(grade, edges, weight * multiplicity)
        out[m] = grade
    return out


# -- per-pair connected integrand and one-graph ordered sums --------------------


def full_classes(degrees: Sequence[int], k_a: int, k_b: int) -> dict[EdgeCounts, tuple[int, int]]:
    """Every class of connected pairings of vertices of the given degrees,
    tau1 with k_a legs and tau2 with k_b, as {canonical edge counts:
    (multiplicity, |Aut|)} in order of first appearance: the generic walk,
    ranked and cut to connected graphs, with each tied graph put in its class
    form, every labelling and both classes of each tau1 <-> tau2 mirror pair
    kept."""
    m, classes = len(degrees), {}
    for counts, multiplicity, tied in walk_pairings([*degrees, k_a, k_b], walk_rank(m), True):
        counts, automorphisms = class_form(counts, m) if tied else (counts, 1)
        classes.setdefault(counts, (multiplicity, automorphisms))
    return classes


def relabelled(counts: EdgeCounts, label: Sequence[int]) -> EdgeCounts:
    """The edge counts of a diagram with time i renamed label[i]."""
    pairs, position = edge_layout(len(label))
    out = [0] * len(counts)
    for (i, j), c in zip(pairs, counts):
        out[position[label[i]][label[j]]] += c
    return tuple(out)


def tau_mirror(counts: EdgeCounts, m: int) -> EdgeCounts:
    """The diagram over s_1..s_m, tau1 and tau2 with tau1 and tau2 swapped."""
    return relabelled(counts, [*range(m), m + 1, m])


def vertex_ranks(counts: EdgeCounts, m: int) -> list:
    """The ranks (`wick._walk_rank`) of s_1..s_m, in order."""
    position = edge_layout(m + 2)[1]
    return [_walk_rank(m, i, [counts[p] for p in position[i]]) for i in range(m)]


def walked_classes(degrees: Sequence[int], k_a: int, k_b: int) -> dict[EdgeCounts, tuple[int, int, bool]]:
    """`wick.connected_classes` by the generic walk: of its ranked connected
    labellings, drop each in which swapping a vertex s_i with a rank-tied
    s_{i-1} makes the counts of rows 0..i larger, and, when k_a = k_b, each
    whose class has a mirror with smaller sorted ranks, or equal ranks and a
    smaller form; then {form: (multiplicity, |Aut|, paired)} in order of
    first appearance, paired when the mirror is another class."""
    m, n = len(degrees), len(degrees) + 2
    classes = {}
    for counts, multiplicity, tied in walk_pairings([*degrees, k_a, k_b], walk_rank(m), True):
        ranks = vertex_ranks(counts, m)  # sorted: the walk is ranked
        rows = [(i + 1) * n - i * (i + 1) // 2 for i in range(m)]  # the counts of rows 0..i
        swapped = [
            relabelled(counts, [*range(i - 1), i, i - 1, *range(i + 1, n)])[: rows[i]] > counts[: rows[i]]
            for i in range(1, m)
            if ranks[i] == ranks[i - 1]
        ]
        if any(swapped):
            continue
        form, automorphisms = class_form(counts, m) if tied else (counts, 1)
        paired = False
        if k_a == k_b:
            mirror = tau_mirror(counts, m)
            twin = class_form(mirror, m)[0]
            if (sorted(vertex_ranks(mirror, m)), twin) < (ranks, form):
                continue
            paired = twin != form
        classes.setdefault(form, (multiplicity, automorphisms, paired))
    return classes


def connected_grade(k_a: int, k_b: int, m: int, potential: PolynomialPotential) -> dict[EdgeCounts, Fraction]:
    """Grade m of one pair's connected integrand, walked on its own:
    {edge counts: coefficient}, the classes of `full_classes` at (k_a, k_b)
    for each multiset of vertex degrees, weighted by
    (-1)^m * prod c_deg * multiplicity / |Aut|.  The reference for the
    shared, mirror-halved walk of `perturbation.connected_grades`."""
    coefficients = dict(potential.coefficients)
    grade: dict[EdgeCounts, Fraction] = {}
    for degrees in itertools.combinations_with_replacement(sorted(coefficients), m):
        if (k_a + k_b + sum(degrees)) % 2:
            continue
        weight = Fraction((-1) ** m)
        for d in degrees:
            weight *= coefficients[d]
        for counts, (multiplicity, automorphisms) in full_classes(degrees, k_a, k_b).items():
            grade[counts] = Fraction(weight.numerator * multiplicity, weight.denominator * automorphisms)
    return grade


def wedge_integral(graphs: Mapping[EdgeCounts, Fraction], n_vertices: int = 0, sums: dict | None = None):
    """`integrator.wedge_integrals` of one grade, by default with a memo of its own."""
    return wedge_integrals([graphs], n_vertices, {} if sums is None else sums)[0]


def qgt_component(space, a: str, b: str, order: int = 1) -> ScalarSeries:
    """One tensor component on its own: each grade of `connected_grade` up
    to the coupling truncation `order` (to k_a + k_b - 2 for a coupling
    summed exactly), integrated by `wedge_integral` with a memo of its own,
    times coupling^m and c_a * c_b.  The reference for `qgt.assemble`, whose
    pairs share one walk and one mirror-keyed memo per grade."""
    (k_a, c_a), (k_b, c_b) = space.derivative(a), space.derivative(b)
    series = ScalarSeries.zero()
    for m in range(k_a + k_b - 1 if space.exact else order + 1):
        series = series + wedge_integral(connected_grade(k_a, k_b, m, space.potential), m) * space.power(m)
    return series * (c_a * c_b)


def connected_integrand(k_a: int, k_b: int, order: int, potential: PolynomialPotential) -> GradedSum:
    """One pair's connected integrand per coupling order, from the library's
    `connected_grades` with that pair alone."""
    return {m: connected_grades([(k_a, k_b)], m, potential)[k_a, k_b] for m in range(order + 1)}


def ordered_sum(counts: EdgeCounts, n: int) -> Fraction:
    """One graph's sum over orders with tau1 before tau2 of
    prod_g 1/c_g * sum_j 1/c_j, by its own subset DP: the reference for the
    batched pass of `integrator._ordered_sums`.

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


# -- connectivity of edge multisets -------------------------------------------


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


def clusters_linked(edges, a: str = "tau1", b: str = "tau2") -> bool:
    """True if the two external clusters sit in one connected component."""
    for comp in connected_components(edges):
        if a in comp and b in comp:
            return True
    return False


def has_vacuum_component(edges, external: Sequence[str] = ("tau1", "tau2")) -> bool:
    """True if some component touches no external time (a vacuum bubble)."""
    for comp in connected_components(edges):
        if not comp & set(external):
            return True
    return False


def integrand_term_lines(graded: GradedSum, potential: PolynomialPotential) -> list[str]:
    """Stable text form of the integrand term list (pattern + raw coefficient).

    For a monomial potential q**k/k! the printed coefficient at grade m is the
    plain pairing count, i.e. the diagram coefficient with the (-1/k!)^m/m!
    vertex weights divided out.
    """
    if len(potential.coefficients) != 1:
        raise ValueError("the raw-coefficient view needs a monomial potential")
    k, c = potential.coefficients[0]
    lines = []
    for m, grade in sorted(named(graded).items()):
        strip = (Fraction(-1) / c) ** m * factorial(m)
        for edges, coeff in sorted(grade.items()):
            raw = coeff * strip
            pattern = " ".join(f"D({a},{b})" for a, b in edges)
            lines.append(f"order {m}: {raw} * {pattern}")
    return lines


def edges_to_dot(edges: Sequence[tuple[str, str]], name: str, label: str) -> str:
    """Graphviz DOT text of a diagram given by named edges, built line by line:
    the reference for `wick.connected_dot`."""
    lines = [f"graph {name} {{", f'  label="{label}";']
    for n in sorted({e for pair in edges for e in pair}):
        lines.append(f"  {n};")
    for a, b in sorted(edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def diagram_to_dot(diagram: WickDiagram, name: str = "diagram") -> str:
    return edges_to_dot(diagram.edges, name, f"multiplicity {diagram.multiplicity}")


# -- dense spectral path ------------------------------------------------------


def dense_position(n: int, omega: float) -> np.ndarray:
    """q in the first n states of the oscillator of frequency omega:
    q[n, n + 1] = sqrt((n + 1) / (2 omega))."""
    off = np.sqrt(np.arange(1.0, n) / (2.0 * omega))
    return np.diag(off, 1) + np.diag(off, -1)


def dense_hamiltonian(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential,
    config: OracleConfig,
    omega: float | None = None,
) -> np.ndarray:
    """Dense symmetric matrix of H in the number basis of the oscillator of
    frequency omega, sqrt(alpha) unless given: omega (n + 1/2) is
    p^2/2 + omega^2 q^2/2, and (alpha - omega^2) q^2/2 is added to it."""
    if potential.degree > 8:
        raise ValueError("potential degree must be <= 8")
    n = config.basis_size
    omega = np.sqrt(alpha) if omega is None else omega
    h = np.diag(omega * (np.arange(n) + 0.5))
    q = dense_position(n, omega)
    q2 = q @ q
    h = h + 0.5 * (alpha - omega**2) * q2 + j * q
    if lam != 0.0:
        powers = {1: q, 2: q2}
        qk = q2
        for deg in range(3, potential.degree + 1):
            qk = qk @ q
            powers[deg] = qk
        for deg, c in potential.coefficients:
            h = h + lam * float(c) * powers[deg]
    return 0.5 * (h + h.T)


def pinned_band(alpha: float, lam: float, j: float, potential: PolynomialPotential, n: int, omega: float) -> np.ndarray:
    """H in the first n number states of the oscillator of frequency omega,
    whatever alpha is, as the oracle's lower band storage: its band of
    J q + lambda V(q) + (alpha - omega^2) q^2/2 plus the diagonal
    omega (n + 1/2)."""
    coeffs = np.zeros(max(2, potential.degree) + 1)
    coeffs[1], coeffs[2] = j, 0.5 * (alpha - omega**2)
    for deg, c in potential.coefficients:
        coeffs[deg] += lam * float(c)
    band = spectral_oracle._polynomial_bands(coeffs, np.asarray(omega), n)
    band[0] += omega * (np.arange(n) + 0.5)
    return band


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the largest-magnitude entry is positive."""
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        return -vec
    return vec


def ground_state(band: np.ndarray, start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """The spectral oracle's ground state of a band matrix in lower storage,
    from `start` or solved cold, with its sign fixed by gauge_fix; raises
    the solve's NoConvergence."""
    energy, vec, _, [failure] = spectral_oracle._ground_pair(band[None], None if start is None else start[None])
    if failure is not None:
        raise failure
    return float(energy[0]), gauge_fix(vec[0])


def dense_ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair, normalized, sign fixed by its largest-magnitude entry."""
    vals, vecs = linalg.eigh(matrix, subset_by_index=(0, 0))
    vec = vecs[:, 0]
    return float(vals[0]), gauge_fix(vec / np.linalg.norm(vec))


def sum_over_states_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
    omega: float | None = None,
) -> NumericQGT:
    """The metric as a sum over every excited state of the dense H,

        g_ab = sum_{n > 0} <0|dH_a|n><n|dH_b|0> / (E_n - E0)^2,

    from scipy's full eigendecomposition, in the number basis of frequency
    omega (sqrt(alpha) unless given), with dH_a built densely: q^2/2 for
    alpha, V(q) for lambda and q for J.
    """
    _require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    omega = np.sqrt(alpha) if omega is None else omega
    energies, states = linalg.eigh(dense_hamiltonian(alpha, lam, j, potential, config, omega))
    q = dense_position(config.basis_size, omega)
    derivative = {"alpha": 0.5 * q @ q, "j": q, "lambda": np.zeros_like(q)}
    for deg, c in potential.coefficients:
        derivative["lambda"] = derivative["lambda"] + float(c) * np.linalg.matrix_power(q, deg)
    elements = np.array([states[:, 1:].T @ derivative[a] @ states[:, 0] for a in labels])
    elements /= energies[1:] - energies[0]
    return NumericQGT(tuple(labels), elements @ elements.T, {})


# -- finite-difference reference ----------------------------------------------


class StepTooLarge(OracleFailure):
    """Halving the finite-difference step moved an entry by more than 10%."""


def fd_step(label: str, alpha: float) -> float:
    """The default central-difference step along a parameter, scaled with
    alpha as the parameter itself scales."""
    return {"alpha": 1e-4 * alpha, "lambda": 1e-4 * alpha**1.5, "j": 1e-4 * alpha**0.75}[label]


def finite_difference_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
    steps: dict[str, float] | None = None,
) -> NumericQGT:
    """The metric from central differences of banded ground states,

        g_ab = <d_a psi | d_b psi> - <d_a psi | psi><psi | d_b psi>,

    in the basis pinned at omega = sqrt(alpha) of the point (`pinned_band`),
    each shifted state started from the point's own and sign-gauge-fixed.
    `steps` replaces `fd_step`'s defaults by label.  The metric uses the
    halved step; each entry's report carries the Richardson estimate of its
    error, fd_halving = |g(h) - g(h/2)| / 3.
    Raises StepTooLarge when halving moves an entry by more than 10%.
    """
    _require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    omega = np.sqrt(alpha)
    steps = {label: (steps or {}).get(label, fd_step(label, alpha)) for label in labels}

    def state(guess=None, label=None, step=0.0):
        point = {"alpha": alpha, "lambda": lam, "j": j}
        if label is not None:
            point[label] += step
        band = pinned_band(*point.values(), potential, config.basis_size, omega)
        return ground_state(band, guess)[1]

    psi0 = state()

    def metric(scale: float) -> np.ndarray:
        h = {a: scale * steps[a] for a in labels}
        derivs = np.array([(state(psi0, a, h[a]) - state(psi0, a, -h[a])) / (2.0 * h[a]) for a in labels])
        conn = derivs @ psi0
        return derivs @ derivs.T - np.outer(conn, conn)

    full, half = metric(1.0), metric(0.5)
    report = {}
    for i, a in enumerate(labels):
        for k, b in enumerate(labels):
            change = abs(full[i, k] - half[i, k])
            moved = change / max(abs(half[i, k]), 1e-8)
            if moved > 0.10:
                raise StepTooLarge(f"entry ({a},{b}) moved {moved:.1%} under step halving")
            report[(a, b)] = {"fd_halving": change / 3.0}  # second-order central differences
    return NumericQGT(tuple(labels), half, report)


def fidelity_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> NumericQGT:
    """Secondary estimator from ground-state overlaps: g ~ 2(1 - F)/step^2.

    Diagonal entries come directly from the fidelity drop along one parameter;
    off-diagonal entries via the polarization identity along the combined
    displacement, each with `fd_step`'s steps.  Cross-validates the
    response estimator, on the dense path in the basis pinned at
    omega = sqrt(alpha) of the point.
    """
    _require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    omega = np.sqrt(alpha)
    point = {"alpha": alpha, "lambda": lam, "j": j}

    def vec_at(displacement: dict[str, float]) -> np.ndarray:
        p = dict(point)
        for k, v in displacement.items():
            p[k] += v
        h = dense_hamiltonian(p["alpha"], p["lambda"], p["j"], potential, config, omega)
        return dense_ground_state(h)[1]

    def susceptibility(displacement: dict[str, float]) -> float:
        plus = vec_at({k: 0.5 * v for k, v in displacement.items()})
        minus = vec_at({k: -0.5 * v for k, v in displacement.items()})
        fidelity = abs(float(plus @ minus))
        return 2.0 * (1.0 - fidelity)

    steps = {label: fd_step(label, alpha) for label in labels}
    k = len(labels)
    g = np.empty((k, k))
    chi = {a: susceptibility({a: steps[a]}) for a in labels}
    for i, a in enumerate(labels):
        g[i, i] = chi[a] / steps[a] ** 2
    for i, a in enumerate(labels):
        for jdx in range(i + 1, k):
            b = labels[jdx]
            chi_ab = susceptibility({a: steps[a], b: steps[b]})
            g_ab = (chi_ab - chi[a] - chi[b]) / (2.0 * steps[a] * steps[b])
            g[i, jdx] = g[jdx, i] = g_ab
    return NumericQGT(tuple(labels), g, {})


# -- canonical text form, read back --------------------------------------------


def parse_series(text: str) -> ScalarSeries:
    """Inverse of ScalarSeries.render(); accepts the canonical text form."""
    text = text.strip()
    if text == "0":
        return ScalarSeries.zero()
    lead = 1
    if text.startswith("-"):
        lead = -1
        text = text[1:].strip()
    # term separators are space-padded; the minus in "a^-2" is not
    chunks = re.split(r" ([+-]) ", text)
    it = iter(chunks)
    parts: list[tuple[int, str]] = [(lead, next(it).strip())]
    for sign_tok, body in zip(it, it):
        parts.append((-1 if sign_tok == "-" else 1, body.strip()))
    terms = []
    for sign, body in parts:
        coeff = Fraction(sign)
        half_pow = 0
        l_pow = 0
        j_pow = 0
        for factor in (f.strip() for f in body.split("*")):
            m = re.fullmatch(r"([alj])(?:\^(-?\d+(?:/2)?))?", factor)
            if m:
                sym, exp_tok = m.group(1), m.group(2) or "1"
                exp = Fraction(exp_tok)
                if sym == "a":
                    if (2 * exp).denominator != 1:
                        raise ValueError(f"bad alpha exponent in {factor!r}")
                    half_pow += int(2 * exp)
                elif sym == "l":
                    l_pow += int(exp)
                else:
                    j_pow += int(exp)
            else:
                coeff *= Fraction(factor)
        terms.append(ScalarTerm(coeff, half_pow, l_pow, j_pow))
    return ScalarSeries.from_terms(terms)


# -- shifted-Gaussian overlaps by quadrature -----------------------------------
#
# The linear model's ground state in closed form, and its metric from
# finite-difference overlap integrals, each by a trapezoid rule on a fixed
# grid over the Gaussian's support (exponentially accurate for such an
# integrand): a numeric check of `oscqgt.linear_exact`'s closed forms.

_INTERVALS = 2048  # trapezoid intervals over the support


class QuadratureFailure(OracleFailure):
    """The overlap integral is not resolved on the quadrature grid."""


@dataclass(frozen=True)
class ShiftedGaussianState:
    """Normalized ground state of the sourced oscillator."""

    alpha: float
    j: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise NonPositiveAlpha(f"alpha must be > 0, got {self.alpha}")

    @property
    def center(self) -> float:
        return -self.j / self.alpha

    def psi(self, q):
        root = math.sqrt(self.alpha)
        return (root / math.pi) ** 0.25 * np.exp(-0.5 * root * (q - self.center) ** 2)


def _quad(f, lo: float, hi: float) -> float:
    """Composite trapezoid rule for a vectorised integrand on [lo, hi].

    For a smooth integrand whose tails have decayed at both ends the rule is
    exponentially accurate, so the gap to the rule on every second sample,
    |T(h) - T(2h)|, bounds the error of the coarser one.
    """
    y = f(np.linspace(lo, hi, _INTERVALS + 1))
    h = (hi - lo) / _INTERVALS
    ends = 0.5 * (y[0] + y[-1])
    value = h * (float(np.sum(y)) - ends)
    err = abs(value - 2.0 * h * (float(np.sum(y[::2])) - ends))
    if err > 1e-9:
        raise QuadratureFailure(f"overlap quadrature error {err:.2e}")
    return value


def _support(alpha: float, j: float, h_j: float) -> tuple[float, float]:
    # Gaussian tails drop below 1e-30 within 12/alpha^(1/4) of the center
    center = -j / alpha
    half = 12.0 / alpha**0.25 + abs(h_j) / alpha
    return center - half, center + half


def overlap_derivative_checks(alpha: float, j: float, step: float = 1e-5) -> dict:
    """Quadrature + finite-difference evaluation of the overlap matrix.

    Parameter derivatives of Psi are taken by central differences with steps
    scaled to each parameter; the q-integrals run over the (truncated) support
    of the Gaussian.  Returns the numeric and closed-form values per entry and
    the worst relative deviation.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    h = {"alpha": step * alpha, "j": step * alpha**0.75}
    lo, hi = _support(alpha, j, h["j"])

    def dpsi(label):
        d = h[label]
        if label == "alpha":
            plus = ShiftedGaussianState(alpha + d, j)
            minus = ShiftedGaussianState(alpha - d, j)
        else:
            plus = ShiftedGaussianState(alpha, j + d)
            minus = ShiftedGaussianState(alpha, j - d)
        return lambda q: (plus.psi(q) - minus.psi(q)) / (2.0 * d)

    state = ShiftedGaussianState(alpha, j)
    derivs = {label: dpsi(label) for label in ("alpha", "j")}
    exact = exact_linear_qgt(alpha, j)

    report: dict = {"entries": {}, "connections": {}}
    worst = 0.0
    for a in ("alpha", "j"):
        for b in ("alpha", "j"):
            if (b, a) in report["entries"]:
                continue
            da, db = derivs[a], derivs[b]
            numeric = _quad(lambda q: da(q) * db(q), lo, hi)
            target = exact[(a, b)]
            dev = abs(numeric - target) / max(1.0, abs(target))
            worst = max(worst, dev)
            report["entries"][(a, b)] = {
                "numeric": numeric,
                "exact": target,
                "relative_deviation": dev,
            }
    for a in ("alpha", "j"):
        da = derivs[a]
        conn = _quad(lambda q: da(q) * state.psi(q), lo, hi)
        worst = max(worst, abs(conn))
        report["connections"][a] = conn
    report["max_relative_deviation"] = worst
    return report
