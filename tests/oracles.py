"""Independent oracles for the test-suite.

These deliberately avoid the library's own enumeration and integration paths:
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
from math import factorial
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import integrate, linalg

from oscqgt import spectral_oracle
from oscqgt.integrator import Edges
from oscqgt.linear_exact import exact_linear_qgt
from oscqgt.perturbation import GradedSum, PolynomialPotential, _linked_class
from oscqgt.scalar_algebra import NonPositiveAlpha, OracleFailure, ScalarSeries, ScalarTerm
from oscqgt.spectral_oracle import NumericQGT, OracleConfig
from oscqgt.wick import WickDiagram, edges_to_dot, enumerate_pairings


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
                yield degrees, _linked_class(diag.edges, names), diag.multiplicity


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
    for m, grade in sorted(graded.items()):
        strip = (Fraction(-1) / c) ** m * factorial(m)
        for edges, coeff in sorted(grade.items()):
            raw = coeff * strip
            pattern = " ".join(f"D({a},{b})" for a, b in edges)
            lines.append(f"order {m}: {raw} * {pattern}")
    return lines


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
    potential: PolynomialPotential | None,
    config: OracleConfig,
) -> np.ndarray:
    """Dense symmetric matrix of H in the reference oscillator number basis."""
    if potential is not None and potential.degree > 8:
        raise ValueError("potential degree must be <= 8")
    n = config.basis_size
    omega = config.omega(alpha)
    h = np.diag(omega * (np.arange(n) + 0.5))
    q = dense_position(n, omega)
    q2 = q @ q
    h = h + 0.5 * (alpha - omega**2) * q2 + j * q
    if potential is not None and lam != 0.0:
        powers = {1: q, 2: q2}
        qk = q2
        for deg in range(3, potential.degree + 1):
            qk = qk @ q
            powers[deg] = qk
        for deg, c in potential.coefficients:
            h = h + lam * float(c) * powers[deg]
    return 0.5 * (h + h.T)


def gauge_fix(vec: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the largest-magnitude entry is positive."""
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        return -vec
    return vec


def ground_state(band: np.ndarray, start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """The spectral oracle's ground state of a band matrix in lower storage,
    from `start` or solved cold, with its sign fixed by gauge_fix."""
    energy, vec, _ = spectral_oracle._ground_pair(band, start)
    return energy, gauge_fix(vec)


def dense_ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair, normalized, sign fixed by its largest-magnitude entry."""
    vals, vecs = linalg.eigh(matrix, subset_by_index=(0, 0))
    vec = vecs[:, 0]
    return float(vals[0]), gauge_fix(vec / np.linalg.norm(vec))


def sum_over_states_qim(
    alpha: float,
    lam: float,
    j: float,
    potential: PolynomialPotential | None,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> NumericQGT:
    """The metric as a sum over every excited state of the dense H,

        g_ab = sum_{n > 0} <0|dH_a|n><n|dH_b|0> / (E_n - E0)^2,

    from scipy's full eigendecomposition, in the basis pinned at the point,
    with dH_a built densely: q^2/2 for alpha, V(q) for lambda and q for J.
    """
    spectral_oracle._require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    pinned = OracleConfig(config.basis_size, config.omega(alpha))
    energies, states = linalg.eigh(dense_hamiltonian(alpha, lam, j, potential, pinned))
    q = dense_position(pinned.basis_size, pinned.reference_frequency)
    derivative = {"alpha": 0.5 * q @ q, "j": q, "lambda": np.zeros_like(q)}
    for deg, c in potential.coefficients if potential is not None else ():
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
    potential: PolynomialPotential | None,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
    steps: dict[str, float] | None = None,
) -> NumericQGT:
    """The metric from central differences of banded ground states,

        g_ab = <d_a psi | d_b psi> - <d_a psi | psi><psi | d_b psi>,

    in the basis pinned at the point, each shifted state started from the
    point's own and sign-gauge-fixed.  `steps` replaces `fd_step`'s defaults
    by label.  The metric uses the halved step; each entry's report carries
    the Richardson estimate of its error, fd_halving = |g(h) - g(h/2)| / 3.
    Raises StepTooLarge when halving moves an entry by more than 10%.
    """
    spectral_oracle._require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    pinned = OracleConfig(config.basis_size, config.omega(alpha))
    steps = {label: (steps or {}).get(label, fd_step(label, alpha)) for label in labels}

    def state(guess=None, label=None, step=0.0):
        point = {"alpha": alpha, "lambda": lam, "j": j}
        if label is not None:
            point[label] += step
        band = spectral_oracle.build_hamiltonian(*point.values(), potential, pinned)
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
    potential: PolynomialPotential | None,
    config: OracleConfig | None = None,
    labels: tuple[str, ...] = ("alpha", "lambda"),
) -> NumericQGT:
    """Secondary estimator from ground-state overlaps: g ~ 2(1 - F)/step^2.

    Diagonal entries come directly from the fidelity drop along one parameter;
    off-diagonal entries via the polarization identity along the combined
    displacement, each with `fd_step`'s steps.  Cross-validates the
    response estimator, on the dense path.
    """
    spectral_oracle._require_ground_state(alpha, lam, potential)
    config = config or OracleConfig()
    pinned = OracleConfig(config.basis_size, config.omega(alpha))
    point = {"alpha": alpha, "lambda": lam, "j": j}

    def vec_at(displacement: dict[str, float]) -> np.ndarray:
        p = dict(point)
        for k, v in displacement.items():
            p[k] += v
        h = dense_hamiltonian(p["alpha"], p["lambda"], p["j"], potential, pinned)
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
