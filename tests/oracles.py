"""Independent oracles for the test-suite.

These deliberately avoid the library's own enumeration and integration paths:
a literal recursive pairing enumerator over individual q-legs, and numeric
quadrature of the |t - t'| propagator integrands.
"""

from __future__ import annotations

import math

from scipy import integrate

from oscqgt.integrator import propagator_value
from oscqgt.wick import InsertionPoint


def brute_force_diagrams(points, with_mean=False):
    """Enumerate every perfect pairing leg by leg.

    Returns {(sorted edge tuple, sorted mean-leg tuple): multiplicity}; the
    multiplicities count raw pairings, so they can be compared directly with
    WickDiagram.multiplicity.
    """
    legs: list[str] = []
    for p in points:
        legs.extend([p.time_var] * p.power)
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


def points_of(spec: dict[str, int]) -> list[InsertionPoint]:
    return [InsertionPoint(name, power) for name, power in spec.items()]


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


def quad_wedge(alpha: float, edges, n_vertices: int = 0) -> float:
    """Adaptive quadrature of a propagator product over the full wedge domain.

    Integrates tau1 over (-inf, 0], tau2 over [0, inf) and any internal
    vertices over the real line; the exponential decay justifies truncating
    each axis at 40/sqrt(alpha) (tail below 1e-17).  Desk scale only
    (<= 1 vertex).
    """
    # innermost first: vertices, then tau2, then tau1
    names = [f"s{i}" for i in range(1, n_vertices + 1)] + ["tau2", "tau1"]
    cut = 40.0 / math.sqrt(alpha)

    def f(*times):
        return product_value(alpha, edges, dict(zip(names, times)))

    base = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 200}

    def vertex_opts(*outer):
        # |s - t| kinks sit at the outer time values
        return dict(base, points=[t for t in outer if -cut < t < cut])

    ranges = [(-cut, cut)] * n_vertices + [(0.0, cut), (-cut, 0.0)]
    opts = [vertex_opts] * n_vertices + [base, base]
    value, err = integrate.nquad(f, ranges, opts=opts)
    assert err < 1e-8
    return value
