"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import time
from fractions import Fraction as F
from math import prod

import numpy as np
import pytest

from oracles import (
    GaussianModel,
    brute_force_diagrams,
    clusters_linked,
    connected_integrand,
    connected_pair_correlator,
    counts_of,
    enumerate_pairings,
    has_vacuum_component,
    moment,
    named,
    qgt_component,
    time_names,
    wedge_integral,
)
from oscqgt.integrator import DivergentIntegral
from oscqgt.linear_exact import exact_linear_qgt
from oscqgt.perturbation import PolynomialPotential
from oscqgt.qgt import (
    ParameterSpace,
    assemble,
    determinant_and_critical,
)
from oscqgt.scalar_algebra import ScalarSeries
from oscqgt.spectral_oracle import OracleConfig, numeric_qim

V4 = PolynomialPotential.monomial(4)


def _report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def series(num, den=1, a=0, l=0, j=0):
    return ScalarSeries.term(F(num, den), alpha_half_pow=a, lambda_pow=l, j_pow=j)


def test_criterion_1_exact_linear_reproduction():
    start = time.perf_counter()
    space = ParameterSpace.parse("linear")
    got = {
        ("j", "j"): qgt_component(space, "j", "j"),
        ("alpha", "j"): qgt_component(space, "alpha", "j"),
        ("alpha", "alpha"): qgt_component(space, "alpha", "alpha"),
    }
    elapsed = time.perf_counter() - start
    expected = {
        ("j", "j"): series(1, 2, a=-3),
        ("alpha", "j"): series(-1, 2, a=-5, j=1),
        ("alpha", "alpha"): series(1, 32, a=-4) + series(1, 2, a=-7, j=2),
    }
    ok = got == expected and elapsed < 1.0
    _report(1, "exact linear-source components, structural equality", ok,
            f"runtime {elapsed:.3f}s")


def test_criterion_2_exact_quartic_first_order():
    start = time.perf_counter()
    space = ParameterSpace.quartic()
    result = assemble(space, 1)
    det, critical = determinant_and_critical(result, space.labels, 1)
    elapsed = time.perf_counter() - start
    checks = [
        result[("alpha", "alpha")]
        == series(1, 32, a=-4) + series(-11, 512, a=-7, l=1),
        result[("lambda", "lambda")]
        == series(13, 6144, a=-6) + series(-31, 12288, a=-9, l=1),
        result[("alpha", "lambda")]
        == series(1, 128, a=-5) + series(-89, 12288, a=-8, l=1),
        det == series(1, 196608, a=-10) + series(-35, 3145728, a=-13, l=1),
        critical == series(16, 35, a=3),
        elapsed < 10.0,
    ]
    _report(2, "exact quartic first-order components, det and critical coupling",
            all(checks), f"runtime {elapsed:.3f}s")


def test_criterion_3_integrand_fidelity():
    degrees = {"alpha": 2, "lambda": 4}  # q^2/2 and q^4/4!
    patterns = {
        ("alpha", "alpha"): (24, [2, 1]),
        ("lambda", "lambda"): (288, [4, 3, 6, 4, 4, 3, 3, 6]),
        ("alpha", "lambda"): (48, [6, 3, 3, 4]),
    }
    ok = True
    details = []
    for (la, lb), (overall, coeffs) in patterns.items():
        graded = named(connected_integrand(degrees[la], degrees[lb], 1, V4))
        raw = {edges: c * (-24) for edges, c in graded[1].items()}
        ok &= sorted(raw.values()) == sorted(F(overall * c) for c in coeffs)
        spec = {"tau1": degrees[la], "tau2": degrees[lb], "s1": 4}
        brute = {
            edges: F(mult)
            for (edges, _m), mult in brute_force_diagrams(spec).items()
            if clusters_linked(edges) and not has_vacuum_component(edges)
        }
        ok &= raw == brute
        details.append(f"{la},{lb}: {len(raw)} terms")
    _report(3, "integrand coefficient patterns match and equal the brute-force "
               "connectivity-filtered enumeration", ok, "; ".join(details))


def test_criterion_4_combinatorial_properties():
    ok = True
    # pairing counts
    for n in range(1, 7):
        total = sum(
            d.multiplicity for d in enumerate_pairings({"t": 2 * n})
        )
        ok &= total == prod(range(2 * n - 1, 0, -2))
    # odd free moments vanish
    free = GaussianModel()
    for power in (1, 3, 5, 7):
        ok &= moment(free, {"t": power}) == {}
    # subtraction equals the connectivity restriction for every operator pair
    # in scope (q, q^2, q^3, q^4 clusters)
    def components_of(edges):
        comps = []
        for a, b in edges:
            hit = [c for c in comps if a in c or b in c]
            merged = {a, b}.union(*hit) if hit else {a, b}
            comps = [c for c in comps if c not in hit] + [merged]
        return comps

    for na, nb in itertools.combinations_with_replacement((1, 2, 3, 4), 2):
        connected = connected_pair_correlator(
            free, {"tau1": na}, {"tau2": nb}
        )
        joint = moment(free, {"tau1": na, "tau2": nb})
        filtered = {
            edges: coeff
            for edges, coeff in joint.items()
            if any("tau1" in c and "tau2" in c for c in components_of(edges))
        }
        ok &= connected == filtered
    _report(4, "pairing counts, vanishing odd moments, subtraction equals "
               "connectivity filter", ok)


def test_criterion_5_oracle_agreement_free_theory():
    config = OracleConfig(basis_size=128)
    ok = True
    worst = 0.0
    spaces = [
        (ParameterSpace.quartic(), ("alpha", "lambda"), 0.0, 0.0),
        (ParameterSpace.parse("linear"), ("alpha", "j"), 0.0, 0.0),
    ]
    for space, labels, lam, j in spaces:
        symbolic = {
            (a, b): qgt_component(space, a, b, 1) for a in labels for b in labels
        }
        for alpha in (0.5, 1.0, 2.0):
            oracle = numeric_qim(alpha, lam, j, space.potential, config, labels=labels)
            for (a, b), s in symbolic.items():
                want = s.evaluate(alpha, lam, j)
                got = oracle.entry(a, b)
                dev = abs(want - got) / max(1.0, abs(want))
                worst = max(worst, dev)
                ok &= dev <= 1e-6
    _report(5, "free-theory oracle agreement within 1e-6 relative at N=128",
            ok, f"worst deviation {worst:.2e}")


def test_criterion_6_oracle_agreement_interacting():
    config = OracleConfig(basis_size=128)
    space = ParameterSpace.quartic()
    symbolic = {
        (a, b): qgt_component(space, a, b, 1)
        for a in space.labels
        for b in space.labels
    }
    lams = (0.02, 0.04, 0.08)
    devs = {key: [] for key in symbolic}
    for lam in lams:
        oracle = numeric_qim(1.0, lam, 0.0, V4, config)
        for key, s in symbolic.items():
            devs[key].append(abs(oracle.entry(*key) - s.evaluate(1.0, lam)))
    ok = True
    slopes = []
    for key, values in devs.items():
        slope = float(np.polyfit(np.log(lams), np.log(values), 1)[0])
        slopes.append(f"g{key}: {slope:.2f}")
        ok &= 1.7 <= slope <= 2.3
    oracle = numeric_qim(1.0, 0.05, 0.0, V4, config)
    dev_ll = abs(
        oracle.entry("lambda", "lambda")
        - symbolic[("lambda", "lambda")].evaluate(1.0, 0.05)
    )
    ok &= dev_ll <= 5e-5
    _report(6, "interacting remainder scales as lambda^2 and stays within the "
               "absolute bound", ok,
            f"slopes {'; '.join(slopes)}; g(l,l) dev at 0.05 = {dev_ll:.2e}")


def test_criterion_7_linear_cross_validation_triangle():
    config = OracleConfig(basis_size=128)
    space = ParameterSpace.parse("linear")
    symbolic = {
        (a, b): qgt_component(space, a, b)
        for a in space.labels
        for b in space.labels
    }
    ok = True
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for j in (0.0, 0.5):
            closed = exact_linear_qgt(alpha, j)
            oracle = numeric_qim(alpha, 0.0, j, space.potential, config, labels=("alpha", "j"))
            for (a, b), target in closed.items():
                values = {
                    "series": symbolic[(a, b)].evaluate(alpha, 0.0, j),
                    "closed": target,
                    "oracle": oracle.entry(a, b),
                }
                for x, y in itertools.combinations(values.values(), 2):
                    dev = abs(x - y) / max(1.0, abs(x), abs(y))
                    worst = max(worst, dev)
                    ok &= dev <= 1e-6
    _report(7, "wavefunction oracle, spectral oracle and pipeline agree "
               "pairwise within 1e-6", ok, f"worst deviation {worst:.2e}")


def test_criterion_8_structural_properties():
    ok = True
    details = []
    # exact symmetry and zero curvature across the in-scope models: every
    # assembled entry against G_ba computed on its own
    for space, order in [
        (ParameterSpace.parse("linear"), 1),
        (ParameterSpace.quartic(), 1),
        (ParameterSpace.quartic(), 2),
        (ParameterSpace.parse("monomial:3"), 1),
    ]:
        for (a, b), s in assemble(space, order).items():
            ok &= (s - qgt_component(space, b, a, order)).is_zero
    details.append("symmetry+curvature ok")
    # divergence below alpha = 0
    g = qgt_component(ParameterSpace.quartic(), "alpha", "alpha", 1)
    for bad in (0.0, -1.0):
        try:
            g.evaluate(bad)
            ok = False
        except DivergentIntegral:
            pass
    details.append("divergence raised")
    # Fubini: s1 and s2 are both integrated over the whole axis, so swapping
    # their names (their order of integration) keeps every two-vertex value
    graded = named(connected_integrand(4, 4, 2, V4))
    swapped_names = ["s2", "s1", "tau1", "tau2"]
    moved = 0
    for edges, coeff in graded[2].items():
        counts, swapped = counts_of(edges, time_names(2)), counts_of(edges, swapped_names)
        moved += swapped != counts
        value = wedge_integral({counts: coeff}, n_vertices=2)
        ok &= wedge_integral({swapped: coeff}, n_vertices=2) == value
    ok &= moved > 0
    details.append(f"Fubini ok ({moved} graphs moved by the swap)")
    _report(8, "metric symmetric, curvature zero, divergence detection, "
               "Fubini independence", ok, "; ".join(details))
