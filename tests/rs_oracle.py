"""Exact Rayleigh-Schrodinger reference for the metric series.

The ground state of H = p^2/2 + q^2/2 + lambda q^k/k! is expanded in the
coupling with plain Fractions, in the unnormalised number basis
e_n = (a^dagger)^n |0>: there <e_m|e_n> = n! delta_mn, x = a + a^dagger =
sqrt(2) q sends e_n to e_(n+1) + n e_(n-1), and H0 - 1/2 sends e_n to n e_n.
The state keeps intermediate normalisation (its e_0 coefficient is 1), and
its first-order response to H -> H + beta dH/da gives d_a psi.  The metric is
the Fubini-Study form of the unnormalised state,

    G_ab = <d_a psi|d_b psi> / <psi|psi> - <d_a psi|psi> <psi|d_b psi> / <psi|psi>^2,

which does not depend on that normalisation.  Everything is computed at
alpha = 1; q -> alpha^(-1/4) q maps H to sqrt(alpha) times the alpha = 1
Hamiltonian at coupling lambda alpha^(-(k+2)/4) and dH/da = c_a q^k_a to
alpha^(-k_a/4) times its alpha = 1 form, so

    G_ab(alpha, lambda) = alpha^(-(k_a + k_b)/4 - 1) G_ab(1, lambda alpha^(-(k+2)/4)).

Nothing here shares code with the diagram route: no Wick pairing, no wedge
integral, and dH/da is written out below.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from oscqgt.scalar_algebra import ScalarSeries

Vector = dict[int, Fraction]  # {n: coefficient of e_n}


def _times_x(vec: Vector) -> Vector:
    out: Vector = {}
    for n, c in vec.items():
        out[n + 1] = out.get(n + 1, 0) + c
        if n:
            out[n - 1] = out.get(n - 1, 0) + n * c
    return out


def _apply(power: int, coeff: Fraction, vec: Vector) -> Vector:
    """coeff * x^power vec"""
    for _ in range(power):
        vec = _times_x(vec)
    return {n: coeff * c for n, c in vec.items()}


def _add(acc: Vector, scale: Fraction, vec: Vector) -> None:
    for n, c in vec.items():
        acc[n] = acc.get(n, 0) + scale * c


def _inner(u: Vector, v: Vector) -> Fraction:
    return sum((factorial(n) * c * v[n] for n, c in u.items() if n in v), Fraction(0))


def _solve(rhs: Vector) -> Vector:
    """(H0 - 1/2)^-1 on a vector with no e_0 component."""
    return {n: c / n for n, c in rhs.items() if c}


def _ground_series(k: int, order: int) -> tuple[list[Vector], list[Fraction]]:
    """psi_m and E_m, m = 0..order, of the ground state of H0 + g x^k/k!."""
    vertex = Fraction(1, factorial(k))
    psi, energy = [{0: Fraction(1)}], [Fraction(1, 2)]
    for m in range(1, order + 1):
        rhs = _apply(k, -vertex, psi[m - 1])
        energy.append(-rhs.pop(0, 0))
        for j in range(1, m):
            _add(rhs, energy[j], psi[m - j])
        psi.append(_solve(rhs))
    return psi, energy


def _response_series(
    k: int, op: tuple[int, Fraction], psi: list[Vector], energy: list[Fraction]
) -> list[Vector]:
    """chi_m, the beta^1 g^m part of the ground state of H0 + g x^k/k! + beta op."""
    vertex = Fraction(1, factorial(k))
    power, coeff = op
    chi: list[Vector] = []
    shift: list[Fraction] = []  # the beta^1 g^m part of the energy
    for m in range(len(psi)):
        rhs = _apply(power, -coeff, psi[m])
        if m:
            _add(rhs, Fraction(1), _apply(k, -vertex, chi[m - 1]))
        shift.append(-rhs.pop(0, 0))
        for j in range(1, m + 1):
            _add(rhs, energy[j], chi[m - j])
        for j in range(m):
            _add(rhs, shift[j], psi[m - j])
        chi.append(_solve(rhs))
    return chi


def _product(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    return [sum((f[i] * g[m - i] for i in range(m + 1)), Fraction(0)) for m in range(len(f))]


def _overlap(us: list[Vector], vs: list[Vector]) -> list[Fraction]:
    return [sum((_inner(us[i], vs[m - i]) for i in range(m + 1)), Fraction(0)) for m in range(len(us))]


def _inverse(f: list[Fraction]) -> list[Fraction]:
    inv = [1 / f[0]]
    for m in range(1, len(f)):
        inv.append(-sum((f[i] * inv[m - i] for i in range(1, m + 1)), Fraction(0)) / f[0])
    return inv


def _half_power_of_two(exponent: int) -> Fraction:
    """2^(-exponent/2) for an even exponent."""
    assert exponent % 2 == 0, exponent
    return Fraction(1, 2 ** (exponent // 2))


def rs_energies(k: int, order: int) -> list[Fraction]:
    """E_m, the lambda^m coefficients of the ground energy at alpha = 1."""
    _, energy = _ground_series(k, order)
    return [e * _half_power_of_two(m * k) if e else e for m, e in enumerate(energy)]


def rs_metric(k: int, labels: tuple[str, str], order: int) -> dict[tuple[str, str], ScalarSeries]:
    """Every G_ab of the model with potential q^k/k!, through coupling order
    `order`, keyed (a, b).  labels[1] names the coupling: lambda, or j for
    the linear model (k = 1)."""
    coupling = labels[1]
    # dH/da = c q^k_a as (k_a, c); in x = sqrt(2) q it is c 2^(-k_a/2) x^k_a
    derivative = {"alpha": (2, Fraction(1, 2)), coupling: (k, Fraction(1, factorial(k)))}
    psi, energy = _ground_series(k, order)
    chi = {a: _response_series(k, derivative[a], psi, energy) for a in labels}
    inv = _inverse(_overlap(psi, psi))
    metric = {}
    for a in labels:
        for b in labels:
            k_a, k_b = derivative[a][0], derivative[b][0]
            # G_ab in powers of g = lambda 2^(-k/2), in units of 2^(-(k_a + k_b)/2)
            scaled = [
                x - y
                for x, y in zip(
                    _product(_overlap(chi[a], chi[b]), inv),
                    _product(_product(_overlap(chi[a], psi), _overlap(chi[b], psi)), _product(inv, inv)),
                )
            ]
            series = ScalarSeries.zero()
            for m, c in enumerate(scaled):
                if c:
                    coeff = c * _half_power_of_two(k_a + k_b + m * k)
                    half_pow = -(k_a + k_b) / 2 - 2 - m * (k + 2) / 2
                    assert half_pow == int(half_pow), (a, b, m)
                    series = series + ScalarSeries.term(coeff, int(half_pow), **{f"{coupling}_pow": m})
            metric[(a, b)] = series
    return metric
