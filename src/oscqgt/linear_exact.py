"""Closed-form reference for the linearly-sourced oscillator.

The ground state of H = p^2/2 + alpha q^2/2 + J q is a shifted Gaussian,

    Psi(q) = (sqrt(alpha)/pi)^(1/4) * exp(-(sqrt(alpha)/2) (q + J/alpha)^2),

so every metric component has a closed form.  This module hard-codes those
forms and checks them against a finite-difference evaluation of the overlap
integrals, each by a trapezoid rule on a fixed grid over the Gaussian's
support (exponentially accurate for such an integrand, and numpy only); it
is a test oracle, deliberately independent of the correlator pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalar_algebra import NonPositiveAlpha, OracleFailure

__all__ = [
    "ShiftedGaussianState",
    "QuadratureFailure",
    "exact_linear_qgt",
    "overlap_derivative_checks",
]


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


def exact_linear_qgt(alpha: float, j: float) -> dict[tuple[str, str], float]:
    """Closed-form tensor components of the sourced oscillator ground state.

    The Berry connections <d_a Psi | Psi> vanish for both parameters, so the
    components are plain overlaps of the parameter derivatives.
    """
    if alpha <= 0:
        raise NonPositiveAlpha(f"alpha must be > 0, got {alpha}")
    g_aa = 1.0 / (32.0 * alpha**2) + j**2 / (2.0 * alpha**3.5)
    g_aj = -j / (2.0 * alpha**2.5)
    g_jj = 1.0 / (2.0 * alpha**1.5)
    return {
        ("alpha", "alpha"): g_aa,
        ("alpha", "j"): g_aj,
        ("j", "alpha"): g_aj,
        ("j", "j"): g_jj,
    }


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
