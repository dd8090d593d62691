"""Closed-form reference for the linearly-sourced oscillator.

The ground state of H = p^2/2 + alpha q^2/2 + J q is a shifted Gaussian,

    Psi(q) = (sqrt(alpha)/pi)^(1/4) * exp(-(sqrt(alpha)/2) (q + J/alpha)^2).

Its Berry connections <d_a Psi | Psi> vanish for both parameters, so every
metric component is a plain overlap of parameter derivatives, with an exact
closed form.  `CLOSED_FORM` holds those forms as exact series, written here
once and deliberately independent of the correlator pipeline.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar_algebra import ScalarSeries

__all__ = ["CLOSED_FORM", "exact_linear_qgt"]

_G_ALPHA_J = ScalarSeries.term(Fraction(-1, 2), alpha_half_pow=-5, j_pow=1)

CLOSED_FORM: dict[tuple[str, str], ScalarSeries] = {
    ("alpha", "alpha"): ScalarSeries.term(Fraction(1, 32), alpha_half_pow=-4)
    + ScalarSeries.term(Fraction(1, 2), alpha_half_pow=-7, j_pow=2),
    ("alpha", "j"): _G_ALPHA_J,
    ("j", "alpha"): _G_ALPHA_J,
    ("j", "j"): ScalarSeries.term(Fraction(1, 2), alpha_half_pow=-3),
}


def exact_linear_qgt(alpha: float, j: float) -> dict[tuple[str, str], float]:
    """`CLOSED_FORM` evaluated at (alpha, J); raises NonPositiveAlpha for alpha <= 0."""
    return {key: series.evaluate(alpha, 0.0, j) for key, series in CLOSED_FORM.items()}
