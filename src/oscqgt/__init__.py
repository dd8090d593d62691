"""Ground-state quantum geometric tensor of a perturbed harmonic oscillator.

Exact symbolic series for the metric components of a harmonic oscillator with
a linear source or a polynomial (e.g. quartic) perturbation, computed from
Euclidean wedge integrals of connected correlators, plus an independent
spectral oracle built on a truncated oscillator basis.
"""

from .scalar_algebra import NonPositiveAlpha, ScalarSeries, ScalarTerm

__all__ = ["ScalarSeries", "ScalarTerm", "NonPositiveAlpha"]

__version__ = "0.1.0"
