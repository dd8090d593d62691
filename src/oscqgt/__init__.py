"""Ground-state quantum geometric tensor of a perturbed harmonic oscillator.

Exact symbolic series for the metric components of a harmonic oscillator with
a linear source or a polynomial (e.g. quartic) perturbation, computed from
Euclidean wedge integrals of connected correlators, plus an independent
spectral oracle built on a truncated oscillator basis.

Submodules load on first attribute access (`oscqgt.spectral_oracle`), so the
symbolic route never pays for the numpy that only the oracles import.
"""

import importlib

from .scalar_algebra import NonPositiveAlpha, ScalarSeries, ScalarTerm

__all__ = ["ScalarSeries", "ScalarTerm", "NonPositiveAlpha"]

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    {"cli", "crosscheck", "integrator", "linear_exact", "perturbation", "qgt",
     "scalar_algebra", "spectral_oracle", "wick"}
)


def __getattr__(name: str):
    # PEP 562: called only for names not yet bound; importing a submodule binds it
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
