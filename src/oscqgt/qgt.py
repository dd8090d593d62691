"""Assembly of the quantum geometric tensor from connected wedge integrals.

A component G_ab is the double integral over tau1 <= 0 <= tau2 of the
connected correlator of the two deformation operators, times their scalar
prefactors.  The linearly-sourced model is evaluated exactly through the
constant-mean Gaussian; polynomial models go through the coupling expansion.
The metric is the symmetric part, the curvature the antisymmetric part
(identically zero for these real deformation families), and for the
two-parameter models the truncated metric determinant yields the coupling
at which the metric degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import wick
from .integrator import PropagatorProduct, wedge_integral
from .perturbation import (
    DEFAULT_MAX_ORDER,
    DeformationOperator,
    PolynomialPotential,
    connected_integrand,
    integrand_products,
)
from .scalar_algebra import ScalarSeries
from .wick import GaussianModel, InsertionPoint

__all__ = [
    "ParameterSpace",
    "QGTResult",
    "CONVENTION",
    "component_integrand",
    "qgt_component",
    "metric_and_curvature",
    "assemble",
    "determinant_and_critical",
]

# The fidelity expansion kept here is F = 1 - (1/2) G_ab dl^a dl^b + ...;
# the 1/2 is NOT absorbed into the tensor.  Recorded in all structured output.
CONVENTION = {
    "fidelity_expansion": "F = 1 - (1/2) * G_ab * dl^a dl^b + O(dl^3)",
    "half_absorbed_into_tensor": False,
}

LINEAR = "linear"
QUARTIC = "quartic"
MONOMIAL = "monomial"


@dataclass(frozen=True)
class ParameterSpace:
    """Model family and its ordered parameter labels.

    linear   : H = p^2/2 + alpha q^2/2 + J q      labels (alpha, j)
    quartic  : H = p^2/2 + alpha q^2/2 + l q^4/4! labels (alpha, lambda)
    monomial : H = p^2/2 + alpha q^2/2 + l q^k/k! labels (alpha, lambda)
    """

    kind: str
    k: int = 4

    def __post_init__(self):
        if self.kind not in (LINEAR, QUARTIC, MONOMIAL):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == QUARTIC:
            object.__setattr__(self, "k", 4)
        if self.kind == LINEAR:
            object.__setattr__(self, "k", 1)

    @classmethod
    def linear_source(cls) -> "ParameterSpace":
        return cls(LINEAR)

    @classmethod
    def quartic(cls) -> "ParameterSpace":
        return cls(QUARTIC)

    @classmethod
    def monomial(cls, k: int) -> "ParameterSpace":
        return cls(MONOMIAL, k)

    @property
    def labels(self) -> tuple[str, str]:
        return ("alpha", "j") if self.kind == LINEAR else ("alpha", "lambda")

    @property
    def potential(self) -> PolynomialPotential:
        return PolynomialPotential.monomial(self.k)

    def operator(self, label: str) -> DeformationOperator:
        if label == "alpha":
            return DeformationOperator.stiffness()
        if label == "lambda" and self.kind != LINEAR:
            return DeformationOperator.coupling(self.potential)
        if label == "j" and self.kind == LINEAR:
            return DeformationOperator.source()
        raise ValueError(f"label {label!r} is not a parameter of the {self.kind} model")


@dataclass(frozen=True)
class QGTResult:
    """Full tensor plus its symmetric/antisymmetric split at one truncation order."""

    labels: tuple[str, str]
    components: Mapping[tuple[str, str], ScalarSeries]
    metric: Mapping[tuple[str, str], ScalarSeries]
    curvature: Mapping[tuple[str, str], ScalarSeries]
    order: int


def component_integrand(
    space: ParameterSpace,
    a: str,
    b: str,
    order: int = 1,
    max_order: int = DEFAULT_MAX_ORDER,
) -> dict[int, list[PropagatorProduct]]:
    """The connected integrand of G_ab as propagator products keyed by vertex count.

    The linear-source model is summed exactly (the expansion in J terminates)
    and has no internal vertices; `order` is the coupling truncation for the
    polynomial models.  Operator prefactors are not included.
    """
    op_a = space.operator(a)
    op_b = space.operator(b)
    if space.kind == LINEAR:
        model = GaussianModel(source_j=True)
        return {
            0: wick.connected_pair_correlator(
                model,
                [InsertionPoint("tau1", op_a.q_power)],
                [InsertionPoint("tau2", op_b.q_power)],
            )
        }
    graded = connected_integrand(op_a, op_b, order, space.potential, max_order)
    return integrand_products(graded)


def qgt_component(
    space: ParameterSpace,
    a: str,
    b: str,
    order: int = 1,
    max_order: int = DEFAULT_MAX_ORDER,
) -> ScalarSeries:
    """One tensor component as an exact series in (alpha, coupling).

    The linear-source model is summed exactly (the expansion in J terminates);
    `order` is the coupling truncation for the polynomial models.
    """
    series = ScalarSeries.zero()
    for m, products in component_integrand(space, a, b, order, max_order).items():
        series = series + wedge_integral(products, n_vertices=m)
    return series * (space.operator(a).prefactor * space.operator(b).prefactor)


def metric_and_curvature(
    components: Mapping[tuple[str, str], ScalarSeries],
) -> tuple[dict[tuple[str, str], ScalarSeries], dict[tuple[str, str], ScalarSeries]]:
    """Split the component map into symmetric (metric) and antisymmetric parts.

    The curvature entry for (a, b) is G_ab - G_ba; for the real correlators in
    scope it vanishes identically.
    """
    metric: dict[tuple[str, str], ScalarSeries] = {}
    curvature: dict[tuple[str, str], ScalarSeries] = {}
    for (a, b), series in components.items():
        rev = components.get((b, a), series)
        half = Fraction(1, 2)
        metric[(a, b)] = (series + rev) * half
        curvature[(a, b)] = series - rev
    return metric, curvature


def assemble(space: ParameterSpace, order: int = 1, max_order: int = DEFAULT_MAX_ORDER) -> QGTResult:
    """Compute every ordered component of the tensor and split it."""
    components = {
        (a, b): qgt_component(space, a, b, order, max_order)
        for a in space.labels
        for b in space.labels
    }
    metric, curvature = metric_and_curvature(components)
    return QGTResult(space.labels, components, metric, curvature, order)


def determinant_and_critical(
    metric: Mapping[tuple[str, str], ScalarSeries],
    labels: Sequence[str],
    order: int,
) -> tuple[ScalarSeries, ScalarSeries | None]:
    """Determinant of the 2x2 metric truncated at the coupling order, and the
    coupling where it vanishes.

    The root is solved exactly only at truncation order 1, where the
    determinant is linear in the coupling; it carries no meaning beyond that
    order and None is returned otherwise or when no positive root exists.
    """
    a, b = labels
    det = (
        metric[(a, a)] * metric[(b, b)] - metric[(a, b)] * metric[(b, a)]
    ).truncate_lambda(order)
    critical = None
    if "lambda" in labels and order == 1:
        d0 = [t for t in det.terms if t.lambda_pow == 0]
        d1 = [t for t in det.terms if t.lambda_pow == 1]
        if len(d0) == 1 and len(d1) == 1 and d0[0].j_pow == d1[0].j_pow == 0:
            coeff = -d0[0].coeff / d1[0].coeff
            if coeff > 0:
                critical = ScalarSeries.term(
                    coeff, d0[0].alpha_half_pow - d1[0].alpha_half_pow
                )
    return det, critical
