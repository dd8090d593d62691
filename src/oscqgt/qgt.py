"""Assembly of the quantum geometric tensor from connected wedge integrals.

A component G_ab is the double integral over tau1 <= 0 <= tau2 of the
connected correlator of dH/da = c_a q**k_a and dH/db = c_b q**k_b, times
c_a * c_b, expanded in the coupling.  The source J of the linear model is
the coupling of V = q, whose series ends at a finite order.
Every deformation here is real, so G_ab = G_ba: the tensor is its own metric
and the Berry curvature vanishes.  For the two-parameter models the truncated
metric determinant yields the coupling at which the metric degenerates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from .integrator import wedge_integral
from .perturbation import GradedSum, PolynomialPotential, connected_grades, hamiltonian_derivative
from .scalar_algebra import Frozen, ScalarSeries

__all__ = ["ParameterSpace", "CONVENTION", "integrands", "qgt_component", "assemble", "determinant_and_critical"]

# The fidelity expansion kept here is F = 1 - (1/2) G_ab dl^a dl^b + ...;
# the 1/2 is NOT absorbed into the tensor.  Recorded in all structured output.
CONVENTION = {
    "fidelity_expansion": "F = 1 - (1/2) * G_ab * dl^a dl^b + O(dl^3)",
    "half_absorbed_into_tensor": False,
}

LINEAR = "linear"
QUARTIC = "quartic"
MONOMIAL = "monomial"


class ParameterSpace(Frozen):
    """Model family and its ordered parameter labels.

    linear   : H = p^2/2 + alpha q^2/2 + J q      labels (alpha, j)
    quartic  : H = p^2/2 + alpha q^2/2 + l q^4/4! labels (alpha, lambda)
    monomial : H = p^2/2 + alpha q^2/2 + l q^k/k! labels (alpha, lambda)
    """

    __slots__ = ("kind", "k")

    def __init__(self, kind: str, k: int = 4):
        if kind not in (LINEAR, QUARTIC, MONOMIAL):
            raise ValueError(f"unknown model kind {kind!r}")
        if kind == QUARTIC:
            k = 4
        if kind == LINEAR:
            k = 1
        object.__setattr__(self, "kind", kind)  # the class refuses assignment
        object.__setattr__(self, "k", k)

    @classmethod
    def parse(cls, token: str) -> "ParameterSpace":
        """The model a token names: linear | quartic | monomial:k with k >= 1."""
        if token in (LINEAR, QUARTIC):
            return cls(token)
        kind, colon, degree = token.partition(":")
        if kind != MONOMIAL or not colon:
            raise ValueError(f"unknown model {token!r} (expected linear|quartic|monomial:k)")
        if not degree.isdecimal() or int(degree) < 1:
            raise ValueError(f"the monomial degree must be an integer >= 1, not {degree!r}")
        return cls(MONOMIAL, int(degree))

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
    def coupling(self) -> ScalarSeries:
        """The coupling of the potential as a series: J for the linear model, else lambda."""
        if self.kind == LINEAR:
            return ScalarSeries.term(1, j_pow=1)
        return ScalarSeries.term(1, lambda_pow=1)

    @property
    def potential(self) -> PolynomialPotential:
        return PolynomialPotential.monomial(self.k)

    def derivative(self, label: str) -> tuple[int, Fraction]:
        """dH/d(label) = c q**k as (k, c)."""
        if label not in self.labels:
            raise ValueError(f"label {label!r} is not a parameter of the {self.kind} model")
        [pair] = hamiltonian_derivative(label, self.potential)
        return pair


def integrands(
    space: ParameterSpace, order: int = 1, pairs: Sequence[tuple[str, str]] | None = None
) -> dict[tuple[str, str], GradedSum]:
    """The connected integrand of G_ab for each pair (a, b), by default every
    unordered pair: {edge counts: coefficient} per vertex count m, up to the
    coupling truncation `order`, each grade built for all pairs at once.  The
    linear model is summed exactly: a J vertex (degree 1) is a leaf on an
    external leg and tau1, tau2 share an edge, so every order above
    k_a + k_b - 2 is empty.  The coupling power m and the coefficients of
    dH/da and dH/db are not included."""
    pairs = pairs or list(itertools.combinations_with_replacement(space.labels, 2))
    degrees = {(a, b): (space.derivative(a)[0], space.derivative(b)[0]) for a, b in pairs}
    top = {ks: sum(ks) - 2 if space.kind == LINEAR else order for ks in degrees.values()}
    orders = range(max(top.values()) + 1)
    grades = [connected_grades([ks for ks in top if top[ks] >= m], m, space.potential) for m in orders]
    return {pair: {m: grade[ks] for m, grade in enumerate(grades) if ks in grade} for pair, ks in degrees.items()}


def qgt_component(
    space: ParameterSpace, a: str, b: str, order: int = 1,
    sums: dict | None = None, graded: GradedSum | None = None,
) -> ScalarSeries:
    """One tensor component as an exact series in (alpha, coupling).

    The linear-source model is summed exactly (the expansion in J terminates);
    `order` is the coupling truncation for the polynomial models.  `sums` is
    `wedge_integral`'s memo of ordered sums, and `graded` the component's
    integrand (`integrands`) when already built.
    """
    if graded is None:
        graded = integrands(space, order, [(a, b)])[(a, b)]
    terms = (wedge_integral(grade, m, sums) * space.coupling**m for m, grade in graded.items())
    return sum(terms, ScalarSeries.zero()) * (space.derivative(a)[1] * space.derivative(b)[1])


def assemble(
    space: ParameterSpace, order: int = 1, built: Mapping | None = None, sums: dict | None = None
) -> dict[tuple[str, str], ScalarSeries]:
    """Every component G_ab of the tensor, keyed (a, b).

    Each unordered pair is computed once and stored under both orders: the
    real correlators in scope are symmetric in the two operators.  The pairs
    share one walk per grade and their ordered sums (their graphs differ
    mostly in self-loops); a caller passes in `integrands` or sums it built.
    """
    components, sums = {}, {} if sums is None else sums
    built = built or integrands(space, order)
    for a, b in itertools.combinations_with_replacement(space.labels, 2):
        components[(a, b)] = components[(b, a)] = qgt_component(space, a, b, order, sums, built[(a, b)])
    return components


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
