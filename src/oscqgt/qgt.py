"""Assembly of the quantum geometric tensor from connected wedge integrals.

A component G_ab is the double integral over tau1 <= 0 <= tau2 of the
connected correlator of dH/da = c_a q**k_a and dH/db = c_b q**k_b, times
c_a * c_b, expanded in the coupling.  A model is data: a potential V and
the coupling, lambda or the source J of V = q, whose series ends at a finite
order and is summed exactly.
Every deformation here is real, so G_ab = G_ba: the tensor is its own metric
and the Berry curvature vanishes.  `assemble` integrates each grade of every
component as soon as it is walked.  For the two-parameter models the
truncated metric determinant yields the coupling at which it degenerates.
`evaluate` gives an entry's float at a point, or rejects the point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence

from .integrator import wedge_integrals
from .perturbation import PolynomialPotential, connected_grades, hamiltonian_derivative
from .scalar_algebra import Frozen, ScalarSeries

__all__ = ["ParameterSpace", "CONVENTION", "assemble", "determinant_and_critical", "evaluate"]

# The fidelity expansion kept here is F = 1 - (1/2) G_ab dl^a dl^b + ...;
# the 1/2 is NOT absorbed into the tensor.  Recorded in all structured output.
CONVENTION = {
    "fidelity_expansion": "F = 1 - (1/2) * G_ab * dl^a dl^b + O(dl^3)",
    "half_absorbed_into_tensor": False,
}

SOURCE = PolynomialPotential.monomial(1)  # V = q, the potential of the source J


class ParameterSpace(Frozen):
    """A model: its name as `--model` spells it, its potential V and the
    coupling that multiplies V; the labels are (alpha, coupling).

    linear     : H = p^2/2 + alpha q^2/2 + J q        V = q,      coupling j
    quartic    : H = p^2/2 + alpha q^2/2 + l q^4/4!   V = q^4/4!, coupling lambda
    monomial:k : H = p^2/2 + alpha q^2/2 + l q^k/k!   V = q^k/k!, coupling lambda
    """

    __slots__ = ("name", "potential", "coupling")

    def __init__(self, name: str, potential: PolynomialPotential, coupling: str = "lambda"):
        # `derivative` serves one (k, c) pair per label: J couples to V = q, lambda to one monomial
        if not {"lambda": len(potential.coefficients) == 1, "j": potential == SOURCE}.get(coupling):
            raise ValueError(f"no model couples {coupling!r} to {potential!r} (lambda to one monomial, j to q)")
        object.__setattr__(self, "name", name)  # the class refuses assignment
        object.__setattr__(self, "potential", potential)
        object.__setattr__(self, "coupling", coupling)

    @classmethod
    def parse(cls, token: str) -> "ParameterSpace":
        """The model a token names: linear | quartic | monomial:k with k >= 1,
        named canonically (monomial:06 is monomial:6)."""
        if token == "linear":
            return cls(token, SOURCE, "j")
        if token == "quartic":
            return cls(token, PolynomialPotential.monomial(4))
        family, colon, degree = token.partition(":")
        if family != "monomial" or not colon:
            raise ValueError(f"unknown model {token!r} (expected linear|quartic|monomial:k)")
        if not degree.isdecimal() or int(degree) < 1:
            raise ValueError(f"the monomial degree must be an integer >= 1, not {degree!r}")
        return cls(f"monomial:{int(degree)}", PolynomialPotential.monomial(int(degree)))

    @classmethod
    def quartic(cls) -> "ParameterSpace":
        return cls.parse("quartic")

    @property
    def labels(self) -> tuple[str, str]:
        return ("alpha", self.coupling)

    @property
    def exact(self) -> bool:
        """Whether the coupling series is summed exactly instead of truncated
        at the requested order.  J is: a J vertex (V = q) is a leaf on an
        external leg and tau1, tau2 share an edge, so every grade of G_ab past
        k_a + k_b - 2 is empty.  Grades before it can be empty too (grade 1
        of G_alpha,alpha, by parity), so no series stops at an empty grade."""
        return self.coupling == "j"

    def power(self, m: int) -> ScalarSeries:
        """The coupling to the power m, as a series."""
        return ScalarSeries.term(1, **{f"{self.coupling}_pow": m})

    def derivative(self, label: str) -> tuple[int, Fraction]:
        """dH/d(label) = c q**k as (k, c)."""
        if label not in self.labels:
            family = self.name.partition(":")[0]
            raise ValueError(f"label {label!r} is not a parameter of the {family} model")
        [pair] = hamiltonian_derivative(label, self.potential)
        return pair


def assemble(space: ParameterSpace, order: int = 1, show=None) -> dict[tuple[str, str], ScalarSeries]:
    """Every component G_ab of the tensor as an exact series in (alpha,
    coupling), keyed (a, b), with the coupling truncated at `order` unless it
    is summed exactly (`ParameterSpace.exact`).

    Each unordered pair is computed once and stored under both orders: the
    real correlators in scope are symmetric.  Grade by grade, the pairs share
    one walk and one pass of ordered sums, and the grade is dropped once
    integrated.  `show(k_a, k_b, m, grade, sums)`, if given, sees each grade
    after it, mirror classes expanded, with the memo of ordered sums.
    """
    pairs = itertools.combinations_with_replacement(space.labels, 2)
    degrees = {(a, b): (space.derivative(a)[0], space.derivative(b)[0]) for a, b in pairs}
    top = {ks: sum(ks) - 2 if space.exact else order for ks in degrees.values()}
    totals, sums = dict.fromkeys(top, ScalarSeries.zero()), {}
    for m in range(max(top.values()) + 1):
        grades = connected_grades([ks for ks in top if top[ks] >= m], m, space.potential, show is not None)
        for (ks, grade), series in zip(grades.items(), wedge_integrals(list(grades.values()), m, sums)):
            totals[ks] += series * space.power(m)
            if show:
                show(*ks, m, grade, sums)
    components = {}
    for (a, b), ks in degrees.items():
        components[(a, b)] = components[(b, a)] = totals[ks] * (space.derivative(a)[1] * space.derivative(b)[1])
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


def evaluate(series: ScalarSeries, alpha: float, lam: float, j: float) -> float:
    """The series at a point; a value beyond the float range, or one that
    underflows to 0, is an invalid configuration (`ValueError`)."""
    try:
        return series.evaluate(alpha, lam, j)
    except OverflowError:
        raise ValueError(f"the series overflows a float at alpha={alpha!r}, lambda={lam!r}, j={j!r}") from None
    except FloatingPointError:
        raise ValueError(f"the series underflows a float at alpha={alpha!r}, lambda={lam!r}, j={j!r}") from None
