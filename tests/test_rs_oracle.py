"""The diagram route against an exact Rayleigh-Schrodinger expansion.

`rs_oracle` expands the ground state itself, order by order in the coupling,
so these equalities check the whole symbolic route (pairings, wedge integrals
and the coefficients c_a * c_b of dH/da and dH/db) independently of it.
"""

from fractions import Fraction as F

import pytest

from oscqgt.linear_exact import CLOSED_FORM
from oscqgt.qgt import ParameterSpace, assemble
from rs_oracle import rs_energies, rs_metric


def test_quartic_energies_are_bender_wu():
    # Bender and Wu's 3/4, -21/8, 333/16, -30885/128, 916731/256 in powers of
    # g = lambda/4! for H = p^2/2 + q^2/2 + g q^4
    assert rs_energies(4, 5) == [
        F(1, 2), F(1, 32), F(-7, 1536), F(37, 24576), F(-10295, 14155776), F(33953, 75497472)
    ]


@pytest.mark.parametrize("order", range(6))
def test_quartic_series(order, assembled):
    space = ParameterSpace.parse("quartic")
    assert assembled("quartic", order) == rs_metric(4, space.labels, order)


@pytest.mark.parametrize("order", range(5))
def test_monomial_6_series(order, assembled):
    space = ParameterSpace.parse("monomial:6")
    assert assembled("monomial:6", order) == rs_metric(6, space.labels, order)


def test_linear_series():
    # the expansion in J ends at J^2: orders 3 and 4 must vanish identically
    space = ParameterSpace.parse("linear")
    rs = rs_metric(1, space.labels, 4)
    assert rs == CLOSED_FORM
    assert assemble(space) == rs
