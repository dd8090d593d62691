import itertools
import re
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import qgt_component
from oscqgt.integrator import DivergentIntegral
from oscqgt.perturbation import PolynomialPotential
from oscqgt.qgt import (
    ParameterSpace,
    assemble,
    determinant_and_critical,
)
from oscqgt.scalar_algebra import NonPositiveAlpha, ScalarSeries

LINEAR = ParameterSpace.parse("linear")
QUARTIC = ParameterSpace.parse("quartic")


def s(num, den=1, a=0, l=0, j=0):
    return ScalarSeries.term(F(num, den), alpha_half_pow=a, lambda_pow=l, j_pow=j)


class TestLinearComponents:
    def test_jj(self):
        assert qgt_component(LINEAR, "j", "j") == s(1, 2, a=-3)

    def test_alpha_alpha(self):
        assert qgt_component(LINEAR, "alpha", "alpha") == s(1, 32, a=-4) + s(1, 2, a=-7, j=2)

    def test_series_ignores_the_order(self):
        # J is summed exactly at every order, through grade 2 of G_alpha,alpha
        # although its grade 1 is empty (2 + 2 + 1 legs is odd)
        series = [assemble(LINEAR, order) for order in range(6)]
        assert all(tensor == series[0] for tensor in series)
        assert series[0][("alpha", "alpha")] == s(1, 32, a=-4) + s(1, 2, a=-7, j=2)

    def test_alpha_j(self):
        expected = s(-1, 2, a=-5, j=1)
        assert qgt_component(LINEAR, "alpha", "j") == expected
        assert qgt_component(LINEAR, "j", "alpha") == expected


class TestQuarticComponents:
    def test_alpha_alpha(self):
        assert qgt_component(QUARTIC, "alpha", "alpha", 1) == s(1, 32, a=-4) + s(
            -11, 512, a=-7, l=1
        )

    def test_lambda_lambda(self):
        assert qgt_component(QUARTIC, "lambda", "lambda", 1) == s(13, 6144, a=-6) + s(
            -31, 12288, a=-9, l=1
        )

    def test_alpha_lambda(self):
        assert qgt_component(QUARTIC, "alpha", "lambda", 1) == s(1, 128, a=-5) + s(
            -89, 12288, a=-8, l=1
        )

    def test_order_zero_is_free_theory(self):
        assert qgt_component(QUARTIC, "alpha", "alpha", 0) == s(1, 32, a=-4)
        # and equals the linear model at J = 0
        linear = qgt_component(LINEAR, "alpha", "alpha")
        j_free = ScalarSeries.from_terms(t for t in linear.terms if t.j_pow == 0)
        assert qgt_component(QUARTIC, "alpha", "alpha", 0) == j_free


@pytest.mark.parametrize(
    "space,order",
    [(LINEAR, 1), (QUARTIC, 0), (QUARTIC, 1), (ParameterSpace.parse("monomial:3"), 1)],
    ids=["linear", "quartic-0", "quartic-1", "cubic"],
)
class TestStructure:
    def test_components_symmetric(self, space, order):
        for a, b in itertools.combinations(space.labels, 2):
            assert qgt_component(space, a, b, order) == qgt_component(space, b, a, order)

    def test_metric_symmetric_curvature_zero(self, space, order):
        # every assembled entry against G_ba computed on its own: the metric
        # is symmetric and the curvature G_ab - G_ba vanishes
        for (a, b), series in assemble(space, order).items():
            assert (series - qgt_component(space, b, a, order)).is_zero

    def test_positive_diagonal_at_small_coupling(self, space, order):
        result = assemble(space, order)
        for label in space.labels:
            series = result[(label, label)]
            for alpha in (0.5, 1.0, 2.0):
                assert series.evaluate(alpha, 0.05, 0.3) > 0


class TestDeterminant:
    def test_quartic_first_order(self):
        result = assemble(QUARTIC, 1)
        det, critical = determinant_and_critical(result, QUARTIC.labels, 1)
        assert det == s(1, 196608, a=-10) + s(-35, 3145728, a=-13, l=1)
        assert critical == s(16, 35, a=3)

    def test_quartic_order_zero_has_no_root(self):
        result = assemble(QUARTIC, 0)
        det, critical = determinant_and_critical(result, QUARTIC.labels, 0)
        assert det == s(1, 196608, a=-10)
        assert critical is None

    def test_linear_determinant_exact_cancellation(self):
        # the J^2 cross terms cancel exactly: det = 1/(64 alpha^{7/2})
        result = assemble(LINEAR, 1)
        det, critical = determinant_and_critical(result, LINEAR.labels, 1)
        assert det == s(1, 64, a=-7)
        assert critical is None

    def test_metric_eigenvalues_positive_below_half_critical(self):
        result = assemble(QUARTIC, 1)
        for alpha in (0.5, 1.0, 2.0):
            lam_c = (16.0 / 35.0) * alpha**1.5
            for lam in np.linspace(0.0, lam_c / 2.0, 5):
                g = np.array(
                    [
                        [
                            result[(a, b)].evaluate(alpha, float(lam))
                            for b in QUARTIC.labels
                        ]
                        for a in QUARTIC.labels
                    ]
                )
                assert np.all(np.linalg.eigvalsh(g) > 0), (alpha, lam)


class TestDivergence:
    def test_alpha_at_or_below_zero_raises(self):
        series = qgt_component(QUARTIC, "alpha", "alpha", 1)
        for bad in (0.0, -1.0):
            with pytest.raises(DivergentIntegral):
                series.evaluate(bad)
            with pytest.raises(NonPositiveAlpha):
                series.evaluate(bad)


class TestParameterSpace:
    def test_labels(self):
        assert LINEAR.labels == ("alpha", "j")
        assert QUARTIC.labels == ("alpha", "lambda")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="not a parameter of the linear model"):
            LINEAR.derivative("lambda")
        with pytest.raises(ValueError, match="not a parameter of the quartic model"):
            QUARTIC.derivative("j")

    def test_derivative(self):
        assert QUARTIC.derivative("alpha") == (2, F(1, 2))
        assert QUARTIC.derivative("lambda") == (4, F(1, 24))
        assert LINEAR.derivative("j") == (1, F(1))
        assert ParameterSpace.parse("monomial:6").derivative("lambda") == (6, F(1, 720))

    @pytest.mark.parametrize(
        "coupling,potential",
        [
            ("cubic", PolynomialPotential.monomial(3)),
            ("j", PolynomialPotential.monomial(4)),
            ("j", PolynomialPotential(((1, F(1, 2)),))),
            ("lambda", PolynomialPotential(((3, F(1, 6)), (4, F(-1, 24))))),
        ],
        ids=["unknown-coupling", "j-on-quartic", "j-on-half-q", "lambda-on-two-terms"],
    )
    def test_space_derivative_cannot_serve_is_rejected(self, coupling, potential):
        # `derivative` serves one (k, c) pair: j couples to V = q, lambda to one monomial
        with pytest.raises(ValueError, match="no model couples"):
            ParameterSpace("model", potential, coupling)

    @pytest.mark.parametrize(
        "token,name,k,labels",
        [
            ("linear", "linear", 1, ("alpha", "j")),
            ("quartic", "quartic", 4, ("alpha", "lambda")),
            ("monomial:6", "monomial:6", 6, ("alpha", "lambda")),
            ("monomial:06", "monomial:6", 6, ("alpha", "lambda")),
        ],
    )
    def test_parse(self, token, name, k, labels):
        space = ParameterSpace.parse(token)
        expected = (name, PolynomialPotential.monomial(k), labels[1], labels)
        assert (space.name, space.potential, space.coupling, space.labels) == expected

    def test_quartic_is_monomial_4_under_another_name(self):
        monomial = ParameterSpace.parse("monomial:4")
        assert QUARTIC.potential == monomial.potential and QUARTIC != monomial
        assert assemble(QUARTIC, 2) == assemble(monomial, 2)

    @pytest.mark.parametrize(
        "token,message",
        [
            ("pentic", "unknown model 'pentic'"),
            ("monomial", "unknown model 'monomial'"),
            ("linear:1", "unknown model 'linear:1'"),
            ("monomial:x", "integer >= 1, not 'x'"),
            ("monomial:", "integer >= 1, not ''"),
            ("monomial:0", "integer >= 1, not '0'"),
            ("monomial:-2", "integer >= 1, not '-2'"),
            ("monomial:\u00b2", "integer >= 1, not '\u00b2'"),
        ],
    )
    def test_parse_rejects(self, token, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ParameterSpace.parse(token)
