import itertools
import math

import numpy as np
import pytest
from scipy import integrate

import oracles
from oracles import QuadratureFailure, ShiftedGaussianState, overlap_derivative_checks, qgt_component
from oscqgt.linear_exact import exact_linear_qgt
from oscqgt.qgt import ParameterSpace
from oscqgt.scalar_algebra import NonPositiveAlpha


class TestClosedForms:
    def test_free_point(self):
        g = exact_linear_qgt(1.0, 0.0)
        assert g[("alpha", "alpha")] == pytest.approx(1 / 32)
        assert g[("alpha", "j")] == 0.0
        assert g[("j", "j")] == pytest.approx(0.5)

    def test_unit_source(self):
        g = exact_linear_qgt(1.0, 1.0)
        assert g[("alpha", "alpha")] == pytest.approx(1 / 32 + 1 / 2)

    def test_stiff_oscillator(self):
        g = exact_linear_qgt(4.0, 0.0)
        assert g[("j", "j")] == pytest.approx(1 / 16)

    def test_rejects_bad_alpha(self):
        with pytest.raises(NonPositiveAlpha):
            exact_linear_qgt(0.0, 1.0)
        with pytest.raises(NonPositiveAlpha):
            ShiftedGaussianState(-1.0, 0.0)


class TestState:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("j", [0.0, 0.7])
    def test_normalization(self, alpha, j):
        state = ShiftedGaussianState(alpha, j)
        lo = state.center - 12.0 / alpha**0.25
        hi = state.center + 12.0 / alpha**0.25
        norm, _ = integrate.quad(lambda q: state.psi(q) ** 2, lo, hi, epsabs=1e-13)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_center(self):
        assert ShiftedGaussianState(2.0, 1.0).center == pytest.approx(-0.5)


class TestOverlapChecks:
    def test_matches_closed_forms(self):
        report = overlap_derivative_checks(1.0, 0.5, step=1e-5)
        assert report["max_relative_deviation"] < 1e-6
        for entry in report["entries"].values():
            assert entry["relative_deviation"] < 1e-6

    def test_connections_vanish(self):
        report = overlap_derivative_checks(1.0, 0.5, step=1e-5)
        for value in report["connections"].values():
            assert abs(value) < 1e-8

    def test_cross_term_zero_at_zero_source(self):
        report = overlap_derivative_checks(2.0, 0.0, step=1e-5)
        assert report["entries"][("alpha", "j")]["numeric"] == pytest.approx(0.0, abs=1e-9)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            overlap_derivative_checks(1.0, 0.0, step=0.0)


def adaptive_quad(f, lo, hi):
    value, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return value


class TestQuadrature:
    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0, 2.0, 100.0])
    @pytest.mark.parametrize("j", [-2.0, 0.0, 3.0])
    def test_moments_match_adaptive_quadrature(self, alpha, j):
        state = ShiftedGaussianState(alpha, j)
        lo, hi = oracles._support(alpha, j, 0.0)
        for power in (0, 1, 2):
            f = lambda q: q**power * state.psi(q) ** 2
            reference = adaptive_quad(f, lo, hi)
            assert oracles._quad(f, lo, hi) == pytest.approx(
                reference, rel=1e-12, abs=1e-13
            )

    @pytest.mark.parametrize("alpha,j", [(1.0, 0.5), (0.5, 0.0), (2.0, 0.5), (100.0, -2.0)])
    def test_overlap_checks_match_adaptive_quadrature(self, alpha, j, monkeypatch):
        report = overlap_derivative_checks(alpha, j)
        monkeypatch.setattr(oracles, "_quad", adaptive_quad)
        reference = overlap_derivative_checks(alpha, j)
        for key, entry in report["entries"].items():
            target = reference["entries"][key]["numeric"]
            assert abs(entry["numeric"] - target) <= 1e-11 * max(1.0, abs(target))
        for label, value in report["connections"].items():
            assert abs(value - reference["connections"][label]) <= 1e-11

    def test_unresolved_integrand_raises(self):
        # a Gaussian 1e-4 wide falls between the grid points
        with pytest.raises(QuadratureFailure):
            oracles._quad(lambda q: np.exp(-((q / 1e-4) ** 2)), -1.0, 1.0)


class TestPipelineEquivalence:
    # the correlator pipeline and the wavefunction closed forms must agree on
    # a 3x3 grid, numerically to 1e-12 (the series themselves are exact)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("j", [0.0, 0.5, -1.0])
    def test_grid(self, alpha, j):
        space = ParameterSpace.parse("linear")
        closed = exact_linear_qgt(alpha, j)
        for a, b in itertools.product(space.labels, repeat=2):
            series = qgt_component(space, a, b)
            assert series.evaluate(alpha, 0.0, j) == pytest.approx(
                closed[(a, b)], rel=1e-12, abs=1e-15
            )
