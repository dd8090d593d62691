import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_series
from oscqgt.scalar_algebra import NonPositiveAlpha, ScalarSeries, ScalarTerm


def s(num, den=1, a=0, l=0, j=0):
    return ScalarSeries.term(F(num, den), alpha_half_pow=a, lambda_pow=l, j_pow=j)


class TestAdd:
    def test_identity(self):
        x = s(1, 32, a=-4)
        assert x + ScalarSeries.zero() == x

    def test_like_terms_merge(self):
        half = s(1, 2, a=-3)
        assert half + half == s(1, a=-3)

    def test_two_term_ordering(self):
        # leading free term plus the first coupling correction, ordered by
        # coupling power
        total = s(1, 32, a=-4) + s(-11, 512, a=-7, l=1)
        assert [t.lambda_pow for t in total.terms] == [0, 1]
        assert total.render() == "1/32 * a^-2 - 11/512 * l * a^-7/2"

    def test_cancellation_drops_terms(self):
        assert (s(3, 7, a=2) - s(3, 7, a=2)).is_zero


class TestMul:
    def test_power_addition(self):
        assert s(1, 2, a=-1) * s(1, 2, a=-1) == s(1, 4, a=-2)

    def test_half_powers(self):
        assert s(1, 2, a=-3) * s(1, 2, a=-3) == s(1, 4, a=-6)

    def test_determinant_leading_term(self):
        # (1/32 a^-2)(13/6144 a^-3) - (1/128 a^-5/2)^2 = 1/196608 a^-5
        det = s(1, 32, a=-4) * s(13, 6144, a=-6) - s(1, 128, a=-5) ** 2
        assert det == s(1, 196608, a=-10)


class TestEvaluate:
    def test_g_jj_at_one(self):
        assert s(1, 2, a=-3).evaluate(1.0) == pytest.approx(0.5)

    def test_free_metric_entry(self):
        assert s(1, 32, a=-4).evaluate(1.0, 0.0) == pytest.approx(0.03125)

    def test_first_order_entry(self):
        series = s(1, 32, a=-4) + s(-11, 512, a=-7, l=1)
        assert series.evaluate(1.0, 0.1) == pytest.approx(0.03125 - 11 * 0.1 / 512)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(NonPositiveAlpha):
            s(1, 2, a=-3).evaluate(0.0)
        with pytest.raises(NonPositiveAlpha):
            s(1, 2, a=-3).evaluate(-2.0)

    @pytest.mark.parametrize(
        "alpha,lam",
        [(1e-200, 0.0), (1e-40, 1e280)],
        ids=["power-overflows", "product-overflows"],
    )
    def test_float_overflow_raises(self, alpha, lam):
        # quartic order-1 G_aa: one power overflows, or a product of finite powers does
        series = s(1, 32, a=-4) + s(-11, 512, a=-7, l=1)
        with pytest.raises(OverflowError):
            series.evaluate(alpha, lam)
        with pytest.raises(OverflowError):
            series.terms[1].evaluate(alpha, lam)

    def test_sum_of_finite_terms_overflowing_raises(self):
        with pytest.raises(OverflowError, match="alpha=1.0, lambda=0.0, j=0.0"):
            (s(F(10**308)) + s(F(10**308), a=1)).evaluate(1.0)

    def test_non_finite_arguments_pass_through(self):
        assert s(1, a=2).evaluate(math.inf) == math.inf
        assert math.isnan(s(1, l=1).evaluate(1.0, math.nan))


terms = st.builds(
    ScalarTerm,
    coeff=st.builds(F, st.integers(-40, 40), st.integers(1, 24)).filter(lambda f: f != 0),
    alpha_half_pow=st.integers(-10, 10),
    lambda_pow=st.integers(0, 4),
    j_pow=st.integers(0, 4),
)
series = st.lists(terms, max_size=5).map(ScalarSeries.from_terms)


@given(series, series, series)
@settings(max_examples=120, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(series)
@settings(max_examples=150, deadline=None)
def test_render_parse_round_trip(a):
    assert parse_series(a.render()) == a


def _gross_scale(a, b, alpha, lam, j):
    # magnitude the summation actually works at, before cancellations
    mag = lambda x: ScalarSeries.from_terms(
        ScalarTerm(abs(t.coeff), t.alpha_half_pow, t.lambda_pow, t.j_pow) for t in x.terms
    )
    return (mag(a) * mag(b)).evaluate(alpha, lam, j)


@given(series, series, st.sampled_from([0.5, 1.0, 2.0, 3.7]))
@settings(max_examples=80, deadline=None)
def test_eval_is_multiplicative(a, b, alpha):
    lam, j = 0.3, 0.7
    lhs = (a * b).evaluate(alpha, lam, j)
    rhs = a.evaluate(alpha, lam, j) * b.evaluate(alpha, lam, j)
    scale = max(_gross_scale(a, b, alpha, lam, j), 1e-300)
    assert abs(lhs - rhs) <= 64 * math.ulp(scale) + 1e-280


def test_eval_multiplicative_within_four_ulps_on_component_series():
    # the component series are well conditioned: products evaluate to within
    # a few ulps of the factored evaluation
    from oscqgt.qgt import ParameterSpace, qgt_component

    quartic = ParameterSpace.quartic()
    linear = ParameterSpace.linear_source()
    pool = [
        qgt_component(quartic, a, b, 1)
        for a, b in itertools.combinations_with_replacement(quartic.labels, 2)
    ] + [
        qgt_component(linear, a, b)
        for a, b in itertools.combinations_with_replacement(linear.labels, 2)
    ]
    for a, b in itertools.combinations_with_replacement(pool, 2):
        for alpha in (0.5, 1.0, 2.0):
            lhs = (a * b).evaluate(alpha, 0.05, 0.3)
            rhs = a.evaluate(alpha, 0.05, 0.3) * b.evaluate(alpha, 0.05, 0.3)
            scale = max(abs(lhs), abs(rhs), 1e-300)
            assert abs(lhs - rhs) <= 4 * math.ulp(scale)


def test_truncate_lambda():
    total = s(1, a=-2) + s(2, l=1) + s(3, l=2)
    assert total.truncate_lambda(1) == s(1, a=-2) + s(2, l=1)


def test_render_zero_and_pure_rational():
    assert ScalarSeries.zero().render() == "0"
    assert parse_series("0") == ScalarSeries.zero()
    assert s(13, 6144).render() == "13/6144"
    assert s(-1, 1, a=2).render() == "-a"
