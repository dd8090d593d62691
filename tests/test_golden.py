"""Exact component series against the committed golden file.

`golden_series.json` holds every ordered component as exact
[num, den, alpha_half_pow, lambda_pow, j_pow] terms: quartic at coupling
orders 0-4 and monomial:6 at orders 0-3.  Orders 0-3 and 0-2 were written
with the earlier chamber-decomposition integrator, which evaluated the wedge
integrals by iterated closed-form integration, independently of the subset
DP; quartic order 4 and monomial:6 order 3 were added from the subset DP once
they equalled the Rayleigh-Schrodinger expansion of `rs_oracle`.
"""

import json
from pathlib import Path

import pytest

from oscqgt.qgt import ParameterSpace, qgt_component

GOLDEN = json.loads((Path(__file__).parent / "golden_series.json").read_text())
SPACES = {"quartic": ParameterSpace.quartic(), "monomial:6": ParameterSpace.monomial(6)}
CASES = [(model, int(order)) for model in sorted(GOLDEN) for order in GOLDEN[model]]


def records(series):
    return [
        [t.coeff.numerator, t.coeff.denominator, t.alpha_half_pow, t.lambda_pow, t.j_pow]
        for t in series.terms
    ]


@pytest.mark.parametrize("model,order", CASES)
def test_components_match_golden_file(model, order):
    space = SPACES[model]
    got = {
        f"{a},{b}": qgt_component(space, a, b, order)
        for a in space.labels
        for b in space.labels
    }
    assert {key: records(s) for key, s in got.items()} == GOLDEN[model][str(order)]
    assert got["alpha,lambda"] == got["lambda,alpha"]
    # q -> q alpha^(-1/4) maps H to sqrt(alpha) times the alpha = 1 Hamiltonian
    # at coupling lambda alpha^(-(k+2)/4), so the alpha power of G_ab drops by
    # 1 per alpha label and by (k+2)/4 per lambda label and power of lambda
    per_lambda = (space.k + 2) // 2  # in half powers
    for key, series in got.items():
        base = sum(2 if label == "alpha" else per_lambda for label in key.split(","))
        for t in series.terms:
            assert t.alpha_half_pow == -base - per_lambda * t.lambda_pow, (key, t)
