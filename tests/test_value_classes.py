"""The construction and value contract of the package's record classes.

Each class is built positionally, by keyword and from its defaults; its
checks reject what they rejected before; the five immutable classes
compare equal only to an instance of the same class with the same fields,
hash by them, refuse assignment, and survive copy and pickle.
"""

import copy
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import WickDiagram, enumerate_pairings, potential_from_dict
from oscqgt.perturbation import PolynomialPotential
from oscqgt.qgt import ParameterSpace
from oscqgt.scalar_algebra import Frozen, ScalarSeries, ScalarTerm
from oscqgt.spectral_oracle import NumericQGT, OracleConfig

TERM = ScalarTerm(F(1, 2), -3, 1, 0)
EDGES = (("s1", "tau1"), ("s1", "tau2"))

# (instance, an equal instance built another way, an instance that differs, field -> value)
FROZEN = {
    "ScalarTerm": (
        ScalarTerm(F(3, 4), -2, 1, 0),
        ScalarTerm(coeff=F(3, 4), alpha_half_pow=-2, lambda_pow=1),
        ScalarTerm(F(3, 4), -2, 0, 1),
        {"coeff": F(3, 4), "alpha_half_pow": -2, "lambda_pow": 1, "j_pow": 0},
    ),
    "ScalarSeries": (
        ScalarSeries((TERM,)),
        ScalarSeries(terms=(ScalarTerm(F(1, 2), -3, 1),)),
        ScalarSeries(),
        {"terms": (TERM,)},
    ),
    "WickDiagram": (
        WickDiagram(EDGES, 2, True),
        WickDiagram(edges=EDGES, multiplicity=2, tied=True),
        WickDiagram(EDGES, 2),
        {"edges": EDGES, "multiplicity": 2, "tied": True},
    ),
    "PolynomialPotential": (
        PolynomialPotential(((4, F(1, 24)),)),
        PolynomialPotential(coefficients=[(4, F(1, 24))]),
        PolynomialPotential(((6, F(1, 720)),)),
        {"coefficients": ((4, F(1, 24)),)},
    ),
    "ParameterSpace": (
        ParameterSpace("monomial:6", PolynomialPotential.monomial(6), "lambda"),
        ParameterSpace(name="monomial:6", potential=PolynomialPotential(((6, F(1, 720)),))),
        ParameterSpace("monomial:4", PolynomialPotential.monomial(4)),
        {"name": "monomial:6", "potential": PolynomialPotential.monomial(6), "coupling": "lambda"},
    ),
}


def test_every_frozen_record_is_in_the_table():
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_repr_names_class_and_fields(name):
    value, _, _, fields = FROZEN[name]
    assert list(fields) == list(type(value).__slots__)
    assert repr(value) == f"{name}({', '.join(map(repr, fields.values()))})"


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_fields_and_equality(name):
    value, same, other, fields = FROZEN[name]
    assert type(value).__name__ == name
    for field, expected in fields.items():
        assert getattr(value, field) == expected
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other
    assert {value: "first", same: "second"} == {value: "second"}
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_equality_is_same_class_only(name):
    value, _, _, fields = FROZEN[name]
    assert value != tuple(fields.values())
    assert value != fields
    assert all(value != other for key, (other, *_) in FROZEN.items() if key != name)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_assignment_raises(name):
    value, _, _, fields = FROZEN[name]
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert {field: getattr(value, field) for field in fields} == fields


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_copy_and_pickle(name):
    value = FROZEN[name][0]
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


class TestDefaults:
    def test_scalar_term(self):
        t = ScalarTerm(5)
        assert (t.coeff, t.alpha_half_pow, t.lambda_pow, t.j_pow) == (5, 0, 0, 0)

    def test_scalar_series(self):
        assert ScalarSeries().terms == ()
        assert ScalarSeries() == ScalarSeries.zero()

    def test_wick_diagram(self):
        d = WickDiagram(EDGES)
        assert (d.edges, d.multiplicity, d.tied) == (EDGES, 1, False)

    def test_parameter_space(self):
        assert ParameterSpace("quartic", PolynomialPotential.monomial(4)).coupling == "lambda"

    def test_oracle_config(self):
        assert OracleConfig().basis_size == 128


class TestCoercion:
    @pytest.mark.parametrize("coeff", [3, F(3), "3", 3.0])
    def test_coeff_becomes_a_fraction(self, coeff):
        t = ScalarTerm(coeff, 1)
        assert type(t.coeff) is F and t.coeff == 3
        assert t == ScalarTerm(F(3), 1)

    def test_potential_is_sorted_without_zero_terms(self):
        v = PolynomialPotential(((6, 1), (2, 0), (4, F(1, 2)), (3, 0.0)))
        assert v.coefficients == ((4, F(1, 2)), (6, F(1)))
        assert all(type(c) is F for _, c in v.coefficients)
        assert v == potential_from_dict({6: F(1), 4: F(1, 2)})
        assert v.degree == 6


class TestValidation:
    @pytest.mark.parametrize("powers", [{"lambda_pow": -1}, {"j_pow": -1}])
    def test_negative_coupling_power(self, powers):
        with pytest.raises(ValueError, match="non-negative"):
            ScalarTerm(1, **powers)

    def test_negative_alpha_power_is_allowed(self):
        assert ScalarTerm(1, -7).alpha_half_pow == -7

    @pytest.mark.parametrize("power", [0, -1])
    def test_insertion_power_below_one(self, power):
        with pytest.raises(ValueError, match=">= 1 leg"):
            enumerate_pairings({"t": power})
        with pytest.raises(ValueError, match=">= 1 leg"):
            enumerate_pairings({"tau1": 2, "s1": power})

    @pytest.mark.parametrize(
        "coefficients", [(), ((0, F(1)),), ((0, F(1)), (4, F(1))), ((4, 0),)], ids=["empty", "degree0", "constant", "zero"]
    )
    def test_potential_without_support_of_degree_one(self, coefficients):
        with pytest.raises(ValueError, match="degree >= 1"):
            PolynomialPotential(coefficients)

    def test_unknown_coupling(self):
        with pytest.raises(ValueError, match="no model couples 'cubic'"):
            ParameterSpace("cubic", PolynomialPotential.monomial(3), "cubic")

    @pytest.mark.parametrize("basis_size", [15, 8, 0, -16])
    def test_basis_size_below_16(self, basis_size):
        with pytest.raises(ValueError, match="basis_size"):
            OracleConfig(basis_size)

    def test_basis_size_16_is_allowed(self):
        assert OracleConfig(16).basis_size == 16


class TestOracleRecords:
    def test_oracle_config_construction(self):
        for cfg in (OracleConfig(64), OracleConfig(basis_size=64)):
            assert cfg.basis_size == 64
        assert OracleConfig.__slots__ == ("basis_size",)
        with pytest.raises(TypeError):
            OracleConfig(64, 1.3)

    def test_oracle_config_copy_and_pickle(self):
        cfg = OracleConfig(64)
        for clone in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert clone.basis_size == 64
            assert clone is not cfg

    def test_oracle_config_is_mutable(self):
        cfg = OracleConfig()
        cfg.basis_size = 256
        assert cfg.basis_size == 256

    def test_numeric_qgt_construction(self):
        metric = np.array([[1.0, 2.0], [2.0, 3.0]])
        report = {("alpha", "alpha"): {"refinement": 0.0, "basis_doubling": 0.0}}
        positional = NumericQGT(("alpha", "lambda"), metric, report)
        keyword = NumericQGT(labels=("alpha", "lambda"), metric=metric, convergence_report=report)
        for result in (positional, keyword):
            assert result.labels == ("alpha", "lambda")
            assert result.metric is metric
            assert result.convergence_report is report
            assert result.entry("lambda", "alpha") == 2.0
            assert type(result.entry("lambda", "lambda")) is float
