import functools
import itertools
from collections import Counter
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    GaussianModel,
    brute_force_diagrams,
    canonical_edges,
    clusters_linked,
    connected_components,
    connected_pair_correlator,
    has_vacuum_component,
    integrand_term_lines,
    interacting_green,
    kept_labelled_graphs,
    labelled_connected_integrand,
    ratio_connected_integrand,
    to_oracle_form,
)
from oscqgt.integrator import wedge_integral
from oscqgt.perturbation import (
    PolynomialPotential,
    _linked_class,
    _walk_rank,
    connected_grade,
    connected_integrand,
    hamiltonian_derivative,
)
from oscqgt.qgt import ParameterSpace, qgt_component
from oscqgt.scalar_algebra import ScalarSeries
from oscqgt.wick import enumerate_pairings

V1 = PolynomialPotential.monomial(1)
V3 = PolynomialPotential.monomial(3)
V4 = PolynomialPotential.monomial(4)
V6 = PolynomialPotential.monomial(6)

# degrees of dH/da: q^2/2 for alpha, q^4/4! for the quartic coupling, q for J
K_ALPHA, K_QUARTIC, K_SOURCE = 2, 4, 1


class TestPotential:
    def test_monomial_coefficients(self):
        assert V1.coefficients == ((1, F(1)),)
        assert V4.coefficients == ((4, F(1, 24)),)

    def test_rejects_empty_or_constant(self):
        with pytest.raises(ValueError):
            PolynomialPotential(())
        with pytest.raises(ValueError):
            PolynomialPotential(((0, F(1)),))

    def test_operators(self):
        assert hamiltonian_derivative("alpha", V4) == ((2, F(1, 2)),)
        assert hamiltonian_derivative("lambda", V4) == ((4, F(1, 24)),)
        assert hamiltonian_derivative("j", None) == ((1, F(1)),)
        assert hamiltonian_derivative("lambda", None) == ()
        mixed = PolynomialPotential.from_dict({1: F(1, 3), 4: F(-1, 24)})
        assert hamiltonian_derivative("lambda", mixed) == mixed.coefficients
        with pytest.raises(ValueError, match="unknown parameter 'mu'"):
            hamiltonian_derivative("mu", V4)


class TestInteractingGreen:
    def test_order_zero_is_free(self):
        green = interacting_green({"tau1": 2}, 0, V4)
        assert green.ratio == {0: {(("tau1", "tau1"),): F(1)}}

    def test_two_point_first_order_structure(self):
        # after the vacuum division only the vertex-linked diagram remains:
        # -(1/4!) * 12 * D(tau,s)^2 D(s,s)
        green = interacting_green({"tau1": 2}, 1, V4)
        assert green.ratio[1] == {
            (("s1", "s1"), ("s1", "tau1"), ("s1", "tau1")): F(-1, 2)
        }
        # the numerator still carries the vacuum piece that the division kills
        assert len(green.numerator[1]) == 2

    def test_four_point_first_order_structure(self):
        green = interacting_green({"tau1": 2, "tau2": 2}, 1, V4)
        assert green.ratio[1] == {
            (("s1", "s1"), ("s1", "tau2"), ("s1", "tau2"), ("tau1", "tau1")): F(-1, 2),
            (("s1", "s1"), ("s1", "tau1"), ("s1", "tau1"), ("tau2", "tau2")): F(-1, 2),
            (("s1", "s1"), ("s1", "tau1"), ("s1", "tau2"), ("tau1", "tau2")): F(-2),
            (("s1", "tau1"), ("s1", "tau1"), ("s1", "tau2"), ("s1", "tau2")): F(-1),
        }

    def test_order_cap(self):
        # no cap below the CLI: the oracle expands at any order it is given
        green = interacting_green({"tau1": 1}, 4, V1)
        assert sorted(green.ratio) == [0, 1, 2, 3, 4]


RAW_PATTERNS = {
    ("alpha", "alpha"): (24, [2, 1]),
    ("lambda", "lambda"): (288, [4, 3, 6, 4, 4, 3, 3, 6]),
    ("alpha", "lambda"): (48, [6, 3, 3, 4]),
}


def _raw_first_order(k_a, k_b):
    graded = connected_integrand(k_a, k_b, 1, V4)
    # strip the -(lambda/4!) vertex weight to recover plain pairing counts
    return {edges: coeff * (-24) for edges, coeff in graded[1].items()}


class TestIntegrandFidelity:
    @pytest.mark.parametrize("pair", sorted(RAW_PATTERNS))
    def test_coefficient_patterns(self, pair):
        degrees = {"alpha": K_ALPHA, "lambda": K_QUARTIC}
        raw = _raw_first_order(degrees[pair[0]], degrees[pair[1]])
        overall, pattern = RAW_PATTERNS[pair]
        assert sorted(raw.values()) == sorted(F(overall * c) for c in pattern)

    @pytest.mark.parametrize("pair", sorted(RAW_PATTERNS))
    def test_against_brute_force_filtered_enumeration(self, pair):
        degrees = {"alpha": K_ALPHA, "lambda": K_QUARTIC}
        k_a, k_b = degrees[pair[0]], degrees[pair[1]]
        raw = _raw_first_order(k_a, k_b)
        expected = {}
        for (edges, _means), mult in brute_force_diagrams({"tau1": k_a, "tau2": k_b, "s1": 4}).items():
            if clusters_linked(edges) and not has_vacuum_component(edges):
                expected[edges] = F(mult)
        assert raw == expected

    def test_term_lines_are_stable(self):
        graded = connected_integrand(K_ALPHA, K_ALPHA, 1, V4)
        assert integrand_term_lines(graded, V4) == [
            "order 0: 2 * D(tau1,tau2) D(tau1,tau2)",
            "order 1: 48 * D(s1,s1) D(s1,tau1) D(s1,tau2) D(tau1,tau2)",
            "order 1: 24 * D(s1,tau1) D(s1,tau1) D(s1,tau2) D(s1,tau2)",
        ]


class TestVacuumCancellation:
    @pytest.mark.parametrize("potential", [V1, V3, V4], ids=["k1", "k3", "k4"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_no_vacuum_or_unlinked_terms_survive(self, potential, order):
        k_l = potential.degree
        for k_a, k_b in [(K_ALPHA, K_ALPHA), (K_ALPHA, k_l), (k_l, k_l)]:
            graded = connected_integrand(k_a, k_b, order, potential)
            for m, grade in graded.items():
                for edges in grade:
                    assert clusters_linked(edges), (m, edges)
                    assert not has_vacuum_component(edges), (m, edges)


class TestOddPotential:
    def test_cubic_coupling_pair_vanishes_at_first_order(self):
        graded = connected_integrand(3, 3, 1, V3)
        # 3 + 3 + 3 legs is odd: the engine must return an exact zero
        assert graded[1] == {}
        assert graded[0] != {}

    def test_cubic_cross_pair_is_even_and_nonzero(self):
        graded = connected_integrand(K_ALPHA, 3, 1, V3)
        assert graded[0] == {}  # odd at order zero
        assert graded[1] != {}


def _perturbative_series(op_a, op_b, order, potential):
    (k_a, c_a), (k_b, c_b) = op_a, op_b
    graded = connected_integrand(k_a, k_b, order, potential)
    series = ScalarSeries.zero()
    for m, grade in graded.items():
        series = series + wedge_integral(grade, n_vertices=m) * ScalarSeries.term(1, j_pow=m)
    return series * (c_a * c_b)


def _sourced_series(op_a, op_b):
    """The component from the constant-source Gaussian, with no J vertex."""
    (k_a, c_a), (k_b, c_b) = op_a, op_b
    products = connected_pair_correlator(GaussianModel(source_j=True), {"tau1": k_a}, {"tau2": k_b})
    series = ScalarSeries.zero()
    for edges, coeff in products.items():
        series = series + wedge_integral({edges: 1}) * coeff
    return series * (c_a * c_b)


# dH/da = c q^k as (k, c), written out here apart from the library's map
LINEAR_OPS = {"alpha": (2, F(1, 2)), "j": (1, F(1))}


class TestLinearCaseConsistency:
    # running the expansion with the degree-1 vertex must reproduce the exact
    # constant-source results order by order in J (the exact series terminates)
    @pytest.mark.parametrize("pair", [("alpha", "alpha"), ("alpha", "j"), ("j", "j")])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_orders_match_exact_source_series(self, pair, order):
        op_a, op_b = (LINEAR_OPS[label] for label in pair)
        exact = _sourced_series(op_a, op_b)
        pert = _perturbative_series(op_a, op_b, order, V1)
        exact_truncated = ScalarSeries.from_terms(
            t for t in exact.terms if t.j_pow <= order
        )
        assert pert == exact_truncated

    @pytest.mark.parametrize("pair", [("alpha", "alpha"), ("alpha", "j"), ("j", "alpha"), ("j", "j")])
    def test_linear_component_equals_source_series(self, pair):
        # the compute route stops at order q_a + q_b - 2, whatever `order`
        # is; the source series has every power of J
        space = ParameterSpace.linear_source()
        exact = _sourced_series(*(LINEAR_OPS[label] for label in pair))
        assert qgt_component(space, *pair) == exact
        assert qgt_component(space, *pair, order=0) == exact


ORACLE_CASES = (
    [(V1, order) for order in range(4)]
    + [(V3, order) for order in range(4)]
    + [(V4, order) for order in range(4)]
    + [(V6, order) for order in range(3)]
)


class TestLinkedClusterAgainstRatioOracle:
    # Keeping only the graphs that join tau1, tau2 and every vertex must give
    # exactly the numerator/vacuum ratio minus the product of the one-point
    # functions: the vacuum bubbles cancel identically, order by order.
    @pytest.mark.parametrize(
        "potential,order",
        ORACLE_CASES,
        ids=[f"k{p.degree}-o{o}" for p, o in ORACLE_CASES],
    )
    def test_equals_ratio_path(self, potential, order):
        k_l = potential.degree
        for k_a, k_b in [(K_ALPHA, K_ALPHA), (K_ALPHA, k_l), (k_l, K_ALPHA), (k_l, k_l)]:
            direct = connected_integrand(k_a, k_b, order, potential)
            ratio = ratio_connected_integrand(k_a, k_b, order, potential)
            assert to_oracle_form(direct) == to_oracle_form(ratio)

    def test_mixed_potential_equals_ratio_path(self):
        # several vertex degrees, one coefficient negative, so terms can cancel
        potential = PolynomialPotential.from_dict({1: F(1, 3), 2: F(-1, 2), 4: F(1, 24)})
        for k_b in (K_ALPHA, K_SOURCE):
            direct = connected_integrand(K_ALPHA, k_b, 3, potential)
            ratio = ratio_connected_integrand(K_ALPHA, k_b, 3, potential)
            assert to_oracle_form(direct) == to_oracle_form(ratio)

    def test_order_cap(self):
        # no cap below the CLI: the generator expands at any order it is given
        # (past the CLI's default of 3; a J vertex is a leaf, so q^2 q^2 ends at 2)
        graded = connected_integrand(K_ALPHA, K_ALPHA, 5, V1)
        assert sorted(graded) == [0, 1, 2, 3, 4, 5]
        assert graded[2] and not any(graded[m] for m in (3, 4, 5))
        assert connected_integrand(K_ALPHA, K_QUARTIC, -1, V4) == {}


VERTICES_4 = ["s1", "s2", "s3", "s4"]


@functools.cache
def _kept_graphs_alpha_lambda_order4() -> tuple:
    """Labelled alpha,lambda order-4 quartic graphs joining every time."""
    points = {"tau1": 2, "tau2": 4, **dict.fromkeys(VERTICES_4, 4)}
    return tuple(
        d.edges for d in enumerate_pairings(points) if len(connected_components(d.edges)) == 1
    )


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_relabelling_the_vertices_keeps_the_form(self, data):
        graphs = _kept_graphs_alpha_lambda_order4()
        edges = graphs[data.draw(st.integers(0, len(graphs) - 1), label="graph")]
        perm = data.draw(st.permutations(VERTICES_4), label="relabelling")
        mapping = dict(zip(VERTICES_4, perm))
        moved = [(mapping.get(a, a), mapping.get(b, b)) for a, b in edges]
        assert _linked_class(moved, VERTICES_4) == _linked_class(edges, VERTICES_4)

    def test_class_count_matches_the_all_permutation_form(self):
        graded = connected_integrand(K_ALPHA, K_QUARTIC, 4, V4)
        oracle_classes = {canonical_edges(e, VERTICES_4) for e in _kept_graphs_alpha_lambda_order4()}
        assert len(graded[4]) == len(oracle_classes) == 483
        assert len(to_oracle_form(graded)[4]) == len(graded[4])


# two vertex degrees, one coefficient negative: the walk runs over degree
# multisets, and at order 3 both {3, 3, 4} and {3, 4, 4} occur
MIXED_34 = PolynomialPotential.from_dict({3: F(1, 6), 4: F(-1, 24)})

LABELLED_CASES = {
    "quartic-alpha,lambda-o4": (K_ALPHA, K_QUARTIC, 4, V4),
    "k6-lambda,lambda-o3": (6, 6, 3, V6),
    "mixed34-alpha,alpha-o3": (K_ALPHA, K_ALPHA, 3, MIXED_34),
    "mixed34-alpha,j-o3": (K_ALPHA, K_SOURCE, 3, MIXED_34),
    "mixed34-lambda,lambda-o3": (K_QUARTIC, K_QUARTIC, 3, MIXED_34),
}


class TestOneGraphPerClass:
    # One symmetry-broken labelling per class, weighted by 1/|Aut|, must give
    # exactly what every labelled graph weighted by 1/m! gives, under the
    # same canonical edge tuples.
    @pytest.mark.parametrize("case", sorted(LABELLED_CASES))
    def test_equals_labelled_walk(self, case):
        k_a, k_b, order, potential = LABELLED_CASES[case]
        direct = connected_integrand(k_a, k_b, order, potential)
        labelled = labelled_connected_integrand(k_a, k_b, order, potential)
        assert direct == labelled
        assert direct[order]

    @pytest.mark.parametrize(
        "case", ["quartic-alpha,lambda-o4", "mixed34-alpha,j-o3", "mixed34-lambda,lambda-o3"]
    )
    def test_orbit_stabiliser(self, case):
        # every class has m!/|Aut| labellings over all orderings of its degrees
        k_a, k_b, m, potential = LABELLED_CASES[case]
        labellings: Counter = Counter()
        automorphisms = {}
        for _degrees, (edges, aut), _mult in kept_labelled_graphs(k_a, k_b, m, potential):
            labellings[edges] += 1
            automorphisms[edges] = aut
        assert labellings
        assert any(aut > 1 for aut in automorphisms.values())
        for edges, count in labellings.items():
            assert count * automorphisms[edges] == factorial(m), edges


def _walk_points(k_a, k_b, m, potential):
    """The legs of each degree multiset that `connected_grade` walks at order m."""
    degrees = sorted(d for d, _ in potential.coefficients)
    for combo in itertools.combinations_with_replacement(degrees, m):
        if (k_a + k_b + sum(combo)) % 2 == 0:
            yield {"tau1": k_a, "tau2": k_b, **{f"s{i}": d for i, d in enumerate(combo, start=1)}}


PRUNING_CASES = {
    **{f"quartic-alpha,lambda-o{m}": (K_ALPHA, K_QUARTIC, m, V4) for m in range(5)},
    **{case: LABELLED_CASES[case] for case in LABELLED_CASES if not case.startswith("quartic")},
}


class TestPrunedWalk:
    # dropping a branch once a component closes must lose no connected graph
    # and keep no disconnected one, with or without the symmetry breaking
    @pytest.mark.parametrize("ranked", [False, True], ids=["unranked", "ranked"])
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_equals_filtered_full_walk(self, case, ranked):
        k_a, k_b, m, potential = PRUNING_CASES[case]
        rank = functools.partial(_walk_rank, m) if ranked else None
        walked = 0
        for points in _walk_points(k_a, k_b, m, potential):
            pruned = enumerate_pairings(points, rank=rank, connected=True)
            full = enumerate_pairings(points, rank=rank)
            assert pruned == [d for d in full if len(connected_components(d.edges)) == 1]
            walked += len(pruned)
        assert walked

    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_untied_graph_is_its_own_class_form(self, case):
        # when no two ranks tie, the walk's labelling is the canonical one
        k_a, k_b, m, potential = PRUNING_CASES[case]
        rank = functools.partial(_walk_rank, m)
        names = [f"s{i}" for i in range(1, m + 1)]
        tied = 0
        for points in _walk_points(k_a, k_b, m, potential):
            for d in enumerate_pairings(points, rank=rank, connected=True):
                if d.tied:
                    tied += 1
                else:
                    assert _linked_class(d.edges, names) == (d.edges, 1)
        assert tied or m < 2

    @pytest.mark.parametrize(
        "case,leaves,unpruned,classes",
        [("quartic-alpha,lambda-o4", 577, 1135, 483), ("k6-lambda,lambda-o3", 3860, 4680, 3860)],
    )
    def test_walk_work_counts(self, case, leaves, unpruned, classes):
        # a walk that stops pruning, or a change of the rank, moves these counts
        k_a, k_b, m, potential = LABELLED_CASES[case]
        [points] = _walk_points(k_a, k_b, m, potential)
        rank = functools.partial(_walk_rank, m)
        assert len(enumerate_pairings(points, rank=rank, connected=True)) == leaves
        assert len(enumerate_pairings(points, rank=rank)) == unpruned
        assert len(connected_grade(k_a, k_b, m, potential)) == classes
