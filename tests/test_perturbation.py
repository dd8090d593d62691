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
    class_form,
    clusters_linked,
    connected_components,
    connected_grade,
    connected_integrand,
    connected_pair_correlator,
    counts_of,
    enumerate_pairings,
    full_classes,
    has_vacuum_component,
    integrand_term_lines,
    interacting_green,
    kept_labelled_graphs,
    labelled_connected_integrand,
    linked_class,
    named,
    potential_from_dict,
    qgt_component,
    ratio_connected_integrand,
    relabelled,
    tau_mirror,
    time_names,
    to_oracle_form,
    walk_rank,
    walked_classes,
    wedge_integral,
)
from oscqgt.perturbation import PolynomialPotential, connected_grades, hamiltonian_derivative
from oscqgt.qgt import ParameterSpace, assemble
from oscqgt.scalar_algebra import ScalarSeries
from oscqgt import wick
from oscqgt.wick import connected_classes, mirror_form

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
        assert hamiltonian_derivative("j", V4) == ((1, F(1)),)
        mixed = potential_from_dict({1: F(1, 3), 4: F(-1, 24)})
        assert hamiltonian_derivative("lambda", mixed) == mixed.coefficients
        with pytest.raises(ValueError, match="unknown parameter 'mu'"):
            hamiltonian_derivative("mu", V4)

    def test_repeated_degrees_are_summed(self):
        halves = PolynomialPotential(((4, F(1, 48)), (4, F(1, 48))))
        assert halves == V4
        cancelled = PolynomialPotential(((4, F(1)), (2, F(1, 2)), (4, F(-1))))
        assert cancelled.coefficients == ((2, F(1, 2)),)
        # the route summed bilinearly over the pairs of dH/da and dH/db
        for (a, b), series in assemble(ParameterSpace.quartic(), 2).items():
            got = ScalarSeries.zero()
            for k_a, c_a in hamiltonian_derivative(a, halves):
                for k_b, c_b in hamiltonian_derivative(b, halves):
                    for m, grade in connected_integrand(k_a, k_b, 2, halves).items():
                        got = got + wedge_integral(grade, m) * ScalarSeries.term(c_a * c_b, lambda_pow=m)
            assert got == series, (a, b)


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
    graded = named(connected_integrand(k_a, k_b, 1, V4))
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
            graded = named(connected_integrand(k_a, k_b, order, potential))
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
        series = series + wedge_integral({counts_of(edges, time_names(0)): F(1)}) * coeff
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
        space = ParameterSpace.parse("linear")
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
            assert to_oracle_form(named(direct)) == to_oracle_form(ratio)

    def test_mixed_potential_equals_ratio_path(self):
        # several vertex degrees, one coefficient negative, so terms can cancel
        potential = potential_from_dict({1: F(1, 3), 2: F(-1, 2), 4: F(1, 24)})
        for k_b in (K_ALPHA, K_SOURCE):
            direct = connected_integrand(K_ALPHA, k_b, 3, potential)
            ratio = ratio_connected_integrand(K_ALPHA, k_b, 3, potential)
            assert to_oracle_form(named(direct)) == to_oracle_form(ratio)

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
        assert linked_class(moved, VERTICES_4) == linked_class(edges, VERTICES_4)

    def test_class_count_matches_the_all_permutation_form(self):
        graded = connected_integrand(K_ALPHA, K_QUARTIC, 4, V4)
        oracle_classes = {canonical_edges(e, VERTICES_4) for e in _kept_graphs_alpha_lambda_order4()}
        assert len(graded[4]) == len(oracle_classes) == 483
        assert len(to_oracle_form(named(graded))[4]) == len(graded[4])


# two vertex degrees, one coefficient negative: the walk runs over degree
# multisets, and at order 3 both {3, 3, 4} and {3, 4, 4} occur
MIXED_34 = potential_from_dict({3: F(1, 6), 4: F(-1, 24)})

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
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_classes_equal_the_generic_walk(self, case):
        # the library's walk is the generic one, ranked, cut to connected
        # graphs, cut by the same swap and mirror rules, with each tied graph
        # put in its class form: class for class, in order of first appearance
        k_a, k_b, m, potential = PRUNING_CASES[case]
        for points in _walk_points(k_a, k_b, m, potential):
            degrees = [points[f"s{i}"] for i in range(1, m + 1)]
            got = connected_classes(degrees, k_a, k_b)
            assert list(got.items()) == list(walked_classes(degrees, k_a, k_b).items())

    @pytest.mark.parametrize("ranked", [False, True], ids=["unranked", "ranked"])
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_equals_filtered_full_walk(self, case, ranked):
        k_a, k_b, m, potential = PRUNING_CASES[case]
        rank = walk_rank(m) if ranked else None
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
        rank = walk_rank(m)
        names = [f"s{i}" for i in range(1, m + 1)]
        tied = 0
        for points in _walk_points(k_a, k_b, m, potential):
            for d in enumerate_pairings(points, rank=rank, connected=True):
                if d.tied:
                    tied += 1
                else:
                    assert linked_class(d.edges, names) == (counts_of(d.edges, time_names(m)), 1)
        assert tied or m < 2

    @pytest.mark.parametrize(
        "case,leaves,unpruned,classes",
        [("quartic-alpha,lambda-o4", 577, 1135, 483), ("k6-lambda,lambda-o3", 3860, 4680, 3860)],
    )
    def test_walk_work_counts(self, case, leaves, unpruned, classes):
        # a walk that stops pruning, or a change of the rank, moves these counts
        k_a, k_b, m, potential = LABELLED_CASES[case]
        [points] = _walk_points(k_a, k_b, m, potential)
        rank = walk_rank(m)
        assert len(enumerate_pairings(points, rank=rank, connected=True)) == leaves
        assert len(enumerate_pairings(points, rank=rank)) == unpruned
        assert len(connected_grade(k_a, k_b, m, potential)) == classes


SHARED_WALK_CASES = [
    *(("quartic", m) for m in range(5)),
    *(("monomial:6", m) for m in range(4)),
    *(("monomial:3", m) for m in range(4)),  # odd k: each pair walks its own parities
    *(("monomial:8", m) for m in range(3)),
    ("linear", None),  # every pair to its last order
]


class TestSharedWalk:
    # the pairs of one parity read their graphs off one walk at the largest
    # degrees; each pair's grade must equal the walk of that pair alone
    @pytest.mark.parametrize("swapped", [False, True], ids=["alpha-first", "lambda-first"])
    @pytest.mark.parametrize("model,order", SHARED_WALK_CASES)
    def test_grades_equal_the_per_pair_walk(self, model, order, swapped):
        # without `expand`, a mirror's weight joins its class's graph, which
        # must integrate to the same series
        space = ParameterSpace.parse(model)
        labels = space.labels[::-1] if swapped else space.labels
        ks = [space.derivative(label)[0] for label in labels]
        pairs = list(itertools.combinations_with_replacement(ks, 2))
        top = {ks: sum(ks) - 2 if order is None else order for ks in pairs}
        for m in range(max(top.values()) + 1):
            kept = [ks for ks in pairs if top[ks] >= m]
            grades = connected_grades(kept, m, space.potential)
            merged = connected_grades(kept, m, space.potential, expand=False)
            assert list(grades) == list(merged) == kept
            for ks in kept:
                assert grades[ks] == connected_grade(*ks, m, space.potential), (ks, m)
                assert wedge_integral(merged[ks], m) == wedge_integral(grades[ks], m), (ks, m)

    @pytest.mark.parametrize("model,m", [("quartic", 3), ("monomial:3", 2), ("monomial:6", 2)])
    def test_every_ordered_pair_at_once(self, model, m):
        # (k_a, k_b) and (k_b, k_a) in one call, so one walk serves loops
        # removed at tau1 for one pair and at tau2 for the other
        space = ParameterSpace.parse(model)
        ks = [space.derivative(label)[0] for label in space.labels]
        pairs = list(itertools.product(ks, repeat=2))
        grades = connected_grades(pairs, m, space.potential)
        assert list(grades) == pairs
        for k_a, k_b in pairs:
            assert grades[k_a, k_b] == connected_grade(k_a, k_b, m, space.potential)
        assert connected_grades([], m, space.potential) == {}

    def test_one_walk_per_grade_for_even_degrees(self, monkeypatch):
        # quartic: every pair has even degrees, so one walk per degree
        # multiset at (4, 4); monomial:3 walks (2, 2), (2, 3) and (3, 3) apart
        import oscqgt.perturbation as perturbation

        walked = []
        real = perturbation.connected_classes

        def counted(degrees, k_a, k_b):
            walked.append((k_a, k_b))
            return real(degrees, k_a, k_b)

        monkeypatch.setattr(perturbation, "connected_classes", counted)
        assemble(ParameterSpace.quartic(), 3)
        assert walked == [(4, 4)] * 4
        walked.clear()
        assemble(ParameterSpace.parse("monomial:3"), 1)
        assert sorted(set(walked)) == [(2, 2), (2, 3), (3, 3)]


def _mirror_walks(model, order):
    """The walks with k_a = k_b at grade `order` (every grade when None) of
    the model's pairs (k, k), as (vertex degrees, k)."""
    space = ParameterSpace.parse(model)
    degrees = sorted(d for d, _ in space.potential.coefficients)
    for k in sorted({space.derivative(label)[0] for label in space.labels}):
        for m in range(2 * k - 1) if order is None else [order]:
            combos = itertools.combinations_with_replacement(degrees, m)
            yield from ((combo, k) for combo in combos if sum(combo) % 2 == 0)


MIRROR_CASES = [case for case in SHARED_WALK_CASES if any(_mirror_walks(*case))]
# (vertex degrees, k_a = k_b, classes, mirror pairs): G_lambda,lambda of quartic at
# m = 3 and 4 and of monomial:6 at m = 2 and 3
MIRROR_COUNTS = [
    ((4, 4, 4), 4, 249, 100), ((4, 4, 4, 4), 4, 1479, 638), ((6, 6), 6, 287, 110), ((6, 6, 6), 6, 3860, 1765)
]


class TestMirrorHalvedWalk:
    # when k_a = k_b the walk returns one class of each tau1 <-> tau2 mirror
    # pair, flagged paired; with each mirror added back it is the full walk
    @pytest.mark.parametrize("model,order", MIRROR_CASES)
    def test_expanded_classes_equal_the_full_walk(self, model, order):
        # class for class, with multiplicity and |Aut|
        for degrees, k in _mirror_walks(model, order):
            m, walked, expanded = len(degrees), connected_classes(degrees, k, k), {}
            for counts, (multiplicity, automorphisms, paired) in walked.items():
                twin = class_form(tau_mirror(counts, m), m)[0]
                assert (twin != counts) == paired and twin == mirror_form(counts, m)
                assert twin == counts or twin not in walked
                expanded[counts] = expanded[twin] = (multiplicity, automorphisms)
            assert expanded == full_classes(degrees, k, k), (degrees, k)

    @pytest.mark.parametrize(
        "degrees,k", [((4,) * m, 4) for m in range(6)] + [((6,) * 3, 6)],
        ids=[f"quartic-o{m}" for m in range(6)] + ["k6-o3"],
    )
    def test_class_form_equals_the_permutation_search(self, degrees, k, monkeypatch):
        # the grade walks of quartic to order 5 and of monomial:6 at order 3:
        # every labelling the walk puts in class form, and both members of
        # each class's mirror pair, as walked and with s_1..s_m reversed
        m = len(degrees)
        asked = []
        real = wick._class_form
        monkeypatch.setattr(wick, "_class_form", lambda counts, m: asked.append(counts) or real(counts, m))
        walked = connected_classes(degrees, k, k)
        assert any(automorphisms > 1 for _, automorphisms, _ in walked.values()) == (m > 1)
        reverse = [*range(m)][::-1] + [m, m + 1]
        for counts, (_, automorphisms, paired) in walked.items():
            twin = tau_mirror(counts, m)
            assert class_form(counts, m) == (counts, automorphisms)
            assert mirror_form(counts, m) == class_form(twin, m)[0]
            asked.extend((relabelled(counts, reverse), twin, relabelled(twin, reverse)))
        for counts in asked:
            assert real(counts, m) == class_form(counts, m), counts

    @pytest.mark.parametrize("degrees,k,classes,pairs", MIRROR_COUNTS)
    def test_half_of_each_mirror_pair_is_walked(self, degrees, k, classes, pairs):
        walked = connected_classes(degrees, k, k)
        assert len(walked) == classes - pairs
        assert sum(paired for *_, paired in walked.values()) == pairs
        assert len(full_classes(degrees, k, k)) == classes

    @pytest.mark.parametrize("model,order", [("quartic", 3), ("monomial:6", 2), ("monomial:3", 2), ("linear", 1)])
    def test_assemble_equals_each_graph_with_a_fresh_memo(self, model, order):
        # the shared walk, mirror-keyed memo and per-grade pass against each
        # graph of each pair's full walk, integrated on its own
        space = ParameterSpace.parse(model)
        got = assemble(space, order)
        for a, b in itertools.combinations_with_replacement(space.labels, 2):
            (k_a, c_a), (k_b, c_b) = space.derivative(a), space.derivative(b)
            want = ScalarSeries.zero()
            for m in range(k_a + k_b - 1 if space.exact else order + 1):
                for counts, coeff in connected_grade(k_a, k_b, m, space.potential).items():
                    want = want + wedge_integral({counts: coeff}, m) * space.power(m)
            assert got[a, b] == got[b, a] == want * (c_a * c_b), (a, b)
