import itertools
import math
import random
from fractions import Fraction as F

import pytest

from oracles import (
    brute_force_wedge,
    connected_grade,
    counts_of,
    ordered_sum,
    product_value,
    propagator_value,
    quad_separation,
    quad_wedge,
    time_names,
    wedge_integral,
)
from oscqgt import integrator
from oscqgt.integrator import DivergentIntegral
from oscqgt.integrator import cut_sizes as counted_cut_sizes
from oscqgt.qgt import ParameterSpace
from oscqgt.scalar_algebra import ScalarSeries
from oscqgt.wick import edge_names

TAU1, TAU2, S1 = "tau1", "tau2", "s1"


def cut_sizes(edges, names):
    """The integrator's cut table of propagators between named times."""
    return counted_cut_sizes(counts_of(edges, names), len(names))


def graph(edges, coeff=1, m=0):
    """One graph of a grade with m vertices: {edge counts: coefficient}."""
    return {counts_of(edges, time_names(m)): F(coeff)}


def order_weight(edges, order):
    """prod_g 1/c_g * sum_{gaps between tau1 and tau2} 1/c_j on one time order."""
    cut = cut_sizes(edges, order)
    gaps = [F(1, cut[(1 << g) - 1]) for g in range(1, len(order))]
    between = gaps[order.index(TAU1) : order.index(TAU2)]
    return math.prod(gaps) * sum(between)


class TestResolve:
    def test_wedge_propagator_single_chamber(self):
        # one order, tau1 < tau2, whose single gap is crossed once
        assert cut_sizes([("tau1", "tau2")], [TAU1, TAU2]) == [0, 1, 1, 0]
        assert order_weight([("tau1", "tau2")], [TAU1, TAU2]) == 1
        assert wedge_integral(graph([("tau1", "tau2")])) == ScalarSeries.term(F(1, 2), -3)

    def test_vertex_bridge_three_chambers(self):
        edges = [("s1", "tau1"), ("s1", "tau2")]
        weights = {
            " < ".join(order): order_weight(edges, order)
            for order in ([S1, TAU1, TAU2], [TAU1, S1, TAU2], [TAU1, TAU2, S1])
        }
        assert weights == {
            "s1 < tau1 < tau2": F(1, 2),
            "tau1 < s1 < tau2": F(2),
            "tau1 < tau2 < s1": F(1, 2),
        }
        # the middle chamber is where the s-dependence cancels: equal cuts
        cut = cut_sizes(edges, [TAU1, S1, TAU2])
        assert cut[0b001] == cut[0b011] == 1
        # the DP sums exactly these three chambers, times 1/2 per propagator
        assert wedge_integral(graph(edges, m=1), n_vertices=1) == ScalarSeries.term(
            sum(weights.values()) / 4, -5
        )

    def test_equal_time_loop_is_constant(self):
        # a loop crosses no cut and only adds its constant 1/(2 sqrt(alpha))
        names = [TAU1, TAU2]
        assert cut_sizes([("tau1", "tau1")], names) == [0, 0, 0, 0]
        assert cut_sizes([("tau1", "tau2"), ("tau1", "tau1")], names) == cut_sizes(
            [("tau1", "tau2")], names
        )
        assert wedge_integral(
            graph([("tau1", "tau2"), ("tau1", "tau1")])
        ) == ScalarSeries.term(F(1, 4), -4)

    @pytest.mark.parametrize("alpha", [0.7, 1.0, 2.3])
    def test_chambers_tile_the_integrand(self, alpha):
        # at random points the sorted times fix one chamber, on which the
        # integrand is exp(-sqrt(a) sum_g c_g * gap_g) / (2 sqrt(a))^k
        rng = random.Random(7)
        edges = [("s1", "tau1"), ("s1", "tau2"), ("tau1", "tau2")]
        root = math.sqrt(alpha)
        for _ in range(20):
            assignment = {
                "tau1": -rng.uniform(0, 3),
                "tau2": rng.uniform(0, 3),
                "s1": rng.uniform(-4, 4),
            }
            order = sorted(assignment, key=assignment.get)
            cut = cut_sizes(edges, order)
            times = [assignment[n] for n in order]
            exponent = sum(
                cut[(1 << g) - 1] * (times[g] - times[g - 1]) for g in range(1, len(order))
            )
            got = math.exp(-root * exponent) / (2 * root) ** len(edges)
            want = product_value(alpha, edges, assignment)
            assert got == pytest.approx(want, rel=1e-12)


class TestKernels:
    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.9])
    def test_innermost_vertex_matches_quadrature(self, alpha):
        cases = [
            [("s1", "tau1"), ("s1", "tau2")],
            [("s1", "tau1"), ("s1", "tau1"), ("s1", "tau2"), ("s1", "tau2")],
            [("s1", "tau1"), ("s1", "tau2"), ("s1", "tau2"), ("s1", "tau2")],
            [("s1", "s1"), ("s1", "tau1"), ("s1", "tau2"), ("tau1", "tau2")],
            [("s1", "tau1"), ("tau1", "tau2")],
        ]
        for edges in cases:
            series = wedge_integral(graph(edges, m=1), n_vertices=1)
            assert series.evaluate(alpha) == pytest.approx(
                quad_separation(alpha, edges, "s1"), rel=1e-8
            )


class TestIntegrateAll:
    def test_wedge_of_single_propagator(self):
        # the (j, j) metric integrand
        assert wedge_integral(graph([("tau1", "tau2")])) == ScalarSeries.term(
            F(1, 2), -3
        )

    def test_wedge_of_double_propagator_with_prefactor(self):
        prod = graph([("tau1", "tau2")] * 2, F(1, 2))
        assert wedge_integral(prod) == ScalarSeries.term(F(1, 32), -4)

    def test_wedge_with_internal_vertex(self):
        # "-2J * D(s,tau1) D(tau1,tau2)" integrand times the 1/2 prefactor
        prod = graph([("s1", "tau1"), ("tau1", "tau2")], -1, m=1)
        j = ScalarSeries.term(1, j_pow=1)
        assert wedge_integral(prod, n_vertices=1) * j == ScalarSeries.term(F(-1, 2), -5, j_pow=1)

    @pytest.mark.parametrize(
        "edges,n_vertices",
        [
            ([("tau1", "tau2")], 0),
            ([("tau1", "tau2")] * 2, 0),
            ([("s1", "tau1"), ("s1", "tau2")], 1),
            ([("s1", "s1"), ("s1", "tau1"), ("s1", "tau2"), ("tau1", "tau2")], 1),
            ([("s1", "tau1"), ("s1", "tau1"), ("s1", "tau2"), ("s1", "tau2")], 1),
        ],
    )
    @pytest.mark.parametrize("alpha", [0.8, 1.7])
    def test_full_wedge_matches_quadrature(self, edges, n_vertices, alpha):
        series = wedge_integral(graph(edges, m=n_vertices), n_vertices=n_vertices)
        assert series.evaluate(alpha) == pytest.approx(
            quad_wedge(alpha, edges, n_vertices), rel=1e-8
        )

    def test_missing_external_dependence_diverges(self):
        with pytest.raises(DivergentIntegral):
            wedge_integral(graph([("tau1", "tau1")]))

    def test_key_of_wrong_length_is_rejected(self):
        # edge counts over one vertex do not fit a grade of zero or two
        one_vertex = graph([("s1", "tau1"), ("s1", "tau2")], m=1)
        for n_vertices in (0, 2):
            with pytest.raises(ValueError, match="6 edge counts does not fit"):
                wedge_integral(one_vertex, n_vertices)

    @pytest.mark.parametrize(
        "edges",
        [
            [("s1", "s2"), ("tau1", "tau2")],  # vacuum bubble
            [("s1", "tau1"), ("s2", "tau2")],  # split clusters
        ],
    )
    def test_disconnected_graph_diverges(self, edges):
        with pytest.raises(DivergentIntegral):
            wedge_integral(graph(edges, m=2), n_vertices=2)

    def test_fubini_vertex_order_independence(self):
        # s1 and s2 both run over the whole axis, so swapping their indices
        # (their order of integration) must keep the value, although it moves
        # their bits in the subset DP
        edges = [("s1", "tau1"), ("s1", "s2"), ("s2", "tau2"), ("tau1", "tau2")]
        swapped = counts_of(edges, ["s2", "s1", "tau1", "tau2"])
        assert swapped != counts_of(edges, time_names(2))
        assert wedge_integral({swapped: F(1)}, n_vertices=2) == wedge_integral(
            graph(edges, m=2), n_vertices=2
        )

    def test_scaling_law_alpha_exponent(self):
        # a product of p propagators integrated over v variables lands on
        # alpha^(-(p+v)/2) relative to the bare coefficient
        cases = [
            ([("tau1", "tau2")], 0),
            ([("tau1", "tau2")] * 3, 0),
            ([("s1", "tau1"), ("s1", "tau2")], 1),
            ([("s1", "s1"), ("s1", "tau1"), ("s1", "tau2"), ("tau1", "tau2")], 1),
            ([("s1", "tau1"), ("s1", "s2"), ("s2", "tau2"), ("tau1", "tau2")], 2),
        ]
        for edges, n_vertices in cases:
            series = wedge_integral(graph(edges, m=n_vertices), n_vertices=n_vertices)
            p, v = len(edges), n_vertices + 2
            assert all(t.alpha_half_pow == -(p + v) for t in series.terms)


QUARTIC = ParameterSpace.parse("quartic")
QUARTIC_PAIRS = [("alpha", "alpha"), ("alpha", "lambda"), ("lambda", "lambda")]


def quartic_products(m):
    """The edge counts of every quartic component's grade m, sorted."""
    return sorted(
        edges
        for a, b in QUARTIC_PAIRS
        for edges in connected_grade(
            QUARTIC.derivative(a)[0], QUARTIC.derivative(b)[0], m, QUARTIC.potential
        )
    )


def assert_equals_every_order(products, m):
    """wedge_integral of each product against the plain sum over all
    (m + 2)! time orders."""
    for counts in products:
        edges = edge_names(counts)
        want = brute_force_wedge(edges, time_names(m)) / 2 ** len(edges)
        got = wedge_integral({counts: F(1)}, m)
        assert got == ScalarSeries.term(want, -len(edges) - m - 2), edges


class TestSubsetSumAgainstEveryOrder:
    # the subset DP must equal the plain sum over all (m + 2)! time orders
    @pytest.mark.parametrize("m", range(4))
    def test_every_quartic_product(self, m):
        products = quartic_products(m)
        assert products
        assert_equals_every_order(products, m)

    def test_quartic_order_four_sample(self):
        sample = quartic_products(4)[::50]
        assert len(sample) > 20
        assert_equals_every_order(sample, 4)

    def test_graphs_differing_in_self_loops(self, monkeypatch):
        # one skeleton, so one shared ordered sum; the loops change only the
        # 2^-|E| and the alpha power
        skeleton = [("s1", "tau1"), ("s1", "s2"), ("s2", "tau2"), ("tau1", "tau2")]
        loops = [[], [("s1", "s1")], [("s1", "s1"), ("s2", "s2")], [("tau1", "tau1")] * 2]
        products = [counts_of(skeleton + extra, time_names(2)) for extra in loops]
        assert_equals_every_order(products, 2)
        summed, real = [], integrator._ordered_sums
        monkeypatch.setattr(integrator, "_ordered_sums", lambda batch, n: summed.extend(batch) or real(batch, n))
        wedge_integral(dict.fromkeys(products, F(1)), 2)
        assert len(summed) == 1

    def test_unknown_loop_is_rejected_after_its_skeleton_is_summed(self):
        skeleton = [("s1", "tau1"), ("s1", "tau2"), ("s2", "tau1"), ("s2", "tau2")]
        wedge_integral(graph(skeleton, m=2), 2)
        # a loop at s3 needs the edge counts over three vertices
        with pytest.raises(ValueError, match="15 edge counts does not fit 2 vertices"):
            wedge_integral(graph(skeleton + [("s3", "s3")], m=3), 2)

    def test_divergent_skeleton_raises_on_every_call(self):
        # no ordered sum kept from one call may hide the exception on the next
        for _ in range(3):
            with pytest.raises(DivergentIntegral):
                wedge_integral(graph([("s1", "s2"), ("tau1", "tau2")], m=2), 2)
            with pytest.raises(DivergentIntegral):
                wedge_integral(graph([("s1", "s2"), ("s1", "s1"), ("tau1", "tau2")], m=2), 2)


class TestBatchedPass:
    # one subset pass over a batch of graphs against each graph's own pass
    def test_every_quartic_order_four_skeleton(self):
        batches = {}  # n -> one graph per skeleton, in first-seen order
        for m in range(5):
            skeleton_of = integrator._skeleton(m + 2)
            for counts in quartic_products(m):
                batches.setdefault(m + 2, {}).setdefault(skeleton_of(counts), counts)
        assert sum(map(len, batches.values())) == 1784
        for n, graphs in batches.items():
            batch = list(graphs.values())
            assert integrator._ordered_sums(batch, n) == [ordered_sum(counts, n) for counts in batch], n

    def test_pieces_of_a_large_batch(self):
        # at n = 6 a pass holds 256 graphs, so 600 graphs run in three pieces
        batch = sorted(set(quartic_products(4)))[:600]
        assert integrator._ordered_sums(batch, 6) == [ordered_sum(counts, 6) for counts in batch]

    @pytest.mark.parametrize("n", [2, 5])
    def test_empty_batch(self, n):
        assert integrator._ordered_sums([], n) == []

    def test_first_divergent_graph_names_itself(self):
        good = graph([("s1", "tau1"), ("s1", "tau2"), ("s2", "tau1"), ("s2", "tau2")], m=2)
        bubble = graph([("s1", "s2"), ("s1", "s2"), ("tau1", "tau2")], m=2)
        looped = graph([("s1", "s2"), ("s1", "s2"), ("s1", "s1"), ("tau1", "tau2")], m=2)  # bubble's skeleton
        split = graph([("s1", "tau1"), ("s2", "tau2")], m=2)
        batch = [*good, *bubble, *looped, *split]
        with pytest.raises(DivergentIntegral) as want:
            ordered_sum(batch[1], 4)
        with pytest.raises(DivergentIntegral) as got:
            integrator._ordered_sums(batch, 4)
        assert str(got.value) == str(want.value)
        with pytest.raises(DivergentIntegral) as got:
            wedge_integral(dict.fromkeys(batch, F(1)), 2)
        assert str(got.value) == str(want.value)


def loop_free_skeletons(model, m):
    """The loop-free skeleton of every graph of grade m of the model's
    components, as edge counts over time_names(m)."""
    space = ParameterSpace.parse(model)
    skeletons = set()
    for a, b in itertools.combinations_with_replacement(space.labels, 2):
        k_a, k_b = space.derivative(a)[0], space.derivative(b)[0]
        for counts in connected_grade(k_a, k_b, m, space.potential):
            skeletons.add(counts_of([(x, y) for x, y in edge_names(counts) if x != y], time_names(m)))
    return sorted(skeletons)


class TestTimeReversal:
    # t -> -t with tau1 and tau2 swapped maps the orders with tau1 before
    # tau2 onto themselves, so a skeleton and its tau-swapped image have one
    # ordered sum
    @pytest.mark.parametrize(
        "model,m", [("quartic", m) for m in range(5)] + [("monomial:6", m) for m in range(4)]
    )
    def test_swapping_tau1_and_tau2_keeps_each_ordered_sum(self, model, m):
        swapped_names = [*time_names(m)[:m], TAU2, TAU1]
        skeletons = loop_free_skeletons(model, m)
        assert skeletons
        for counts in skeletons:
            swapped = counts_of(edge_names(counts), swapped_names)
            assert wedge_integral({swapped: F(1)}, m) == wedge_integral({counts: F(1)}, m), edge_names(counts)


class TestGreenFunction:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_jump_condition(self, alpha):
        # (d^2/dt^2 - alpha) D = -delta: the slope of D jumps by -1 across
        # the diagonal
        eps = 1e-7
        t0 = 0.4
        right = (propagator_value(alpha, t0 + 2 * eps, t0) - propagator_value(alpha, t0, t0)) / (2 * eps)
        left = (propagator_value(alpha, t0, t0) - propagator_value(alpha, t0 - 2 * eps, t0)) / (2 * eps)
        assert right - left == pytest.approx(-1.0, rel=1e-5)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_homogeneous_away_from_diagonal(self, alpha):
        h = 1e-5
        t, t0 = 1.3, 0.2
        second = (
            propagator_value(alpha, t + h, t0)
            - 2 * propagator_value(alpha, t, t0)
            + propagator_value(alpha, t - h, t0)
        ) / h**2
        assert second == pytest.approx(alpha * propagator_value(alpha, t, t0), rel=1e-4)
