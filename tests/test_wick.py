import random
from fractions import Fraction as F
from math import factorial, prod

import pytest

from oracles import (
    GaussianModel,
    brute_force_diagrams,
    connected_grade,
    connected_pair_correlator,
    counts_of,
    diagram_to_dot,
    edges_to_dot,
    enumerate_pairings,
    moment,
    named_edges,
    product_of_sums,
    time_names,
)
from oscqgt.qgt import ParameterSpace
from oscqgt.scalar_algebra import ScalarSeries
from oscqgt.wick import connected_dot, edge_names, name_key

FREE = GaussianModel(source_j=False)
SOURCED = GaussianModel(source_j=True)

MEAN = ScalarSeries.term(-1, alpha_half_pow=-2, j_pow=1)  # <q> = -J/alpha


@pytest.mark.parametrize("n", range(1, 7))
def test_pairing_count_double_factorial(n):
    diagrams = enumerate_pairings({"t": 2 * n})
    assert sum(d.multiplicity for d in diagrams) == prod(range(2 * n - 1, 0, -2))


def test_two_by_two_diagrams():
    diagrams = enumerate_pairings({"tau1": 2, "tau2": 2})
    by_edges = {d.edges: d.multiplicity for d in diagrams}
    assert by_edges == {
        (("tau1", "tau2"), ("tau1", "tau2")): 2,
        (("tau1", "tau1"), ("tau2", "tau2")): 1,
    }


def test_single_propagator():
    diagrams = enumerate_pairings({"tau1": 1, "tau2": 1})
    assert len(diagrams) == 1
    assert diagrams[0].edges == (("tau1", "tau2"),)
    assert diagrams[0].multiplicity == 1


def test_quartic_vertex_vacuum_factor():
    # all three pairings of four equal-time legs give the same self-loop pair
    diagrams = enumerate_pairings({"s": 4})
    assert len(diagrams) == 1
    assert diagrams[0].edges == (("s", "s"), ("s", "s"))
    assert diagrams[0].multiplicity == 3


@pytest.mark.parametrize(
    "legs",
    [
        {"tau1": 2, "tau2": 2},
        {"tau1": 4, "tau2": 2},
        {"tau1": 2, "tau2": 2, "s1": 4},
        {"tau1": 1, "tau2": 3, "s1": 2},
        {"tau1": 3, "s1": 3},
    ],
)
@pytest.mark.parametrize("with_mean", [False, True])
def test_matches_brute_force_enumeration(legs, with_mean):
    # A leg routed to the constant source's mean is an edge to a degree-1
    # vertex: with M such vertices j1..jM (no edge between two of them),
    # collapsing them to mean legs over their M! labellings gives the
    # brute-force mean-leg classes.
    total = sum(legs.values())
    got = {}
    for n_sources in range(total % 2, total + 1, 2) if with_mean else [0]:
        sources = [f"j{i}" for i in range(1, n_sources + 1)]
        points = {**legs, **dict.fromkeys(sources, 1)}
        for d in enumerate_pairings(points):
            if any(a in sources and b in sources for a, b in d.edges):
                continue
            edges = tuple(e for e in d.edges if e[0] not in sources)
            means = tuple(sorted(b for a, b in d.edges if a in sources))
            key = (edges, means)
            got[key] = got.get(key, 0) + F(d.multiplicity, factorial(n_sources))
    assert got == brute_force_diagrams(legs, with_mean=with_mean)


@pytest.mark.parametrize("power", [1, 3, 5])
def test_odd_free_moments_vanish(power):
    assert moment(FREE, {"t": power}) == {}


def test_one_point_function_with_source():
    terms = moment(SOURCED, {"t": 1})
    assert len(terms) == 1
    [(edges, coeff)] = terms.items()
    assert edges == ()
    assert coeff == MEAN


def test_sourced_two_point_subtraction():
    # <q q> - <q><q> = D(tau1, tau2): the mean contributions cancel
    connected = connected_pair_correlator(
        SOURCED, {"tau1": 1}, {"tau2": 1}
    )
    assert len(connected) == 1
    [(edges, coeff)] = connected.items()
    assert edges == (("tau1", "tau2"),)
    assert coeff == ScalarSeries.one()


def test_connected_q2_q2_free():
    connected = connected_pair_correlator(
        FREE, {"tau1": 2}, {"tau2": 2}
    )
    assert len(connected) == 1
    [(edges, coeff)] = connected.items()
    assert edges == (("tau1", "tau2"), ("tau1", "tau2"))
    assert coeff == ScalarSeries.term(2)


def test_connected_q2_q_with_source():
    connected = connected_pair_correlator(
        SOURCED, {"tau1": 2}, {"tau2": 1}
    )
    assert len(connected) == 1
    [(edges, coeff)] = connected.items()
    assert edges == (("tau1", "tau2"),)
    assert coeff == MEAN * 2


def test_clusters_sharing_a_time_variable():
    # artificial split of one cluster: the disconnected algebra still cancels
    connected = connected_pair_correlator(
        SOURCED, {"tau1": 1}, {"tau1": 1}
    )
    assert len(connected) == 1
    [(edges, coeff)] = connected.items()
    assert edges == (("tau1", "tau1"),)
    assert coeff == ScalarSeries.one()


def _relabel(products, mapping):
    out = []
    for edges, coeff in products.items():
        edges = tuple(
            tuple(sorted((mapping.get(a, a), mapping.get(b, b)))) for a, b in edges
        )
        out.append((tuple(sorted(edges)), coeff))
    return sorted(out, key=lambda x: x[0])


@pytest.mark.parametrize(
    "legs_a,legs_b",
    [
        ({"tau1": 2}, {"tau2": 2}),
        ({"tau1": 3}, {"tau2": 1}),
        ({"tau1": 4}, {"tau2": 2}),
        ({"tau1": 1}, {"tau2": 3}),
    ],
)
@pytest.mark.parametrize("model", [FREE, SOURCED])
def test_cluster_swap_is_a_relabeling(legs_a, legs_b, model):
    ab = connected_pair_correlator(model, legs_a, legs_b)
    swap_a = {k.replace("tau1", "tau2"): v for k, v in legs_a.items()}
    swap_b = {k.replace("tau2", "tau1"): v for k, v in legs_b.items()}
    ba = connected_pair_correlator(model, swap_b, swap_a)
    swap = {"tau1": "tau2", "tau2": "tau1"}
    assert _relabel(ab, swap) == _relabel(ba, {})


def _component_nodes(edges):
    comps = []
    for a, b in edges:
        hit = [c for c in comps if a in c or b in c]
        merged = {a, b}.union(*hit) if hit else {a, b}
        comps = [c for c in comps if c not in hit] + [merged]
    return comps


@pytest.mark.parametrize(
    "legs_a,legs_b",
    [
        ({"tau1": 2}, {"tau2": 2}),
        ({"tau1": 2}, {"tau2": 4}),
        ({"tau1": 4}, {"tau2": 4}),
        ({"tau1": 3}, {"tau2": 3}),
        ({"tau1": 4}, {"tau2": 6}),
    ],
)
def test_subtraction_equals_connectivity_filter(legs_a, legs_b):
    # the subtracted correlator must equal the linked-diagram part of the
    # joint moment, computed here with an independent component filter
    connected = connected_pair_correlator(FREE, legs_a, legs_b)
    joint = moment(FREE, {**legs_a, **legs_b})
    filtered = {}
    for edges, coeff in joint.items():
        linked = any(
            "tau1" in comp and "tau2" in comp for comp in _component_nodes(edges)
        )
        if linked:
            filtered[edges] = coeff
    assert connected == filtered


def test_moment_with_source_reduces_to_free_at_zero_mean():
    # J = 0 evaluation of the sourced moment equals the free moment
    pts = {"tau1": 2, "tau2": 2}
    sourced = moment(SOURCED, pts)
    free = moment(FREE, pts)
    for edges, coeff in sourced.items():
        j_free = ScalarSeries.from_terms(t for t in coeff.terms if t.j_pow == 0)
        if edges in free:
            assert j_free == free[edges]
        else:
            assert j_free.is_zero


def test_product_of_sums_merges_duplicates():
    a = moment(FREE, {"tau1": 2})
    combined = product_of_sums(a, a)
    assert len(combined) == 1
    assert list(combined.values()) == [ScalarSeries.one()]


def test_edge_names():
    # times 0..m+1 are s1..sm, tau1, tau2; the pairs and the edges are sorted
    assert edge_names((0, 2, 0)) == (("tau1", "tau2"), ("tau1", "tau2"))
    assert edge_names((1, 1, 0, 0, 0, 1)) == (("s1", "s1"), ("s1", "tau1"), ("tau2", "tau2"))
    # past s9 the names sort out of index order: s10 < s2
    edges = (("s10", "tau1"), ("s2", "s2"), ("s2", "s9"))
    counts = counts_of(edges, time_names(10))
    assert edge_names(counts) == edges
    full = edge_names((1,) * len(counts))
    assert list(full) == sorted(full) and len(full) == len(counts)


def test_dot_export():
    diagram = enumerate_pairings({"tau1": 2, "tau2": 2})[1]
    dot = diagram_to_dot(diagram, "pair")
    assert "graph pair" in dot
    assert dot.count("tau1 -- tau2") == 2
    assert "multiplicity 2" in dot


def _twelve_time_graphs() -> list:
    """Connected graphs over s1..s10, tau1 and tau2, where the names sort out
    of index order: a chain in index order, then seeded random spanning trees
    with extra edges and self-loops."""
    names = time_names(10)
    graphs = [counts_of(zip(names, names[1:]), names)]
    rng = random.Random(12)
    for _ in range(40):
        shuffled = rng.sample(names, len(names))
        edges = [(name, rng.choice(shuffled[:i])) for i, name in enumerate(shuffled) if i]
        edges += [tuple(rng.choices(names, k=2)) for _ in range(rng.randrange(8))]
        graphs.append(counts_of(edges, names))
    return graphs


def _grade(model: str, a: str, b: str, order: int) -> dict:
    space = ParameterSpace.parse(model)
    (k_a, _), (k_b, _) = space.derivative(a), space.derivative(b)
    return connected_grade(k_a, k_b, order, space.potential)


@pytest.mark.parametrize(
    "graphs",
    [
        pytest.param(lambda: list(_grade("quartic", "alpha", "lambda", 4)), id="quartic-alpha-lambda-o4"),
        pytest.param(lambda: list(_grade("monomial:6", "lambda", "lambda", 3)), id="monomial6-lambda-lambda-o3"),
        pytest.param(_twelve_time_graphs, id="twelve-times"),
    ],
)
def test_dot_table_matches_the_named_reference(graphs):
    # the one table per counts size names, sorts and renders as the edges
    # named one by one do, past s9 too, where s10 sorts before s2
    graphs = graphs()
    assert sorted(graphs, key=name_key) == sorted(graphs, key=named_edges)
    for idx, counts in enumerate(graphs):
        edges, name, label = named_edges(counts), f"g_{idx}", f"coefficient {idx}/7"
        assert edge_names(counts) == edges
        assert connected_dot(counts, name, label) == edges_to_dot(edges, name, label)
