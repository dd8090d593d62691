"""Wick contractions of free Gaussian moments <q^n1(t1) ... q^nk(tk)>.

Moments of the free Euclidean oscillator factorize into sums over perfect
pairings of the q-factors.  Legs attached to the same time are
interchangeable, so a diagram is fully described by how many propagators
join each pair of times (plus self-loops).  Diagrams are enumerated directly
in that collapsed form; the pairing multiplicity of a diagram with n_i legs
at time i, e_ij edges between times i and j and e_ii self-loops is

    prod_i n_i! / ( prod_{i<j} e_ij! * prod_i 2**e_ii e_ii! ).

A diagram over k times is the tuple of its edge counts e_ij for i <= j, row
by row (`EdgeCounts`), and stays in that form through the symbolic route;
`edge_layout` gives the pair of times of each position.  The times are
named s_1..s_m, tau1 and tau2 only where a user reads a diagram, from one
table per counts size that lists the positions in the order of their name
pairs: `edge_names` gives the named edges (the `--verbose` dump and error
messages), `name_key` sorts diagrams as their named edges sort, and
`connected_dot` writes a connected diagram as the DOT text of a `diagrams`
file.

The internal vertices s_1..s_m are interchangeable, so `connected_classes`
walks each class of connected diagrams under their relabelling from its
largest labelling with the vertices' ranks (`_walk_rank`) sorted, and
returns it once, under its canonical form (`_class_form`), with its
automorphism count |Aut|.  When tau1 and tau2 have as many legs, it returns
one class of each pair that swapping them (`mirrored`) maps onto each other,
flagged; `mirror_form` gives the other.

A constant source J needs no separate treatment: it is the degree-1 vertex
of the potential V = q.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, groupby, permutations, product, repeat
from math import factorial, isqrt, prod
from operator import itemgetter, mul, sub
from typing import Sequence

__all__ = ["EdgeCounts", "edge_layout", "connected_classes", "edge_names", "name_key", "connected_dot"]

# a diagram over times 0..k-1 as its edge counts e_ij for i <= j, row by row:
# (e_00, e_01, ..., e_11, ...); e_ii counts the self-loops of time i
EdgeCounts = tuple[int, ...]


@lru_cache(maxsize=None)  # one layout per time count
def edge_layout(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The layout of the edge counts over n times: the times (i, j), i <= j,
    of each position, and [i][j], the position of the edges between times i
    and j."""
    pairs = tuple(combinations_with_replacement(range(n), 2))
    position = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        position[i][j] = position[j][i] = p
    return pairs, tuple(map(tuple, position))


def edge_names(counts: EdgeCounts) -> tuple[tuple[str, str], ...]:
    """The edges of a diagram over s_1..s_m, tau1 and tau2 (times 0..m+1) as
    sorted name pairs, sorted: time i is s{i+1}, m is tau1 and m+1 is tau2."""
    order, pairs, _, _ = _named_table(len(counts))
    return tuple(chain.from_iterable(map(repeat, pairs, map(counts.__getitem__, order))))


def name_key(counts: EdgeCounts) -> tuple[int, ...]:
    """A key that sorts diagrams as their `edge_names` sort: the name-order
    rank of each edge position, repeated by its count."""
    order = _named_table(len(counts))[0]
    return tuple(chain.from_iterable(map(repeat, range(len(order)), map(counts.__getitem__, order))))


def connected_dot(counts: EdgeCounts, name: str, label: str) -> str:
    """The Graphviz DOT text of a connected diagram: every time, since each
    has an edge, then one line per edge, both in name order."""
    order, _, nodes, lines = _named_table(len(counts))
    edges = "".join(map(mul, lines, map(counts.__getitem__, order)))
    return f'graph {name} {{\n  label="{label}";\n{nodes}{edges}}}\n'


@lru_cache(maxsize=None)  # one table per counts size
def _named_table(size: int) -> tuple[tuple[int, ...], tuple[tuple[str, str], ...], str, tuple[str, ...]]:
    """The positions of a counts tuple of this size sorted by their name
    pairs, those pairs, the DOT lines of the times in name order, and the DOT
    line of each pair."""
    n = (isqrt(8 * size + 1) - 1) // 2
    names = [f"s{i}" for i in range(1, n - 1)] + ["tau1", "tau2"]
    named = sorted((tuple(sorted((names[i], names[j]))), p) for p, (i, j) in enumerate(edge_layout(n)[0]))
    pairs = tuple(pair for pair, _ in named)
    nodes = "".join(f"  {x};\n" for x in sorted(names))
    return tuple(p for _, p in named), pairs, nodes, tuple(f"  {a} -- {b};\n" for a, b in pairs)


def connected_classes(degrees: Sequence[int], k_a: int, k_b: int) -> dict[EdgeCounts, tuple[int, int, bool]]:
    """Every class of connected pairings of s_1..s_m, with degrees[i] legs at
    s_{i+1}, tau1 with k_a legs and tau2 with k_b, under relabelling of
    s_1..s_m, as {canonical edge counts: (multiplicity, |Aut|, paired)} in
    walk order.  The degrees must be nondecreasing.

    The walk places the times in order s_1..s_m, tau1; tau2's remaining legs
    then close into self-loops.  It skips every diagram in which a vertex's
    rank sorts below the previous vertex's, or ties it and swapping the two
    makes rows 0..i larger, so the largest rank-sorted labelling of each class
    stays.  It drops a branch as soon as the component of the time just placed
    has no edge left to a later time, and as soon as tau1 and tau2 have too
    few legs left for the later vertices of the same degree, whose ranks are
    no smaller: every diagram below it is disconnected or out of order.
    Neither cut changes which diagrams are kept.  A diagram whose ranks all differ
    is its own canonical form, with |Aut| = 1; one with tied ranks is put in
    the form of `_class_form`, on which all its tied labellings land.  When
    k_a = k_b, the tau1 <-> tau2 mirror maps a class onto one with the same
    multiplicity and |Aut|, and of two such classes only the one with the
    smaller sorted ranks, or on a tie the smaller form, is walked, `paired`.
    """
    legs = (*degrees, k_a, k_b)
    k = len(legs)
    m = k - 2
    fact = [factorial(i) for i in range(max(legs) + 1)]
    total = prod(fact[c] for c in legs)
    links = [[0] * k for _ in range(k)]
    ranks = [None] * m
    # s_{i+1} and the later s-vertices of its degree
    alike = [degrees[i:].count(d) for i, d in enumerate(degrees)]
    found: dict[EdgeCounts, tuple[int, int, bool]] = {}

    # assign node i's remaining legs rest[0] to self-loops and edges toward
    # the nodes after it, which have rest[1:] legs left; `upper` holds the
    # earlier nodes' edge counts, and the denominator of the multiplicity
    # grows with them.  Node i's edges to earlier nodes are copied into its
    # row of `links` on entry, so the row is complete once node i is placed.
    # `tied` is whether two ranks met, `paired` None until the mirror rule
    # decides.  Once tau1 (node m) is placed, tau2 can only close its legs
    # into self-loops, so the diagram is complete there.
    def walk(i: int, rest: tuple[int, ...], upper: tuple[int, ...], denom: int, tied: bool, paired):
        n_i, later, row = rest[0], rest[1:], links[i]
        row[:i] = map(itemgetter(i), links[:i])
        floor = ranks[i - 1][:3] if 0 < i < m else ()  # degree and edges to tau1, tau2
        for self_i in range(n_i // 2 + 1):
            if 2 * self_i == n_i and closes(i):
                continue  # no edge leaves node i's component: disconnected below
            head, head_denom = upper + (self_i,), denom * fact[self_i] << self_i
            row[i] = self_i
            for combo, combo_denom in _compositions(n_i - 2 * self_i, later):
                tie, pair = tied, paired
                if i < m:
                    if (degrees[i], combo[m - 1 - i], combo[m - i]) < floor:
                        continue  # the rank's first fields already sort below s_i's
                    # alike[i] vertices from s_{i+1} on take at least its edges
                    # to tau1, and those that take no more, its edges to tau2
                    spare = later[m - 1 - i] - combo[m - 1 - i] * alike[i]
                    if spare < 0 or (alike[i] - spare) * combo[m - i] > later[m - i]:
                        continue
                    row[i + 1 :] = combo
                    r = ranks[i] = _walk_rank(m, i, row)
                    if i and r <= ranks[i - 1]:
                        prev = links[i - 1]
                        if r < ranks[i - 1] or row[: i - 1] + row[i + 1 :] > prev[: i - 1] + prev[i + 1 :]:
                            continue  # out of order, or a swap with s_{i-1} makes rows 0..i larger
                        tie = True
                    if pair is None and (r[0], r[2], r[1], *r[3:]) < ranks[0]:
                        continue  # the mirror's first rank is smaller: it is the one walked
                    if i == m - 1 and pair is None:
                        flipped = sorted((d, b, a, *tail) for d, a, b, *tail in ranks)
                        if flipped < ranks:
                            continue
                        pair = True if ranks < flipped else None
                    walk(i + 1, tuple(map(sub, later, combo)), head + combo, head_denom * combo_denom, tie, pair)
                    continue
                loops, odd = divmod(later[0] - combo[0], 2)
                if odd:
                    continue
                counts = head + combo + (loops,)
                form, automorphisms = _class_form(counts, m) if tie else (counts, 1)
                if pair is None and form not in found:
                    twin = mirror_form(counts, m)
                    if twin < form:
                        continue
                    pair = twin != form
                found.setdefault(form, (total // (head_denom * combo_denom * fact[loops] << loops), automorphisms, pair))

    # whether node i's component among nodes 0..i has no edge to a later node
    # when node i itself sends none; the earlier nodes' rows are complete
    def closes(i: int) -> bool:
        seen, stack = {i}, [i]
        while stack:
            j = stack.pop()
            row = links[j]
            if j != i and any(row[i + 1 :]):
                return False
            for other in range(i):
                if row[other] and other not in seen:
                    seen.add(other)
                    stack.append(other)
        return True

    walk(0, legs, (), 1, False, None if k_a == k_b else False)
    return found


def mirror_form(counts: EdgeCounts, m: int) -> EdgeCounts:
    """The canonical form of the tau1 <-> tau2 mirror of a connected diagram over s_1..s_m."""
    return _class_form(mirrored(m + 2)(counts), m)[0]


@lru_cache(maxsize=None)  # one permutation per time count
def mirrored(n: int) -> itemgetter:
    """Maps edge counts over n times to those with tau1 and tau2 swapped."""
    pairs, position = edge_layout(n)
    swap = [*range(n - 2), n - 1, n - 2]
    return itemgetter(*(position[swap[i]][swap[j]] for i, j in pairs))


@lru_cache(maxsize=None)  # every walk asks for the same few (total, caps)
def _compositions(total: int, caps: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Ways to write `total` as an ordered sum bounded by caps, each with the
    product of the factorials of its parts."""
    if not caps:
        return (((), 1),) if total == 0 else ()
    return tuple(
        ((first,) + rest, factorial(first) * denom)
        for first in range(min(total, caps[0]) + 1)
        for rest, denom in _compositions(total - first, caps[1:])
    )


def _walk_rank(m: int, i: int, row: list[int]) -> tuple:
    """Rank of the vertex s_{i+1} of a diagram over s_1..s_m, tau1 and tau2,
    kept by relabelling s_1..s_m.

    row lists the vertex's edges to s_1..s_m, tau1 and tau2.  The rank is the
    degree, then the edges to tau1, the edges to tau2, the self-loops and the
    sorted multiplicities to the other vertices.  The degree comes first, so
    the rank-sorted labelling of a class also has nondecreasing degrees.
    """
    others = row[:m]
    del others[i]
    others.sort()
    return (sum(row) + row[i], row[m], row[m + 1], row[i], others)


def _class_form(counts: EdgeCounts, m: int) -> tuple[EdgeCounts, int]:
    """Canonical edge counts and automorphism count of a connected diagram
    given by its edge counts over s_1..s_m (0..m-1), tau1 (m) and tau2 (m + 1).

    The form is the largest relabelled counts tuple over the relabellings
    that keep the vertices' ranks (`_walk_rank`) sorted, so isomorphic
    diagrams share it, and the number of relabellings that reach it is the
    order of the diagram's automorphism group.  Of two edge multisets of one
    size, the one with the smaller sorted edge list has the larger counts
    tuple, so this is the minimal relabelled edge multiset.  When no two
    ranks tie, one relabelling keeps the ranking: the one that numbers the
    vertices in rank order, with |Aut| = 1.
    """
    position = edge_layout(m + 2)[1]
    rank = [_walk_rank(m, i, [counts[p] for p in row]) for i, row in enumerate(position[:m])]
    ranked = sorted(range(m), key=rank.__getitem__)
    ties = tuple(tuple(group) for _, group in groupby(ranked, key=rank.__getitem__))
    forms = [relabel(counts) for relabel in _relabellings(m + 2, ties)]
    form = max(forms)
    return form, forms.count(form)


@lru_cache(maxsize=None)  # one set per rank order and tie pattern: the walk meets few
def _relabellings(n: int, ties: tuple[tuple[int, ...], ...]) -> tuple[itemgetter, ...]:
    """Maps edge counts over n times to those of every relabelling that
    numbers the vertices of `ties`, groups of s-vertices in rank order, group
    by group, in any order within each group; tau1 and tau2 keep theirs."""
    pairs, position = edge_layout(n)
    maps = []
    for choice in product(*map(permutations, ties)):
        old = [*chain.from_iterable(choice), n - 2, n - 1]  # the time that becomes time i
        maps.append(itemgetter(*(position[old[i]][old[j]] for i, j in pairs)))
    return tuple(maps)
