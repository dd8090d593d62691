"""Wick contractions of free Gaussian moments <q^n1(t1) ... q^nk(tk)>.

Moments of the free Euclidean oscillator factorize into sums over perfect
pairings of the q-factors.  Legs attached to the same time are
interchangeable, so a diagram is fully described by how many propagators
join each pair of times (plus self-loops).  Diagrams are enumerated directly
in that collapsed form; the pairing multiplicity of a diagram with n_i legs
at time i, e_ij edges between times i and j and e_ii self-loops is

    prod_i n_i! / ( prod_{i<j} e_ij! * prod_i 2**e_ii e_ii! ).

A diagram over k times is the tuple of its edge counts e_ij for i <= j, row
by row (`EdgeCounts`), and stays in that form through the symbolic route.
`edge_names` names the times s_1..s_m, tau1 and tau2 where a user reads a
diagram: the `diagrams` files, the `--verbose` dump and error messages.

A constant source J needs no separate treatment: it is the degree-1 vertex
of the potential V = q.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, repeat
from math import factorial, isqrt, prod
from operator import itemgetter, sub
from typing import Callable, Sequence

__all__ = ["EdgeCounts", "walk_pairings", "edge_names", "edges_to_dot"]

# a diagram over times 0..k-1 as its edge counts e_ij for i <= j, row by row:
# (e_00, e_01, ..., e_11, ...); e_ii counts the self-loops of time i
EdgeCounts = tuple[int, ...]


def edge_names(counts: EdgeCounts) -> tuple[tuple[str, str], ...]:
    """The edges of a diagram over s_1..s_m, tau1 and tau2 (times 0..m+1) as
    sorted name pairs, sorted: time i is s{i+1}, m is tau1 and m+1 is tau2."""
    pairs, in_order = _named_layout(len(counts))
    edges = tuple(chain.from_iterable(map(repeat, pairs, counts)))
    return edges if in_order else tuple(sorted(edges))


@lru_cache(maxsize=None)  # one layout per vertex count
def _named_layout(size: int) -> tuple[tuple[tuple[str, str], ...], bool]:
    """The name pair of each position of a counts tuple of this size, and
    whether the pairs are in name order (up to s9)."""
    n = (isqrt(8 * size + 1) - 1) // 2
    names = [f"s{i}" for i in range(1, n - 1)] + ["tau1", "tau2"]
    pairs = tuple(tuple(sorted(pair)) for pair in combinations_with_replacement(names[:n], 2))
    return pairs, list(pairs) == sorted(pairs)


def walk_pairings(
    legs: Sequence[int],
    rank: Callable[[int, list[int]], object] | None = None,
    connected: bool = False,
) -> list[tuple[EdgeCounts, int, bool]]:
    """Every pairing class of legs[i] q-factors at the i-th time, as
    (edge counts, multiplicity, tied), in walk order.

    `rank(i, row)` breaks the symmetry between interchangeable times: row[j]
    counts the edges between the i-th and j-th time (row[i] the self-loops),
    and the walk skips every diagram in which a time's rank sorts below the
    previous ranked time's (None leaves a time unranked).  With a rank that
    relabelling preserves, every class of diagrams under relabelling keeps at
    least its sorted labelling.  A diagram is `tied` when two of its ranked
    times share a rank: other labellings of its class may then sort too.

    With `connected`, only the diagrams that join every time into one
    component are returned.  The walk places the times in order and drops a
    branch as soon as the component of the time just placed has no edge left
    to a later time: that component can no longer grow, so every diagram
    below the branch is disconnected.
    """
    if any(c < 1 for c in legs):
        raise ValueError("every time needs >= 1 leg")
    if not legs:
        return [((), 1, False)]  # the empty product
    k = len(legs)
    fact = [factorial(i) for i in range(max(legs) + 1)]
    total = prod(fact[c] for c in legs)
    links = [[0] * k for _ in range(k)]
    found: list[tuple[EdgeCounts, int, bool]] = []
    last = k - 1

    # assign node i's remaining legs rest[0] to self-loops and edges toward
    # the nodes after it, which have rest[1:] legs left; `upper` holds the
    # earlier nodes' edge counts, and the denominator of the multiplicity
    # grows with them.  Node i's edges to earlier nodes are copied into its
    # row of `links` on entry, so the row is complete once node i is placed.
    # The last node can only close its legs into self-loops.
    def walk(i: int, rest: tuple[int, ...], upper: tuple[int, ...], denom: int, floor, tied: bool):
        n_i, later, row = rest[0], rest[1:], links[i]
        row[:i] = map(itemgetter(i), links[:i])
        for self_i in range(n_i // 2 if i == last else 0, n_i // 2 + 1):
            if connected and 2 * self_i == n_i and i < last and closes(i):
                continue  # no edge leaves node i's component: disconnected below
            head, head_denom = upper + (self_i,), denom * fact[self_i] << self_i
            row[i] = self_i
            for combo, combo_denom in _compositions(n_i - 2 * self_i, later):
                row[i + 1 :] = combo
                r = rank(i, row) if rank else None
                if r is None:
                    r, tie = floor, tied
                elif floor is not None and r < floor:
                    continue
                else:
                    tie = tied or r == floor
                if i == last:
                    found.append((head, total // head_denom, tie))
                else:
                    walk(i + 1, tuple(map(sub, later, combo)), head + combo, head_denom * combo_denom, r, tie)

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

    walk(0, tuple(legs), (), 1, None, False)
    return found


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


# -- diagram rendering -------------------------------------------------------


def edges_to_dot(edges: Sequence[tuple[str, str]], name: str, label: str) -> str:
    lines = [f"graph {name} {{", f'  label="{label}";']
    for n in sorted({e for pair in edges for e in pair}):
        lines.append(f"  {n};")
    for a, b in sorted(edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
