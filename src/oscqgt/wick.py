"""Wick contractions of free Gaussian moments <q^n1(t1) ... q^nk(tk)>.

Moments of the free Euclidean oscillator factorize into sums over perfect
pairings of the q-factors.  Legs attached to the same time are
interchangeable, so a diagram is fully described by how many propagators
join each pair of times (plus self-loops).  Diagrams are enumerated directly
in that collapsed form; the pairing multiplicity of a diagram with n_i legs
at time i, e_ij edges between times i and j and e_ii self-loops is

    prod_i n_i! / ( prod_{i<j} e_ij! * prod_i 2**e_ii e_ii! ).

A constant source J needs no separate treatment: it is the degree-1 vertex
of the potential V = q.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Callable, Mapping, Sequence

from .scalar_algebra import Frozen

__all__ = [
    "WickDiagram",
    "enumerate_pairings",
    "edges_to_dot",
]


class WickDiagram(Frozen):
    """One pairing class: a multiset of edges and its multiplicity.

    `tied` marks a diagram of a ranked walk in which two times share a rank.
    """

    __slots__ = ("edges", "multiplicity", "tied")

    def __init__(self, edges: tuple[tuple[str, str], ...], multiplicity: int = 1, tied: bool = False):
        _set = object.__setattr__  # the class refuses assignment
        _set(self, "edges", edges)
        _set(self, "multiplicity", multiplicity)
        _set(self, "tied", tied)


def enumerate_pairings(
    legs: Mapping[str, int],
    rank: Callable[[int, list[int]], object] | None = None,
    connected: bool = False,
) -> list[WickDiagram]:
    """All pairing classes of legs[t] q-factors at each time t, with exact
    multiplicities.

    Multiplicities over all diagrams of 2n legs sum to (2n-1)!!.  An odd
    total yields an empty list (the moment is zero).

    `rank(i, row)` breaks the symmetry between interchangeable times: row[j]
    counts the edges between the i-th and j-th time in name order (row[i] the
    self-loops), and the walk skips every diagram in which a time's rank sorts
    below the previous ranked time's (None leaves a time unranked).  With a
    rank that relabelling preserves, every class of diagrams under relabelling
    keeps at least its sorted labelling.  A diagram is `tied` when two of its
    ranked times share a rank: other labellings of its class may then sort
    too.

    With `connected`, only the diagrams that join every time into one
    component are returned.  The walk places the times in name order and
    drops a branch as soon as the component of the time just placed has no
    edge left to a later time: that component can no longer grow, so every
    diagram below the branch is disconnected.
    """
    if any(c < 1 for c in legs.values()):
        raise ValueError("every time needs >= 1 leg")
    names = sorted(legs)
    counts = [legs[n] for n in names]
    k = len(names)
    fact = [factorial(i) for i in range(max(counts, default=0) + 1)]
    total = 1
    for c in counts:
        total *= fact[c]
    links = [[0] * k for _ in range(k)]
    diagrams: list[WickDiagram] = []

    # assign node i's remaining legs to self-loops and edges toward nodes
    # j > i; edges are appended in sorted order, and the denominator of the
    # multiplicity grows with them.  Row i of `links` is complete once node i
    # is placed: earlier nodes filled in its first i entries.
    def walk(i: int, remaining: list[int], edges: tuple, denom: int, floor, tied: bool):
        if i == k:
            q, rem = divmod(total, denom)
            assert rem == 0
            diagrams.append(WickDiagram(edges, q, tied))
            return
        n_i, name, row = remaining[i], names[i], links[i]
        later = tuple(remaining[i + 1 :])
        for self_i in range(n_i // 2 + 1):
            if connected and 2 * self_i == n_i and i < k - 1 and closes(i):
                continue  # no edge leaves node i's component: disconnected below
            head_edges = edges + ((name, name),) * self_i
            head_denom = denom * fact[self_i] * 2**self_i
            row[i] = self_i
            for combo in _compositions(n_i - 2 * self_i, later):
                row[i + 1 :] = combo
                r = rank(i, row) if rank else None
                if r is None:
                    r, tie = floor, tied
                elif floor is not None and r < floor:
                    continue
                else:
                    tie = tied or r == floor
                new_remaining = list(remaining)
                new_edges, new_denom = head_edges, head_denom
                for j, e in enumerate(combo, start=i + 1):
                    links[j][i] = e
                    if e:
                        new_edges += ((name, names[j]),) * e
                        new_denom *= fact[e]
                        new_remaining[j] -= e
                walk(i + 1, new_remaining, new_edges, new_denom, r, tie)

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

    walk(0, counts, (), 1, None, False)
    diagrams.sort(key=lambda d: d.edges)
    return diagrams


@lru_cache(maxsize=None)  # every walk asks for the same few (total, caps)
def _compositions(total: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Ways to write `total` as an ordered sum bounded by caps."""
    if not caps:
        return ((),) if total == 0 else ()
    return tuple(
        (first,) + rest
        for first in range(min(total, caps[0]) + 1)
        for rest in _compositions(total - first, caps[1:])
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
