"""Bipartite matching between unassigned agents and leftover pieces.

The final solver step: after the guessed agents take their pieces, the
remaining agents must be paired with the remaining single-interval
pieces.  An agent is compatible with a piece worth at least its best
piece of the fixed partition (the caller's ``best`` table): taking it
envies nobody, so a perfect matching completes the assignment.

Sizes are bounded by the number of agents, so a plain augmenting-path
search with deterministic scan order is used.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from efgc.model import Instance, Piece, piece_utility


@dataclass(frozen=True)
class Bigraph:
    left: tuple[str, ...]  # agent ids
    right: tuple[int, ...]  # piece indices
    edges: frozenset[tuple[int, int]]  # (left index, right index)


def compatibility_graph(
    instance: Instance,
    best: Mapping[str, Fraction],
    unassigned_agents: Sequence[str],
    leftover_pieces: Sequence[Piece],
) -> Bigraph:
    """Join agent a to piece p iff a values p at least at ``best[a]``, the
    most a values any piece of the partition (so taking p envies nobody)."""
    edges = set()
    for li, agent in enumerate(unassigned_agents):
        for ri, piece in enumerate(leftover_pieces):
            if piece_utility(agent, piece, instance) >= best[agent]:
                edges.add((li, ri))
    return Bigraph(
        tuple(unassigned_agents), tuple(range(len(leftover_pieces))), frozenset(edges)
    )


def _augment(adj: list[list[int]], right_match: list, li: int, seen: set[int]) -> bool:
    """Look for an augmenting path from left vertex ``li``, in index order."""
    for ri in adj[li]:
        if ri in seen:
            continue
        seen.add(ri)
        if right_match[ri] is None or _augment(adj, right_match, right_match[ri], seen):
            right_match[ri] = li
            return True
    return False


def max_bipartite_matching(g: Bigraph) -> dict[int, int]:
    """Maximum-cardinality matching as a left-index -> right-index map.

    Augmenting paths are explored in index order, so the result is
    deterministic for a fixed input.
    """
    adj = [
        [ri for ri in range(len(g.right)) if (li, ri) in g.edges]
        for li in range(len(g.left))
    ]
    right_match: list[int | None] = [None] * len(g.right)
    for li in range(len(g.left)):
        _augment(adj, right_match, li, set())
    return {li: ri for ri, li in enumerate(right_match) if li is not None}


def is_perfect(g: Bigraph, matching: dict[int, int]) -> bool:
    return len(matching) == len(g.left) == len(g.right)
