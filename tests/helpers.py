"""Shared instance builders and random generators for the test suite."""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from efgc.generators import numpart_dp, solve_explicit_oracle
from efgc.linprog import EQ, GT, Feasible, strict_feasible
from efgc.model import Assignment, Graph, Instance, Variant, build_instance

F = Fraction


def dominant(values) -> bool:
    """Whether one value exceeds half the total of the multiset."""
    return 2 * max(values) > sum(values)


def numpart_family_solvable(values) -> bool:
    """Ground truth of the number-partitioning families in ``efgc.generators``.

    Without a dominant value the families encode equal-sum splitting; a
    dominant value always admits a division in which the other agent takes
    a leaf-side sliver of the dominant edge worth exactly half the total.
    """
    return numpart_dp(values) or dominant(values)


def singleton_interval_lengths_agree(assignment: Assignment) -> bool:
    """Check an envy-freeness consequence: agents whose whole share is a
    single interval inside a common edge must hold intervals of equal
    length (each would otherwise envy the longer one)."""
    by_edge: dict[str, set[Fraction]] = {}
    for _, piece in assignment.items():
        if len(piece.edge_pieces) == 1:
            ep = piece.edge_pieces[0]
            by_edge.setdefault(ep.edge, set()).add(ep.length)
    return all(len(lengths) == 1 for lengths in by_edge.values())


def evaluate_signs(forms, point) -> tuple[int, ...]:
    """The sign (-1, 0 or +1) of each form at ``point``."""
    return tuple((v > 0) - (v < 0) for v in (f.evaluate(point) for f in forms))


def sign_conditions_reference(forms, region) -> set[tuple[int, ...]]:
    """Every sign vector of ``forms`` realized in ``region``, the slow way.

    Walks the 3^s prefix tree over the raw forms, without deduplication,
    and solves a fresh strict LP at every node, reusing no witness.
    Pruning an infeasible prefix is exact: every prefix of a realizable
    vector is realized by the same point.
    """
    found: set[tuple[int, ...]] = set()

    def descend(prefix: tuple[int, ...]):
        system = region.copy()
        for form, sign in zip(forms, prefix):
            if sign == 0:
                system.add(form, EQ)
            else:
                system.add(form.scale(sign), GT)
        if not isinstance(strict_feasible(system), Feasible):
            return
        if len(prefix) == len(forms):
            found.add(prefix)
            return
        for sign in (-1, 0, 1):
            descend(prefix + (sign,))

    descend(())
    return found


def single_edge(utilities, variant="gc") -> Instance:
    """One edge v1-v2; ``utilities`` maps agent -> value of e1."""
    return build_instance(
        ["v1", "v2"],
        [("e1", "v1", "v2")],
        {a: {"e1": u} for a, u in utilities.items()},
        variant,
    )


def path(n_edges: int, utilities, variant="gc") -> Instance:
    """Path v1-...-v{n+1} with edges e1..en; utilities: agent -> list."""
    vertices = [f"v{i}" for i in range(1, n_edges + 2)]
    edges = [(f"e{i}", f"v{i}", f"v{i+1}") for i in range(1, n_edges + 1)]
    table = {
        a: {f"e{i+1}": u for i, u in enumerate(us)} for a, us in utilities.items()
    }
    return build_instance(vertices, edges, table, variant)


def star(n_leaves: int, utilities, variant="gc") -> Instance:
    """Star with center c and leaves l1..ln; edge ei joins c and li."""
    vertices = ["c"] + [f"l{i}" for i in range(1, n_leaves + 1)]
    edges = [(f"e{i}", "c", f"l{i}") for i in range(1, n_leaves + 1)]
    table = {
        a: {f"e{i+1}": u for i, u in enumerate(us)} for a, us in utilities.items()
    }
    return build_instance(vertices, edges, table, variant)


def cycle(n_edges: int, utilities, variant="gc") -> Instance:
    vertices = [f"v{i}" for i in range(1, n_edges + 1)]
    edges = [
        (f"e{i}", f"v{i}", f"v{i % n_edges + 1}") for i in range(1, n_edges + 1)
    ]
    table = {
        a: {f"e{i+1}": u for i, u in enumerate(us)} for a, us in utilities.items()
    }
    return build_instance(vertices, edges, table, variant)


def star3_identical(variant="gc") -> Instance:
    """The classic unsolvable case: 3 leaves, 2 agents, uniform values."""
    return star(3, {"a1": [1, 1, 1], "a2": [1, 1, 1]}, variant)


# Connected simple graph shapes by edge count, as (vertices, edges) pairs.
GRAPH_SHAPES = {
    1: [(["v1", "v2"], [("e1", "v1", "v2")])],
    2: [(["v1", "v2", "v3"], [("e1", "v1", "v2"), ("e2", "v2", "v3")])],
    3: [
        (
            ["v1", "v2", "v3", "v4"],
            [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v4")],
        ),
        (
            ["c", "l1", "l2", "l3"],
            [("e1", "c", "l1"), ("e2", "c", "l2"), ("e3", "c", "l3")],
        ),
        (
            ["v1", "v2", "v3"],
            [("e1", "v1", "v2"), ("e2", "v2", "v3"), ("e3", "v3", "v1")],
        ),
    ],
    4: [
        (
            ["v1", "v2", "v3", "v4", "v5"],
            [
                ("e1", "v1", "v2"),
                ("e2", "v2", "v3"),
                ("e3", "v3", "v4"),
                ("e4", "v4", "v5"),
            ],
        ),
        (
            ["c", "l1", "l2", "l3", "l4"],
            [
                ("e1", "c", "l1"),
                ("e2", "c", "l2"),
                ("e3", "c", "l3"),
                ("e4", "c", "l4"),
            ],
        ),
        (
            ["v1", "v2", "v3", "v4", "v5"],
            [
                ("e1", "v1", "v2"),
                ("e2", "v2", "v3"),
                ("e3", "v3", "v4"),
                ("e4", "v3", "v5"),
            ],
        ),
        (
            ["v1", "v2", "v3", "v4"],
            [
                ("e1", "v1", "v2"),
                ("e2", "v2", "v3"),
                ("e3", "v3", "v4"),
                ("e4", "v4", "v1"),
            ],
        ),
        (
            ["v1", "v2", "v3", "v4"],
            [
                ("e1", "v1", "v2"),
                ("e2", "v2", "v3"),
                ("e3", "v3", "v1"),
                ("e4", "v3", "v4"),
            ],
        ),
    ],
}

TREE_SHAPES = {
    1: GRAPH_SHAPES[1],
    2: GRAPH_SHAPES[2],
    3: GRAPH_SHAPES[3][:2],
    4: GRAPH_SHAPES[4][:3],
}


def random_utilities(rng: random.Random, agents, edge_ids, max_num=6):
    """Random small non-negative rationals, at least one positive per agent."""
    table = {}
    for a in agents:
        while True:
            row = {
                e: F(rng.randint(0, max_num), rng.randint(1, 4)) for e in edge_ids
            }
            if any(v > 0 for v in row.values()):
                break
        table[a] = row
    return table


def random_instance(rng: random.Random, shapes, n_edges, n_agents, variant) -> Instance:
    vertices, edges = shapes[n_edges][rng.randrange(len(shapes[n_edges]))]
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    edge_ids = [e[0] for e in edges]
    return build_instance(
        vertices, edges, random_utilities(rng, agents, edge_ids), variant
    )


def random_graph_instance(rng, n_edges, n_agents, variant) -> Instance:
    return random_instance(rng, GRAPH_SHAPES, n_edges, n_agents, variant)


def random_tree_instance(rng, n_edges, n_agents, variant) -> Instance:
    return random_instance(rng, TREE_SHAPES, n_edges, n_agents, variant)


def random_path_instance(rng, n_edges, n_agents, variant) -> Instance:
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    edge_ids = [f"e{i}" for i in range(1, n_edges + 1)]
    table = random_utilities(rng, agents, edge_ids)
    return path(n_edges, {a: [table[a][e] for e in edge_ids] for a in agents}, variant)


def random_cycle_instance(rng, n_edges, n_agents, variant) -> Instance:
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    edge_ids = [f"e{i}" for i in range(1, n_edges + 1)]
    table = random_utilities(rng, agents, edge_ids)
    return cycle(n_edges, {a: [table[a][e] for e in edge_ids] for a in agents}, variant)


@lru_cache(maxsize=None)
def identical_agents_corpus() -> tuple[tuple[Instance, bool], ...]:
    """Every graph shape of at most 4 edges with 2 or 3 identical agents,
    both variants, a uniform row and a seeded random row with zeros;
    each with the oracle's verdict.  Identical agents make the solvers'
    LPs repeat in another row order."""
    rng = random.Random(7070)
    corpus = []
    for shapes in GRAPH_SHAPES.values():
        for vertices, edges in shapes:
            edge_ids = [e[0] for e in edges]
            rows = [{e: 1 for e in edge_ids}]
            while len(rows) < 2:
                row = {e: rng.randint(0, 3) for e in edge_ids}
                if any(row.values()):
                    rows.append(row)
            for row in rows:
                for n_agents in (2, 3):
                    for variant in ("gc", "vdgc"):
                        table = {f"a{i}": dict(row) for i in range(1, n_agents + 1)}
                        inst = build_instance(vertices, edges, table, variant)
                        corpus.append((inst, solve_explicit_oracle(inst).yes))
    return tuple(corpus)
