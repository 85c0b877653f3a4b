"""Shared instance builders and random generators for the test suite."""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import lcm
from typing import Mapping, Sequence

import efgc.few_edges as few_edges
from efgc.cells import endpoint_var, guessed_pieces
from efgc.few_edges import BranchGuess, check_connected_guesses
from efgc.generators import numpart_dp, solve_explicit_oracle
from efgc.linprog import (
    EQ,
    GE,
    GT,
    ZERO,
    FarkasCertificate,
    Feasible,
    Infeasible,
    LinearForm,
    LinearSystem,
    Optimal,
    Unbounded,
    strict_feasible,
    verify_certificate,
)
from efgc.model import (
    ONE,
    AllZeroAgentError,
    Assignment,
    EdgePiece,
    Failure,
    Graph,
    Instance,
    InternalError,
    Piece,
    UnknownEdgeError,
    Variant,
    VerificationReport,
    as_rational,
    build_instance,
    piece_utility,
    tile_spans,
)

F = Fraction


def tile_edge(
    edge: str, segments: Sequence[tuple[object, Fraction]]
) -> list[tuple[object, EdgePiece]]:
    """``tile_spans`` on rational lengths that sum to one, each span as an
    ``EdgePiece``."""
    lengths = [as_rational(length) for _, length in segments]
    den = lcm(*(x.denominator for x in lengths))
    ints = [(owner, x.numerator * (den // x.denominator)) for (owner, _), x in zip(segments, lengths)]
    return [
        (owner, EdgePiece(e, Fraction(lo, den), Fraction(hi, den), lo_closed, hi_closed))
        for owner, (e, lo, hi, lo_closed, hi_closed) in tile_spans(edge, ints, den)
    ]


def forms_of(system: LinearSystem) -> list[tuple[LinearForm, str]]:
    """The system's rows as (LinearForm, relation) pairs: row (terms,
    const, den, rel) is the form sum (c/den)*v + const/den."""
    return [
        (LinearForm(tuple((v, Fraction(c, den)) for v, c in terms), Fraction(const, den)), rel)
        for terms, const, den, rel in system.rows
    ]


def as_fractions(result) -> dict[str, Fraction]:
    """The point of a ``Feasible`` or ``Optimal``, v at point[v] / den."""
    return {v: Fraction(x, result.den) for v, x in result.point.items()}


def lowest_terms(point: Mapping[str, Fraction]) -> tuple[int, dict[str, int]]:
    """A rational point as (den, ints) over the lcm of its denominators,
    the least common denominator."""
    den = lcm(*(x.denominator for x in point.values()))
    return den, {v: x.numerator * (den // x.denominator) for v, x in point.items()}


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


@lru_cache(maxsize=None)
def mixed_classes_corpus() -> tuple[tuple[Instance, bool], ...]:
    """Every graph shape of at most 4 edges, both variants, with agents
    a1, a2, a3 where a3 values every edge twice as much as a1 and a2 has
    another row: ``build_instance`` scales a1 and a3 to one row, so they
    are identical, and their class is split by a2 in agent order.  Three seeded random row
    pairs with zeros per shape, each with the oracle's verdict."""
    rng = random.Random(1919)
    corpus = []
    for shapes in GRAPH_SHAPES.values():
        for vertices, edges in shapes:
            edge_ids = [e[0] for e in edges]
            for _ in range(3):
                while True:
                    r, s = ({e: rng.randint(0, 5) for e in edge_ids} for _ in range(2))
                    total_r, total_s = sum(r.values()), sum(s.values())
                    # neither row is all zero, and a2 differs from a1 once
                    # scaled wherever there are two edges to tell them apart
                    if total_r and total_s and (
                        len(edge_ids) == 1 or any(r[e] * total_s != s[e] * total_r for e in edge_ids)
                    ):
                        break
                table = {"a1": r, "a2": s, "a3": {e: 2 * u for e, u in r.items()}}
                for variant in ("gc", "vdgc"):
                    inst = build_instance(vertices, edges, table, variant)
                    corpus.append((inst, solve_explicit_oracle(inst).yes))
    return tuple(corpus)


def renamings(classes: Sequence[Sequence[str]]) -> list[dict[str, str]]:
    """Every renaming of the agents that permutes each class within
    itself, as a map from each agent to its new name."""
    return [
        {a: b for c, p in zip(classes, perms) for a, b in zip(c, p)}
        for perms in product(*(permutations(c) for c in classes))
    ]


def least_in_orbit(classes: Sequence[Sequence[str]], agents: Sequence[str], seq) -> bool:
    """Is ``seq`` no greater, in the lexicographic order that ``agents``
    induces, than any of its renamings by a permutation of each class?
    Tries every such permutation."""
    rank = {a: i for i, a in enumerate(agents)}
    key = [rank[a] for a in seq]
    return all([rank[rename[a]] for a in seq] >= key for rename in renamings(classes))


def criterion_4_instances() -> list[Instance]:
    """The random corpus of acceptance criterion 4: 100 graphs of 1 to 3
    edges with 1 to 3 agents, either variant."""
    rng = random.Random(604)
    return [
        random_graph_instance(rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(["gc", "vdgc"]))
        for _ in range(100)
    ]


def force_paper_route(monkeypatch) -> list[BranchGuess]:
    """Make ``solve_few_edges`` finish every initial branch along the
    paper's route, by patching its private route rule, for the rest of
    the test.  Returns a list that records each branch on which the
    paper's route guesses pair-critical agents, so a test can assert
    that the route really ran."""
    opened: list[BranchGuess] = []
    guess_pairs = few_edges.enumerate_pair_critical

    def recording(instance, guess):
        opened.append(guess)
        return guess_pairs(instance, guess)

    monkeypatch.setattr(few_edges, "_explicit_is_no_larger", lambda counts, holders: False)
    monkeypatch.setattr(few_edges, "enumerate_pair_critical", recording)
    return opened


def count_branch_skips(monkeypatch) -> list[BranchGuess]:
    """Record, for the rest of the test, each initial branch that
    ``solve_few_edges`` skips before building any LP, because one holder
    must envy another (``few_edges._holders_must_envy``)."""
    skips: list[BranchGuess] = []
    must_envy = few_edges._holders_must_envy

    def recording(ints, base):
        if must_envy(ints, base):
            skips.append(base)
            return True
        return False

    monkeypatch.setattr(few_edges, "_holders_must_envy", recording)
    return skips


def shared_rows(inst: Instance, base: BranchGuess) -> int:
    """How many rows ``build_lp`` emits first for every guess of ``base``:
    those of the branch's LP with no outsider placed (bounds and tiling,
    then the holders' envy rows)."""
    return len(few_edges.build_lp(inst, replace(base, placement={})).rows)


def fraction_normalize(
    table: Mapping[tuple[str, str], Fraction], agents: Sequence[str], edges: Sequence[str]
) -> dict[tuple[str, str], Fraction]:
    """The normal form of a ``Fraction`` table by (agent, edge), computed
    by division as the reference for ``build_instance``: every value
    divided by its agent's total; a table whose totals are all one comes
    back as it is."""
    totals = {a: sum((table[a, e] for e in edges), F(0)) for a in agents}
    if all(total == 1 for total in totals.values()):
        return dict(table)
    out = {}
    for a, total in totals.items():
        if total == 0:
            raise AllZeroAgentError(f"agent {a} values every edge at zero")
        out.update(((a, e), table[a, e] / total) for e in edges)
    return out


def fraction_int_utilities(
    table: Mapping[tuple[str, str], Fraction], agents: Sequence[str], edges: Sequence[str]
) -> tuple[dict[tuple[str, str], int], dict[str, int]]:
    """(u * den by (agent, edge), den by agent): each agent's ``Fraction``
    values as ints over the lcm of their denominators."""
    ints, dens = {}, {}
    for a in agents:
        dens[a] = den = lcm(*(table[a, e].denominator for e in edges))
        ints.update(((a, e), int(table[a, e] * den)) for e in edges)
    return ints, dens


def extract_assignment_reference(
    instance: Instance, guess: BranchGuess, witness
) -> tuple[dict[str, Piece], list[Piece]]:
    """Turn an LP witness into pieces the long way: read the lengths off
    it, re-check their signs and sums, tile each edge with keyed slots,
    count the slots, then pin the placed and critical agents in a second
    loop.  Kept as the reference that ``efgc.few_edges.extract_assignment``
    must match, pieces and order.
    """
    edges = instance.graph.edge_ids
    x0 = {e: witness[endpoint_var(e, 0)] for e in edges}
    delta = {e: witness.get(few_edges.delta_var(e), ZERO) for e in edges}
    x1 = {e: witness[endpoint_var(e, 1)] for e in edges}
    for table in (x0, delta, x1):
        for e, value in table.items():
            if value < 0:
                raise ValueError(f"negative length on {e}")
    for e in instance.graph.edge_ids:
        total = x0[e] + guess.n[e] * delta[e] + x1[e]
        if total != 1:
            raise ValueError(
                f"lengths on {e} sum to {total}, not 1"
            )
    graph = instance.graph
    pieces = guessed_pieces(guess.endpoint_agent)
    endpoint_bucket: dict[str, list] = {a: [] for a in pieces}
    slot_pieces: dict[str, list] = {}
    for e in graph.edge_ids:
        segments: list[tuple[object, Fraction]] = [
            (("end", guess.endpoint_agent[(e, 0)]), x0[e])
        ]
        for j in range(guess.n[e]):
            segments.append((("slot", j), delta[e]))
        segments.append((("end", guess.endpoint_agent[(e, 1)]), x1[e]))
        for owner, ep in tile_edge(e, segments):
            if owner[0] == "end":
                endpoint_bucket[owner[1]].append(ep)
            else:
                slot_pieces.setdefault(e, []).append(ep)
        got = slot_pieces.get(e, ())
        if len(got) != guess.n[e] or any(ep.length != delta[e] for ep in got):
            raise InternalError(f"inside intervals on {e} do not match the lengths")
    partial = {a: Piece(bucket) for a, bucket in endpoint_bucket.items()}
    pinned = guess.placement or few_edges._pin_map([guess.pair_critical, guess.vertex_critical])
    if pinned is None:
        raise InternalError("a critical agent is pinned to two edges")
    taken = {e: 0 for e in graph.edge_ids}
    for agent in instance.agents:
        edge = pinned.get(agent)
        if edge is not None:
            partial[agent] = Piece([slot_pieces[edge][taken[edge]]])
            taken[edge] += 1
    leftovers = [
        Piece([ep])
        for e in graph.edge_ids
        for ep in slot_pieces.get(e, [])[taken[e] :]
    ]
    return partial, leftovers


def _links_all(parts: set[str], links) -> bool:
    """Do these links between parts put every one of ``parts`` in one group?"""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while x in parent:
            x = parent[x]
        return x

    for u, v in links:
        if (ru := find(u)) != (rv := find(v)):
            parent[ru] = rv
    return len({find(p) for p in parts}) == 1


@dataclass(frozen=True)
class Component:
    """One connected component of G - F: its vertices and edges."""

    vertices: frozenset[str]
    edges: tuple[str, ...]


def components_without(graph: Graph, cut: frozenset[str]) -> list[Component]:
    """Connected components after removing the cut edges, ordered by the
    smallest vertex index they contain; isolated vertices count.  Found
    by union-find, the reference for the masks that
    ``efgc.component_lp.solve_with_cut_set`` reads its components off."""
    kept = {eid for eid, _, _ in graph.edges if eid not in cut}
    root = graph.roots(kept)
    groups: dict[str, list[str]] = {}
    for v in graph.vertices:  # in vertex order, so groups come out ordered
        groups.setdefault(root[v], []).append(v)
    comps = []
    for members in groups.values():
        vs = frozenset(members)
        es = tuple(eid for eid, u, _ in graph.edges if eid in kept and u in vs)
        comps.append(Component(vs, es))
    return comps


def connector_choices_reference(
    graph: Graph, cut: frozenset[str], own_edges: Sequence[str], required: frozenset[str]
) -> list[frozenset[str]]:
    """The minimal subsets of the cut that link the agent's components,
    the slow way: every subset of the cut in size order, then in order of
    the sorted edge names, skipping supersets of the ones found.  Kept as
    the reference that ``efgc.component_lp._connector_choices`` must
    match, list and order."""
    root = graph.roots(frozenset(own_edges))
    parts = {root[v] for v in required}
    if len(parts) <= 1:
        return [frozenset()]
    ends = {e: tuple(root[v] for v in endpoints(graph, e)) for e in cut}
    minimal: list[frozenset[str]] = []
    for size in range(len(parts) - 1, len(cut) + 1):
        for subset in combinations(sorted(cut), size):
            candidate = frozenset(subset)
            if any(prev <= candidate for prev in minimal):
                continue
            if _links_all(parts, [ends[e] for e in subset]):
                minimal.append(candidate)
    return minimal


def initial_branches_reference(instance: Instance) -> list[BranchGuess]:
    """The initial branches the slow way: every map of the edge ends to
    agents in lexicographic order, dropping under VDGC the maps that give
    two ends at one vertex to different agents, crossed with every
    inside-count vector in lexicographic order, dropping those whose sum
    is not the number of agents without an end.  Kept as the reference
    that ``efgc.few_edges.enumerate_initial_branches`` must match, list
    and order."""
    graph = instance.graph
    agents = instance.agents
    edges = graph.edge_ids
    slots = [(e, i) for e in edges for i in (0, 1)]
    out = []
    for combo in product(agents, repeat=len(slots)):
        ep = dict(zip(slots, combo))
        if instance.variant is Variant.VDGC and any(
            len({ep[s] for s in slots if graph.coord_vertex(*s) == v}) > 1
            for v in graph.vertices
        ):
            continue
        target = len(agents) - len(set(ep.values()))
        for counts in product(range(len(agents) + 1), repeat=len(edges)):
            if sum(counts) != target:
                continue
            n = dict(zip(edges, counts))
            if check_connected_guesses(instance, ep, n):
                out.append(BranchGuess(ep, frozenset(ep.values()), n))
    return out


def holder_region_reference(held: Sequence[tuple[str, int]]) -> LinearSystem:
    """A holder's sample region with every bound written out: 0 <= x <= 1
    on each held end, and x0 + x1 <= 1 on an edge whose two ends are
    both held."""
    region = LinearSystem()
    for e, i in held:
        var = endpoint_var(e, i)
        region.add(LinearForm.var(var), GE)
        region.add(LinearForm.make({var: -1}, 1), GE)
    for e in sorted({e for e, _ in held}):
        if (e, 0) in held and (e, 1) in held:
            region.add(LinearForm.make({endpoint_var(e, 0): -1, endpoint_var(e, 1): -1}, 1), GE)
    return region


# The exact simplex as it was before its tableau became fraction-free:
# every entry a Fraction, every row scaled to a basic entry of 1.  Kept
# only as the reference that the int tableau in ``efgc.linprog`` must
# match pivot for pivot.

class FractionTableau:
    """Dense simplex tableau on equalities M z = r, z >= 0, r >= 0.

    Columns, in order: one per variable (its value if sign-restricted,
    its positive part p if free), the negative part q of each free
    variable, one slack per >= row, one artificial per row.  Every entry is
    a ``Fraction`` and every row is scaled so its basic entry is 1.
    """

    def __init__(self, rows: list[list], rhs: list, n_real: int):
        self.n_real = n_real  # columns before the artificial block
        m = len(rows)
        self.n_cols = n_real + m
        self.rows = []
        for i, row in enumerate(rows):
            full = row + [ZERO] * m
            full[n_real + i] = ONE
            full.append(rhs[i])
            self.rows.append(full)
        self.basis = [n_real + i for i in range(m)]
        self.obj: list = []

    def set_objective(self, costs: list):
        """Install the reduced-cost row for ``costs``: n_cols entries of the
        tableau's number type."""
        obj = costs + [ZERO]  # last cell: objective value
        for b, row in zip(self.basis, self.rows):
            cb = costs[b]
            if cb:
                for j, a in enumerate(row):
                    if a:
                        obj[j] -= cb * a
        self.obj = obj

    def pivot(self, pr: int, pc: int):
        rows = self.rows
        prow = rows[pr]
        inv = ONE / prow[pc]
        if inv != 1:
            for j in range(self.n_cols + 1):
                if prow[j]:
                    prow[j] *= inv
        hot = [j for j in range(self.n_cols + 1) if prow[j]]
        for row in rows + [self.obj]:
            if row is prow:
                continue
            factor = row[pc]
            if factor:
                for j in hot:
                    row[j] -= factor * prow[j]
        self.basis[pr] = pc

    def run(self, allowed: Sequence[bool]) -> str:
        """Bland's rule until optimal or unbounded; returns the outcome.
        Signs are read off numerators, sparing a rational comparison."""
        while True:
            pc = -1
            obj = self.obj
            for j in range(self.n_cols):
                if allowed[j] and obj[j].numerator > 0:
                    pc = j
                    break
            if pc < 0:
                return "optimal"
            pr = -1
            best = None
            for i, row in enumerate(self.rows):
                if row[pc].numerator > 0:
                    ratio = row[self.n_cols] / row[pc]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[pr]
                    ):
                        best = ratio
                        pr = i
            if pr < 0:
                return "unbounded"
            self.pivot(pr, pc)

    def value(self) -> Fraction:
        return -Fraction(self.obj[self.n_cols])

    def basic_solution(self) -> list[Fraction]:
        z = [ZERO] * self.n_cols
        for i, b in enumerate(self.basis):
            z[b] = Fraction(self.rows[i][self.n_cols])
        return z


def row_certificate(system: LinearSystem, i: int) -> FarkasCertificate:
    """The Farkas certificate of a row that ``RowTest`` refutes, built in
    ``Fraction``s from the system's forms: multiplier 1 on row i, -max/C
    on each tiling row sum a_v*x_v = C that it touches (max being the
    row's largest value over that simplex, a variable absent from the row
    counting 0), and each variable's first sign bound takes up what is
    left on it."""
    forms = forms_of(system)
    row = dict(forms[i][0].coeffs)
    bound = {}
    for k, (form, rel) in enumerate(forms):
        if rel == GE and not form.const and len(form.coeffs) == 1 and form.coeffs[0][1] > 0:
            bound.setdefault(form.coeffs[0][0], k)
    mults = [ZERO] * len(forms)
    mults[i] = ONE
    left = dict(row)
    for k, (form, rel) in enumerate(forms):
        tiling = dict(form.coeffs)
        if rel == EQ and form.const < 0 and all(a > 0 for a in tiling.values()) and row.keys() & tiling:
            top = -form.const * max(row.get(v, ZERO) / a for v, a in tiling.items())
            mults[k] = top / form.const  # -max/C
            for v, a in tiling.items():
                left[v] = left.get(v, ZERO) + mults[k] * a
    for v, c in left.items():
        if c:
            k = bound[v]
            mults[k] -= c / forms[k][0].coeffs[0][1]
    return FarkasCertificate(tuple(mults))


def _fraction_prepare(system: LinearSystem):
    """Lay the system out as a tableau with nonnegative columns and rhs.

    A row ``c*x >= 0`` (one variable, c > 0, zero constant) is a sign
    bound: it leaves the tableau and x keeps one column.  Repeated
    bounds on x leave as well.  Only variables without a bound are free
    and split as x = p - q.  Each kept row is negated where its rhs
    would be negative.  Returns the tableau, the sign flip and source
    constraint of each tableau row, the bound row of each restricted
    column and the q column of each free one.
    """
    variables = system.variables
    forms = forms_of(system)
    col = {v: j for j, v in enumerate(variables)}
    bound: dict[int, int] = {}
    kept: list[int] = []
    for i, (form, rel) in enumerate(forms):
        if rel == GE and not form.const and len(form.coeffs) == 1 and form.coeffs[0][1] > 0:
            bound.setdefault(col[form.coeffs[0][0]], i)
        else:
            kept.append(i)
    free = [j for j in range(len(variables)) if j not in bound]
    neg = {j: len(variables) + k for k, j in enumerate(free)}
    slack = len(variables) + len(free)
    n_real = slack + sum(forms[i][1] == GE for i in kept)
    rows, rhs, flips = [], [], []
    for i in kept:
        form, rel = forms[i]
        flip = -ONE if form.const > 0 else ONE
        row = [ZERO] * n_real
        for v, c in form.coeffs:
            j = col[v]
            row[j] = Fraction(c * flip)
            if j in neg:
                row[neg[j]] = -row[j]
        if rel == GE:
            row[slack] = Fraction(-flip)
            slack += 1
        rows.append(row)
        rhs.append(Fraction(-form.const * flip))
        flips.append(flip)
    return FractionTableau(rows, rhs, n_real), flips, kept, bound, neg


def _fraction_farkas(tab: FractionTableau, system: LinearSystem, flips, kept, bound) -> FarkasCertificate:
    """Read a certificate off the optimal phase-one objective row.

    With phase-one duals y, the artificial of tableau row k has reduced
    cost -1 - y_k, so its constraint gets -y_k, signed back by the row's
    flip.  Reduced costs are <= 0 at the optimum: the slack columns make
    the >= multipliers nonnegative, the p/q pairs cancel free variables,
    and the bound row c*x >= 0 of a restricted x takes -obj[x] / c >= 0,
    which cancels what is left on x.  Repeated bounds get zero.
    """
    obj, forms = tab.obj, forms_of(system)
    mults = [ZERO] * len(forms)
    for k, i in enumerate(kept):
        mults[i] = Fraction(obj[tab.n_real + k] + 1) * flips[k]
    for j, i in bound.items():
        mults[i] = -Fraction(obj[j]) / forms[i][0].coeffs[0][1]
    cert = FarkasCertificate(tuple(mults))
    if not verify_certificate(system, cert):
        raise InternalError("Farkas certificate failed re-verification")
    return cert


def fraction_solve(system: LinearSystem, objective: LinearForm | None):
    """``lp_feasible`` (objective None) or ``lp_max`` on the Fraction tableau;
    the witness is turned into ints over its least denominator at return."""
    if system.has_strict():
        raise ValueError("strict constraints require strict_feasible")
    tab, flips, kept, bound, neg = _fraction_prepare(system)
    m = len(tab.rows)
    n_real = tab.n_real
    variables = system.variables

    # phase one: maximize minus the sum of artificials
    tab.set_objective([ZERO] * n_real + [-ONE] * m)
    if tab.run([True] * tab.n_cols) != "optimal":  # objective bounded above by zero
        raise InternalError("phase one of the simplex came out unbounded")
    if tab.value() < 0:
        return Infeasible(_fraction_farkas(tab, system, flips, kept, bound))

    # drive any leftover zero-valued artificials out of the basis
    drop: list[int] = []
    for i in range(m):
        if tab.basis[i] >= n_real:
            prow = tab.rows[i]
            pc = next((j for j in range(n_real) if prow[j] != 0), -1)
            if pc >= 0:
                tab.pivot(i, pc)
            else:
                drop.append(i)  # redundant row
    for i in reversed(drop):
        del tab.rows[i]
        del tab.basis[i]

    def witness() -> dict[str, Fraction]:
        z = tab.basic_solution()
        point = {v: z[j] - z[neg[j]] if j in neg else z[j] for j, v in enumerate(variables)}
        if not system.check(*lowest_terms(point)):
            raise InternalError("LP witness failed re-evaluation")
        return point

    if objective is None:
        return Feasible(*lowest_terms(witness()))

    costs2 = [ZERO] * tab.n_cols
    for v, c in objective.coeffs:
        j = variables.index(v)
        costs2[j] = Fraction(c)
        if j in neg:
            costs2[neg[j]] = -costs2[j]
    tab.set_objective(costs2)
    if tab.run([j < n_real for j in range(tab.n_cols)]) == "unbounded":
        return Unbounded()
    point = witness()
    return Optimal(objective.evaluate(point), *lowest_terms(point))


def fraction_strict_feasible(system: LinearSystem) -> Feasible | Infeasible:
    """``strict_feasible`` on the Fraction tableau: the same capped-slack
    relaxation, maximized by ``fraction_solve``."""
    if not system.has_strict():
        return fraction_solve(system, None)
    relaxed = LinearSystem(system.variables)
    t = LinearForm.var("__slack")
    for form, rel in forms_of(system):
        relaxed.add(form - t if rel == GT else form, GE if rel == GT else rel)
    relaxed.add(LinearForm.constant(1) - t, GE)
    result = fraction_solve(relaxed, t)
    if not isinstance(result, Optimal) or result.value <= 0:
        return Infeasible(None)
    point = as_fractions(result)
    point.pop("__slack")
    return Feasible(*lowest_terms(point))


# The model lookups the references below were written against, as functions.

def endpoints(graph: Graph, edge: str) -> tuple[str, str]:
    for eid, u, v in graph.edges:
        if eid == edge:
            return u, v
    raise UnknownEdgeError(edge)


def coord_of(graph: Graph, edge: str, vertex: str) -> Fraction:
    """The coordinate (0 or 1) of ``vertex`` within ``edge``."""
    u, v = endpoints(graph, edge)
    if vertex not in (u, v):
        raise ValueError(f"{vertex} is not an endpoint of {edge}")
    return ZERO if graph.coord_vertex(edge, 0) == vertex else ONE


def contains(ep: EdgePiece, point: Fraction) -> bool:
    if point < ep.lo or point > ep.hi:
        return False
    if point == ep.lo and not ep.lo_closed:
        return False
    if point == ep.hi and not ep.hi_closed:
        return False
    return True


def on_edge(piece: Piece, edge: str) -> tuple[EdgePiece, ...]:
    return tuple(ep for ep in piece.edge_pieces if ep.edge == edge)


def piece_of(assignment: Assignment, agent: str) -> Piece:
    for a, p in assignment.entries:
        if a == agent:
            return p
    raise KeyError(agent)


def _same_edge_touch(p: EdgePiece, q: EdgePiece) -> bool:
    lo = max(p.lo, q.lo)
    hi = min(p.hi, q.hi)
    if lo > hi:
        return False
    if lo < hi:
        return True
    return contains(p, lo) and contains(q, lo)


def _adjacent(p: EdgePiece, q: EdgePiece, graph: Graph) -> bool:
    if p.edge == q.edge:
        return _same_edge_touch(p, q)
    pu, pv = endpoints(graph, p.edge)
    qu, qv = endpoints(graph, q.edge)
    shared = {pu, pv} & {qu, qv}
    for v in shared:
        if contains(p, coord_of(graph, p.edge, v)) and contains(q, coord_of(graph, q.edge, v)):
            return True
    return False


def is_connected_piece_reference(piece: Piece, graph: Graph) -> bool:
    """True iff the edge pieces form one connected share of the graph.

    Pieces on the same edge are adjacent when their intervals share a
    point; pieces on adjacent edges are adjacent when both contain the
    coordinate of the shared vertex.  Empty and singleton collections
    count as connected.
    """
    eps = piece.edge_pieces
    if len(eps) <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(len(eps)):
            if j not in seen and _adjacent(eps[i], eps[j], graph):
                seen.add(j)
                stack.append(j)
    return len(seen) == len(eps)


def _check_tiling(instance: Instance, assignment: Assignment, failures: list[Failure]):
    if set(assignment.agents) != set(instance.agents):
        failures.append(
            Failure("tiling", "assignment agents differ from instance agents")
        )
        return
    for edge in instance.graph.edge_ids:
        pieces = []
        for agent, piece in assignment.items():
            pieces.extend(on_edge(piece, edge))
        total = sum((ep.length for ep in pieces), ZERO)
        if total != 1:
            failures.append(Failure("tiling", f"edge {edge}: lengths sum to {total}, not 1"))
            continue
        ordered = sorted(pieces, key=lambda ep: (ep.lo, ep.hi))
        reach = ZERO
        overlap = False
        for ep in ordered:
            if ep.length > 0:
                if ep.lo < reach:
                    overlap = True
                reach = max(reach, ep.hi)
        if overlap:
            failures.append(Failure("tiling", f"edge {edge}: interval interiors overlap"))
            continue
        points = {ZERO, ONE}
        for ep in ordered:
            points.add(ep.lo)
            points.add(ep.hi)
        for x in sorted(points):
            if not any(contains(ep, x) for ep in ordered):
                failures.append(Failure("tiling", f"edge {edge}: point {x} is uncovered"))


def _check_vertex_disjoint(instance: Instance, assignment: Assignment, failures: list[Failure]):
    graph = instance.graph
    for v in graph.vertices:
        owners = set()
        for agent, piece in assignment.items():
            for edge in graph.incident_edges(v):
                coord = coord_of(graph, edge, v)
                if any(contains(ep, coord) for ep in on_edge(piece, edge)):
                    owners.add(agent)
        if len(owners) > 1:
            failures.append(
                Failure(
                    "vertex-disjointness",
                    f"vertex {v} belongs to pieces of {sorted(owners)}",
                )
            )


def verify_assignment_reference(instance: Instance, assignment: Assignment) -> VerificationReport:
    """Independently check an assignment; failures are reported, not raised.

    Checks: every edge is tiled exactly (lengths sum to one, interval
    interiors disjoint, every point covered), every agent's piece is
    connected, vertices belong to at most one agent (VDGC only), and no
    agent values another piece above its own.  A piece on an edge that
    the graph does not have is a tiling failure; the checks after tiling
    are then skipped, since they need the edge.  The ``Fraction``
    verifier, kept as the reference that ``efgc.model.verify_assignment``
    must match, report for report.
    """
    failures: list[Failure] = []
    _check_tiling(instance, assignment, failures)
    known = set(instance.graph.edge_ids)
    unknown = [
        Failure("tiling", f"piece of {agent} lies on unknown edge {ep.edge}")
        for agent, piece in assignment.items()
        for ep in piece.edge_pieces
        if ep.edge not in known
    ]
    if unknown:
        return VerificationReport(tuple(failures + unknown))
    for agent, piece in assignment.items():
        if not is_connected_piece_reference(piece, instance.graph):
            failures.append(Failure("connectivity", f"piece of {agent} is disconnected"))
    if instance.variant is Variant.VDGC:
        _check_vertex_disjoint(instance, assignment, failures)
    if set(assignment.agents) == set(instance.agents):
        values = {
            (a, b): piece_utility(a, piece_of(assignment, b), instance)
            for a in instance.agents
            for b in instance.agents
        }
        for a in instance.agents:
            for b in instance.agents:
                if values[(a, a)] < values[(a, b)]:
                    failures.append(
                        Failure(
                            "envy",
                            f"{a} values the piece of {b} at {values[(a, b)]}"
                            f" but its own at {values[(a, a)]}",
                        )
                    )
    return VerificationReport(tuple(failures))
