"""Instance generators with decidable ground truth, plus brute-force
reference solvers.

The generator families encode an integer multiset as valued pendant
edges shared by two agents.  When no single value exceeds half the
total, every valued edge must go wholly to one agent and an envy-free
division exists exactly when the multiset splits into two equal-sum
halves (decided independently by ``numpart_dp``).  A dominant value
breaks that equivalence: the other agent can take a leaf-side sliver of
the dominant edge worth exactly half the total, so those instances are
always solvable.

``solve_explicit_oracle`` is the reference solver used to cross-check
every other solver: it enumerates, for each edge end, the agent holding
that end, and an explicit placement of all remaining agents fully inside
edges (agents placed inside one edge receive intervals of one shared
length), then solves an exact LP with an envy constraint for every
ordered agent pair.  There is no criticality machinery and no matching
step, which keeps it simple enough to trust.
"""
from __future__ import annotations

import warnings
from itertools import product
from math import lcm
from typing import Iterator, Sequence

from efgc.cells import endpoint_var, guessed_pieces, holdings_value_form
from efgc.few_edges import check_connected_guesses, delta_var
from efgc.linprog import EQ, GE, Feasible, LinearForm, LinearSystem, lp_feasible
from efgc.model import (
    Assignment,
    EfgcError,
    Instance,
    InternalError,
    Piece,
    Variant,
    Verdict,
    build_instance,
    tile_spans,
    verify_assignment,
)


class EmptyInputError(EfgcError):
    """The value multiset is empty."""


class ZeroSumError(EfgcError):
    """The value multiset sums to zero, so no agent's row can sum to one."""


class ScaleExceededWarning(UserWarning):
    """The oracle was called beyond its intended instance size."""


def numpart_dp(values: Sequence[int]) -> bool:
    """Does the multiset split into two equal-sum halves?

    Subset-sum dynamic programming on a bitset; the empty multiset
    splits trivially and an odd total never does.
    """
    total = sum(values)
    if total % 2:
        return False
    bits = 1
    for v in values:
        bits |= bits << v
    return bool((bits >> (total // 2)) & 1)


def _check_values(values: Sequence[int], positive: bool):
    if not values:
        raise EmptyInputError("need at least one value")
    if positive and any(v <= 0 for v in values):
        raise ValueError("values must be positive integers")
    if any(v < 0 for v in values):
        raise ValueError("values must be non-negative integers")
    if sum(values) == 0:
        raise ZeroSumError("values sum to zero")


def gen_star_from_numpart(values: Sequence[int]) -> Instance:
    """Star with one leaf per value; two agents share the leaf values.

    Without a dominant value, every leaf edge must go wholly to one
    agent (a leaf-side remainder would strand a disconnected scrap), so
    an envy-free division is exactly an equal-sum two-partition.
    """
    _check_values(values, positive=False)
    vertices = ["c"] + [f"l{i}" for i in range(1, len(values) + 1)]
    edges = [(f"e{i}", "c", f"l{i}") for i in range(1, len(values) + 1)]
    table = {
        agent: {f"e{i+1}": v for i, v in enumerate(values)}
        for agent in ("a1", "a2")
    }
    return build_instance(vertices, edges, table, Variant.GC)


def gen_matching_plus_two(values: Sequence[int]) -> Instance:
    """Two hub vertices joined to one pendant edge per value.

    Both agents value only the pendant edges.  Without a dominant value,
    vertex-disjointness forces every pendant edge wholly to one agent
    and envy-freeness again means an equal-sum split.
    """
    _check_values(values, positive=True)
    n = len(values)
    vertices = ["c1", "c2"]
    edges = []
    for i in range(1, n + 1):
        vertices += [f"l{i}", f"l{i}p"]
        edges.append((f"c1_l{i}", "c1", f"l{i}"))
        edges.append((f"c2_l{i}", "c2", f"l{i}"))
        edges.append((f"m{i}", f"l{i}", f"l{i}p"))
    table = {
        agent: {f"m{i+1}": v for i, v in enumerate(values)}
        for agent in ("a1", "a2")
    }
    return build_instance(vertices, edges, table, Variant.VDGC)


def gen_ladder_tw2(values: Sequence[int], variant: Variant | str = Variant.GC) -> Instance:
    """Two rails with valued pendant edges hanging off the rungs.

    Maximum degree three, and the two identical agents value only the
    pendants; either variant encodes the equal-sum split question on
    multisets without a dominant value.
    """
    _check_values(values, positive=True)
    if isinstance(variant, str):
        variant = Variant(variant)
    n = len(values)
    vertices = []
    edges = []
    for i in range(1, n + 1):
        vertices += [f"a{i}", f"b{i}", f"c{i}", f"d{i}"]
        edges.append((f"ac{i}", f"a{i}", f"c{i}"))
        edges.append((f"cb{i}", f"c{i}", f"b{i}"))
        edges.append((f"cd{i}", f"c{i}", f"d{i}"))
    for i in range(1, n):
        edges.append((f"ra{i}", f"a{i}", f"a{i+1}"))
        edges.append((f"rb{i}", f"b{i}", f"b{i+1}"))
    table = {
        agent: {f"cd{i+1}": v for i, v in enumerate(values)}
        for agent in ("ag1", "ag2")
    }
    return build_instance(vertices, edges, table, variant)


def blowup_gc_to_vdgc(instance: Instance) -> Instance:
    """Replace every vertex by a clique of |E| fresh vertices.

    Incident original edges reattach to distinct clique vertices and
    clique edges carry zero utility for everyone; the result is a
    vertex-disjoint instance with |V|*|E| vertices and
    |E| + |V|*C(|E|,2) edges.
    """
    graph = instance.graph
    k = len(graph.edges)
    vertices = [f"{v}_{j}" for v in graph.vertices for j in range(1, k + 1)]
    attach: dict[str, int] = {v: 0 for v in graph.vertices}
    new_edges = []
    for eid, u, v in graph.edges:
        attach[u] += 1
        attach[v] += 1
        new_edges.append((eid, f"{u}_{attach[u]}", f"{v}_{attach[v]}"))
    for v in graph.vertices:
        for j1 in range(1, k + 1):
            for j2 in range(j1 + 1, k + 1):
                new_edges.append((f"q_{v}_{j1}_{j2}", f"{v}_{j1}", f"{v}_{j2}"))
    table = {}
    for agent in instance.agents:
        row = {eid: instance.util(agent, eid) for eid in graph.edge_ids}
        table[agent] = row
    return build_instance(vertices, new_edges, table, Variant.VDGC)


def _endpoint_functions(inst: Instance) -> Iterator[dict]:
    """All endpoint-holder functions; under vertex-disjointness these are
    exactly the per-vertex owner maps, which is much smaller."""
    graph = inst.graph
    slots = [(e, i) for e in graph.edge_ids for i in (0, 1)]
    if inst.variant is Variant.VDGC:
        for owners in product(inst.agents, repeat=len(graph.vertices)):
            owner = dict(zip(graph.vertices, owners))
            yield {(e, i): owner[graph.coord_vertex(e, i)] for e, i in slots}
    else:
        for combo in product(inst.agents, repeat=len(slots)):
            yield dict(zip(slots, combo))


def _explicit_lp(inst: Instance, ep: dict, inside: dict, n: dict, live: list[str]) -> LinearSystem:
    """All-pairs envy LP for a fully explicit branch.

    Only ``live`` edges (valued by somebody) carry variables; an edge
    nobody values influences no envy comparison and its lengths can be
    fixed afterwards.
    """
    system = LinearSystem()
    for e in live:
        for var in (endpoint_var(e, 0), delta_var(e), endpoint_var(e, 1)):
            system.declare(var)
            system.add(LinearForm.var(var), GE)
        system.add(
            LinearForm.make(
                {endpoint_var(e, 0): 1, delta_var(e): n[e], endpoint_var(e, 1): 1},
                -1,
            ),
            EQ,
        )
    pieces = guessed_pieces(ep)
    live_set = set(live)

    def value_form(valuer: str, owner: str) -> LinearForm:
        if owner in pieces:
            held = [(e, i) for e, i in pieces[owner] if e in live_set]
            return holdings_value_form(inst, valuer, held)
        edge = inside[owner]
        if edge not in live_set:
            return LinearForm.make({})
        return LinearForm.make({delta_var(edge): inst.util(valuer, edge)})

    for a in inst.agents:
        mine = value_form(a, a)
        for b in inst.agents:
            if a != b:
                system.add(mine - value_form(a, b), GE)
    return system


def _explicit_extract(
    inst: Instance, ep: dict, inside: dict, n: dict, live: list[str], result: Feasible
) -> Assignment:
    """Tile every edge in ints over the lcm of the witness's denominator
    and the inside counts; an edge nobody values goes to its insiders
    evenly, or to its end-0 holder."""
    insiders_by_edge: dict[str, list[str]] = {}
    for agent in inst.agents:
        if agent in inside:
            insiders_by_edge.setdefault(inside[agent], []).append(agent)
    den = lcm(result.den, *(k for k in n.values() if k))
    length = {v: x * (den // result.den) for v, x in result.point.items()}
    buckets: dict[str, list] = {a: [] for a in inst.agents}
    for e in inst.graph.edge_ids:
        if e in live:
            x0, delta, x1 = (length[v] for v in (endpoint_var(e, 0), delta_var(e), endpoint_var(e, 1)))
        else:
            x0, delta, x1 = (0, den // n[e], 0) if n[e] else (den, 0, 0)
        segments = [(ep[e, 0], x0), *((a, delta) for a in insiders_by_edge.get(e, ())), (ep[e, 1], x1)]
        for owner, span in tile_spans(e, segments, den):
            buckets[owner].append(span)
    return Assignment({a: Piece.tiled(den, b) for a, b in buckets.items()})


def solve_explicit_oracle(instance: Instance) -> Verdict:
    """Reference decision by explicit enumeration plus LP.

    Intended for small instances; beyond four edges or four agents it
    still runs but emits a warning.
    """
    graph = instance.graph
    if len(graph.edges) > 4 or len(instance.agents) > 4:
        warnings.warn(
            "oracle called beyond its intended size (<= 4 edges, <= 4 agents)",
            ScaleExceededWarning,
            stacklevel=2,
        )
    live = [
        e
        for e in graph.edge_ids
        if any(instance.ints[a, e] > 0 for a in instance.agents)
    ]
    for ep in _endpoint_functions(instance):
        holders = set(ep.values())
        outsiders = [a for a in instance.agents if a not in holders]
        # an agent placed inside an edge it values at zero always envies
        options = [
            [e for e in graph.edge_ids if instance.ints[a, e] > 0] for a in outsiders
        ]
        for placement in product(*options):
            inside = dict(zip(outsiders, placement))
            n = {e: 0 for e in graph.edge_ids}
            for e in inside.values():
                n[e] += 1
            if not check_connected_guesses(instance, ep, n):
                continue
            result = lp_feasible(_explicit_lp(instance, ep, inside, n, live))
            if isinstance(result, Feasible):
                assignment = _explicit_extract(
                    instance, ep, inside, n, live, result
                )
                report = verify_assignment(instance, assignment)
                if not report.valid:
                    raise InternalError(
                        f"witness failed verification: {report.failures}"
                    )
                return Verdict(True, assignment)
    return Verdict(False, None)
