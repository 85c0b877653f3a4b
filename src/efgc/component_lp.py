"""Cut-set solvers for trees and cycles.

Fix a set F of cut edges.  Its scope is the assignments in which every
connected component of G - F goes wholly to one agent, and within it
the rest is searchable: branch over the component assignment (one per
orbit of identical agents, see ``orbit_leaders``), connect each agent's
components with a minimal set of edges from F, branch over which cut
edge hosts each agent that owns no component, and solve an exact LP for
the share lengths on the remaining cut edges.

What does not depend on F is worked out once per instance and cached on
it and its graph: the tree-or-cycle check with the subtree masks, edge
positions and end bits, and the classes of identical agents.  Per cut
set, the components of G - F are read off the subtree masks
(``_components``), each with one value per agent, and a held set, the
components one agent holds, has its options worked out once, on first
use: its value (the sum of its components'), its minimal connectors
(read off its own edges plus F by ``_connector_choices``), the edges it
then owns whole, and every agent's value of those edges.

Under vdgc a connector is kept exactly when both ends of each of its
edges lie in its held components: every vertex lies in exactly one
component, and every component goes to some agent, so an end outside
them is another holder's vertex, and an end inside them is no other's.

The wrappers try only the inclusion-maximal cut sets of one family,
the unions of exactly min(k, n) of n item closures: for vertex-disjoint
division of trees every solution is captured by cutting at most |A|-1
edges; for the shared variant on trees by cutting around at most |A|
vertices (all their edges; vertex closures alone give the same maximal
cuts as vertices and edges, see ``solve_tree_gc_bounded_degree``); on
cycles by cutting at most |A| edges.  The maximal unions lose nothing:
F <= F' implies scope(F) <= scope(F'), since every component of G - F'
lies inside one of G - F, and every cut of at most k items lies inside
a cut of exactly min(k, n).

Most share LPs fail on one envy row of an agent a against a holder b,
so before any LP ``_must_envy`` skips a component assignment, then a
connector combo, where b's whole edges are worth more to a than a's best
case: its own whole edges plus every cut edge (once the connectors are
fixed, the cut edges it holds an end of), or for an agent that holds no
component, its best cut edge.  ``RowTest`` then skips most other
infeasible LPs before the simplex.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Sequence

from efgc.linprog import EQ, GE, Feasible, LinearSystem, RowTest, lp_feasible
from efgc.model import (
    Assignment,
    EfgcError,
    Graph,
    Instance,
    InternalError,
    Piece,
    UnknownEdgeError,
    Variant,
    Verdict,
    orbit_leaders,
    tile_spans,
    verify_assignment,
)


class NotTreeError(EfgcError):
    pass


class NotCycleError(EfgcError):
    pass


class NotTreeOrCycleError(EfgcError):
    pass


def _connector_choices(
    masks: dict, cut: frozenset[str], own_edges: Sequence[str], held: int
) -> list[frozenset[str]]:
    """The minimal subsets of the cut that, with the own edges, link the
    vertices in the mask ``held``, sorted by size and then by edge names;
    ``masks`` is the graph's ``subtree_masks``.

    Let H be the own edges plus the cut, and open the graph at an edge x
    outside H (at none on a tree).  H lies in the tree G - x, so it links
    the held vertices iff it holds their subtree there, the edges with
    held vertices on both sides, and the connector is that subtree's cut
    edges.  On the whole cycle a minimal connector leaves out some cut
    edge (with all of them, one could be dropped), so open at each cut
    edge in turn; with no cut edge, the own edges link everything.
    """
    h = cut.union(own_edges)
    openings = [None] if None in masks else [x for x in masks if x not in h][:1] or list(cut)
    if not openings:
        return [frozenset()]
    choices = set()
    for x in openings:
        tree = {e for e, below in masks[x].items() if 0 != held & below != held}
        if tree <= h:
            choices.add(frozenset(cut & tree))
    return sorted(choices, key=lambda choice: (len(choice), sorted(choice)))


def _cut_var(edge: str, agent: str) -> str:
    return f"y_{edge}__{agent}"


def _build_cut_lp(
    instance: Instance,
    f_prime: Sequence[str],
    end_owners: dict[str, tuple[str, str]],
    insiders: dict[str, list[str]],
    whole_value: dict[str, dict[str, int]],
) -> LinearSystem:
    """The share LP of one placement; ``whole_value[b][a]`` is a's int
    value (over ``Instance.dens[a]``) of the edges b owns whole."""
    system = LinearSystem()
    # the share variables each agent may hold, as (variable, edge)
    shares: dict[str, list[tuple[str, str]]] = {a: [] for a in instance.agents}
    for e in f_prime:
        names = list(dict.fromkeys(end_owners[e] + tuple(insiders.get(e, ()))))
        for agent in names:
            var = _cut_var(e, agent)
            shares[agent].append((var, e))
            system.add_row(((var, 1),), 0, 1, GE)
        system.add_row(tuple(sorted((_cut_var(e, a), 1) for a in names)), -1, 1, EQ)

    # each envy row u_a(own share) - u_a(b's share) >= 0 is built from a's int
    # utilities in canonical form: the two shares have disjoint variables
    ints, dens = instance.ints, instance.dens
    for a in instance.agents:
        mine = [(var, ints[a, e]) for var, e in shares[a] if ints[a, e]]
        for b in instance.agents:
            if a != b:
                terms = mine + [(var, -ints[a, e]) for var, e in shares[b] if ints[a, e]]
                terms.sort()
                system.add_row(tuple(terms), whole_value[a][a] - whole_value[b][a], dens[a], GE)
    return system


def _extract_cut_assignment(
    instance: Instance,
    f_prime: Sequence[str],
    end_owners: dict[str, tuple[str, str]],
    insiders: dict[str, list[str]],
    owned_edges: dict[str, list[str]],
    result: Feasible,
) -> Assignment:
    """The witness's pieces, in ints over its denominator."""
    den, length = result.den, result.point
    buckets: dict[str, list] = {a: [] for a in instance.agents}
    for agent, edges in owned_edges.items():
        buckets[agent] += [(g, 0, den, True, True) for g in edges]
    for e in f_prime:
        o0, o1 = end_owners[e]
        mid = [(b, length[_cut_var(e, b)]) for b in insiders.get(e, ())]
        last = 0 if o0 == o1 else length[_cut_var(e, o1)]
        segments = [(o0, length[_cut_var(e, o0)])] + mid + [(o1, last)]
        for owner, span in tile_spans(e, segments, den):
            buckets[owner].append(span)
    return Assignment({a: Piece.tiled(den, b) for a, b in buckets.items()})


def _must_envy(values: Iterable[dict[str, int]], limit: dict[str, int]) -> bool:
    """Is some holder's whole-edge value v[a] to an agent a above limit[a],
    the most a's own share can be worth to a (a negative envy row)?"""
    return any(v[a] > limit[a] for v in values for a in limit)


def _components(graph: Graph, cut: frozenset[str]) -> tuple[list[int], list[list[str]], dict]:
    """The components of G - cut, ordered by their smallest vertex: their
    vertex masks, their edges in position order, and the components at
    the two ends of each cut edge.  Opened at x (none on a tree, a cut
    edge on a cycle), G - x is a tree whose subtree masks nest: below a
    cut edge lies its mask less the smaller cut masks, and above them all
    every vertex less every cut mask."""
    masks, end_bits = graph.subtree_masks, graph.end_bits
    x = None if None in masks else next(iter(cut), None)
    tops = [below for f, below in masks[x].items() if f in cut] if x in masks else []
    comps, taken = [], 0
    for below in sorted(tops, key=int.bit_count):
        comps.append(below & ~taken)
        taken |= below
    comps.append(((1 << len(graph.vertices)) - 1) & ~taken)
    comps.sort(key=lambda mask: mask & -mask)
    comp_of = {}  # each vertex bit's component
    for k, mask in enumerate(comps):
        while mask:
            comp_of[mask & -mask] = k
            mask &= mask - 1
    edges: list[list[str]] = [[] for _ in comps]
    for e in graph.edge_ids:
        if e not in cut:
            edges[comp_of[end_bits[e][0]]].append(e)
    return comps, edges, {e: (comp_of[end_bits[e][0]], comp_of[end_bits[e][1]]) for e in cut}


def solve_with_cut_set(instance: Instance, cut: Sequence[str]) -> Verdict:
    """Decide existence of an envy-free assignment in which every
    component of G - cut goes wholly to one agent.

    A yes verdict ships a verified assignment; no means no assignment
    within this restricted scope exists.  What does not depend on the cut
    is cached on the instance and its graph, and each held set's options
    are worked out once per cut, on first use (see the module docstring).
    """
    graph = instance.graph
    masks, position, end_bits = graph.subtree_masks, graph.edge_position, graph.end_bits
    if not masks:
        raise NotTreeOrCycleError("cut-set solving needs a tree or a cycle")
    cut = frozenset(cut)
    if unknown := cut.difference(position):
        raise UnknownEdgeError(min(unknown))
    comp_mask, comp_edges, end_comps = _components(graph, cut)
    vdgc = instance.variant is Variant.VDGC
    ints, agents = instance.ints, instance.agents
    best_cut, all_cut = {}, {}
    for a in agents:
        row = [ints[a, e] for e in cut]
        best_cut[a], all_cut[a] = max(row, default=0), sum(row)
    # per held set: each agent's int value of its components' edges, and
    # its options (connector, edges owned whole, their value to each agent)
    value_of: dict[tuple[int, ...], dict[str, int]] = {(): dict.fromkeys(agents, 0)}
    for k, edges in enumerate(comp_edges):
        value_of[k,] = {a: sum([ints[a, g] for g in edges]) for a in agents}
    options_of: dict[tuple[int, ...], list[tuple]] = {}

    def find_options(held: tuple[int, ...]) -> list[tuple]:
        own_edges = [e for k in held for e in comp_edges[k]]
        held_mask = sum([comp_mask[k] for k in held])
        base = value_of[held]
        found = options_of[held] = []
        for connector in _connector_choices(masks, cut, own_edges, held_mask):
            if vdgc and any((end_bits[e][0] | end_bits[e][1]) & ~held_mask for e in connector):
                continue
            owned = tuple(sorted(own_edges + list(connector), key=position.get))
            values = {a: v + sum([ints[a, e] for e in connector]) for a, v in base.items()}
            found.append((connector, owned, values))
        return found

    for comp_assign in orbit_leaders(instance, len(comp_mask)):
        held: dict[str, tuple[int, ...]] = {}
        for k, agent in enumerate(comp_assign):
            held[agent] = held.get(agent, ()) + (k,)
        holders = [a for a in agents if a in held]
        floaters = [a for a in agents if a not in held]
        keys = [held[a] for a in holders]
        held_values = []
        for h in keys:
            v = value_of.get(h)
            if v is None:
                parts = [value_of[k,] for k in h]
                v = value_of[h] = {b: sum([p[b] for p in parts]) for b in agents}
            held_values.append(v)
        limit = {a: best_cut[a] for a in floaters}
        limit |= {a: v[a] + all_cut[a] for a, v in zip(holders, held_values)}
        if _must_envy(held_values, limit):
            continue
        choices = [options_of[h] if h in options_of else find_options(h) for h in keys]
        for combo in product(*choices):
            connectors, owned, values = zip(*combo)
            used = frozenset().union(*connectors)
            if len(used) < sum(map(len, connectors)):
                continue  # two holders want the same connector edge
            f_prime = sorted(cut - used, key=position.get)
            end_owners = {e: tuple(comp_assign[k] for k in end_comps[e]) for e in f_prime}
            for a, v in zip(holders, values):
                limit[a] = v[a] + sum(ints[a, e] for e in f_prime if a in end_owners[e])
            if _must_envy(values, limit):
                continue
            whole_value = dict.fromkeys(floaters, value_of[()]) | dict(zip(holders, values))
            # an agent placed inside an edge it values at zero must envy
            options = [[e for e in f_prime if ints[a, e] > 0] for a in floaters]
            for placement in product(*options):
                insiders: dict[str, list[str]] = {}
                for agent, e in zip(floaters, placement):
                    insiders.setdefault(e, []).append(agent)
                system = _build_cut_lp(instance, f_prime, end_owners, insiders, whole_value)
                if RowTest(system.rows).refuting_row(system.rows) is not None:
                    continue
                result = lp_feasible(system)
                if isinstance(result, Feasible):
                    owned_edges = dict(zip(holders, owned))
                    assignment = _extract_cut_assignment(
                        instance, f_prime, end_owners, insiders, owned_edges, result
                    )
                    report = verify_assignment(instance, assignment)
                    if not report.valid:
                        raise InternalError(
                            f"witness failed verification: {report.failures}"
                        )
                    return Verdict(True, assignment)
    return Verdict(False, None)


def _maximal_cuts(closures: Sequence[frozenset[str]], k: int) -> list[frozenset[str]]:
    """The unions of every choice of exactly min(k, n) of the n
    ``closures`` that no other such union strictly contains, in
    first-seen order.  Those of n distinct single edges (vdgc trees and
    cycles) are distinct sets of min(k, n) edges, so none is filtered."""
    chosen = combinations(closures, min(k, len(closures)))
    if all(len(c) == 1 for c in closures) and len(set(closures)) == len(closures):
        return [frozenset().union(*c) for c in chosen]
    unions = dict.fromkeys(frozenset().union(*c) for c in chosen)
    return [cut for cut in unions if not any(cut < other for other in unions)]


def _first_yes(instance: Instance, closures: Sequence[frozenset[str]], k: int) -> Verdict:
    """Try the maximal cuts of ``closures`` and ``k`` in order on the
    instance; the first yes wins."""
    for cut in _maximal_cuts(closures, k):
        verdict = solve_with_cut_set(instance, cut)
        if verdict.yes:
            return verdict
    return Verdict(False, None)


def solve_tree_vdgc(instance: Instance) -> Verdict:
    """Vertex-disjoint division of a tree: some cut set of fewer edges
    than agents captures every solution."""
    if not instance.graph.is_tree():
        raise NotTreeError("expects a tree")
    if instance.variant is not Variant.VDGC:
        raise ValueError("expects the vertex-disjoint variant")
    edges = [frozenset([e]) for e in instance.graph.edge_ids]
    return _first_yes(instance, edges, len(instance.agents) - 1)


def solve_tree_gc_bounded_degree(instance: Instance) -> Verdict:
    """Shared-vertex division of a tree: at most |A| vertices and edges
    are shared between agents, so cutting around every choice of those
    is exhaustive (a chosen vertex cuts all its edges; polynomial only
    for bounded degree).  Vertex closures alone give the maximal cuts of
    vertices and edges, in the same order: every edge lies in the closure
    of either end, so in a choice of min(k, n) closures an edge closure
    can give way to an unchosen vertex's without shrinking the union (for
    k <= |V|; for k > |V| both give E alone), and that choice comes
    earlier in ``combinations`` order."""
    if not instance.graph.is_tree():
        raise NotTreeError("expects a tree")
    if instance.variant is not Variant.GC:
        raise ValueError("expects the shared-vertex variant")
    graph = instance.graph
    vertices = [frozenset(graph.incident_edges(v)) for v in graph.vertices]
    return _first_yes(instance, vertices, len(instance.agents))


def solve_cycle(instance: Instance) -> Verdict:
    """Division of a cycle, either variant: at most |A| edges are shared
    between agents, so cutting that many edges is exhaustive."""
    if not instance.graph.is_cycle():
        raise NotCycleError("expects a cycle")
    edges = [frozenset([e]) for e in instance.graph.edge_ids]
    return _first_yes(instance, edges, len(instance.agents))
