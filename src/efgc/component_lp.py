"""Cut-set solvers for trees and cycles.

Fix a set F of cut edges.  Its scope is the assignments in which every
connected component of G - F goes wholly to one agent, and within it
the rest is searchable: branch over the component assignment (one per
orbit of identical agents, walked depth first with dead prefixes cut),
connect each agent's components with a minimal set of edges from F,
branch over which cut edge hosts each agent that owns no component, and
solve an exact LP for the share lengths on the remaining cut edges.

What does not depend on F is worked out once per instance and cached on
it and its graph: the tree-or-cycle check with the subtree masks, edge
positions, end bits and subtree bits, and the classes of identical agents.
Per cut set, the components of G - F are read off the subtree masks
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

The walk (``_assignments``) gives the components out in index order and
tries the agents in ``instance.agents`` order; an agent may take a
component once its ``prior_twin`` holds one, so of each orbit of
identical agents it meets the least assignment, in lexicographic order
(renaming identical agents maps a feasible branch to a feasible one, so
the first feasible branch is among these).  It cuts a prefix
that no completion can take to an LP, by three tests that stay true as
the prefix grows, so the first Yes and its witness are those of trying
every orbit leader.  On a tree a held set R has one minimal connector,
the cut edges of its subtree (the edges with vertices of R on both
sides), which must lie in R's own edges plus F (``_connector_choices``),
and a subtree only grows with R:

- (a) on a tree, two holders' subtrees share a cut edge: both connectors
  would need it;
- (b) on a tree, two holders' subtrees share an edge of a component:
  once that component is given out, the edge lies outside the own edges
  and F of a holder other than its taker, which leaves that holder no
  connector;
- (c) an envy cap: with lb_b holder b's components' edges, plus on a
  tree the cut edges of its subtree (its connector owns them whole), an
  agent x and a holder b other than x have lb_b[x] > dens[x] - the sum of
  lb_c[x] over the holders c other than x.  Holders' whole edges are
  disjoint and hold their lb, so the right side bounds x's own share,
  and lb only grows.

Before the LPs of a connector combo, ``_must_envy`` skips it when some
holder b's whole edges are worth more to a holder a than a's share can
be: a's whole edges plus the cut edges it holds an end of.  A floater
a, an agent holding no component, is offered a cut edge e only when
0 < ints[a, e] and no holder's whole edges are worth more to a than e:
its share lies inside e, so its envy row against that holder could not
hold.  Every LP built goes straight to the simplex.  A check of the bare
assignment first would skip no more.  With v a held set's components'
value and all_cut[a] a's value of the whole cut, its holder limit
v_a[a] + all_cut[a] never fires at a reached leaf: every component is
given out, so (c) gives v_b[a] <= lb_b[a] <= dens[a] - the sum of
lb_c[a] over the holders c other than a <= v_a[a] + all_cut[a].  And
the combo check and the edge filter skip all it would: a connector only
adds edges, so a combo's values are at least v, its holder limits at
most v_a[a] + all_cut[a], and a floater's edge is in the cut.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from efgc.linprog import EQ, GE, Feasible, LinearSystem, lp_feasible
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
    """A name no other pair gets: the length fixes where the edge id ends."""
    return f"y{len(edge)}_{edge}_{agent}"


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
    """Is some holder's whole-edge value v[a] to a holder a above limit[a],
    the most a's own share can be worth to a under one connector combo
    (a negative envy row)?"""
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


def _assignments(
    instance: Instance,
    cut: frozenset[str],
    comp_mask: list[int],
    comp_edges: list[list[str]],
    comp_value: list[dict[str, int]],
) -> Iterator[tuple[str, ...]]:
    """The component assignments, as each component's agent, that no dead
    prefix cuts, walked depth first in lexicographic order of
    ``instance.agents`` (see the module docstring for the cuts).

    Rows of ints with one entry per agent x are kept: each holder's bound
    lb, top (the most any holder's lb is worth to x) and cap (the most
    x's own share can be worth: dens[x] less the other holders' lb).  A
    row is packed into one int of w-bit fields, x's at bit w·x, each
    entry below 2**(w - 1): a sum of rows is one addition, and with the
    top (guard) bit of every field of u set, u - v keeps a field's guard
    bit iff v is no more than u there."""
    agents, ints, graph = instance.agents, instance.ints, instance.graph
    n, last = len(agents), len(comp_mask)
    prior = instance.prior_twin
    twin = [agents.index(prior[a]) if a in prior else -1 for a in agents]
    w = max(instance.dens.values()).bit_length() + 1
    shift = [(a, w * x) for x, a in enumerate(agents)]
    guard = sum([1 << (s + w - 1) for _, s in shift])
    values = [sum([v[a] << s for a, s in shift]) for v in comp_value]
    tree = graph.subtree_bits
    if tree:
        position = graph.edge_position
        comp_bits = [sum([1 << position[e] for e in edges]) for edges in comp_edges]
        cut_value = {1 << position[e]: sum([ints[a, e] << s for a, s in shift]) for e in cut}
    # per agent: the vertices it holds, its subtree's edges and its lb
    held, subtree, lb = [0] * n, [0] * n, [0] * n
    union, top, cap = 0, 0, sum([instance.dens[a] << s for a, s in shift])
    assign = [""] * last
    saved: list[tuple] = []  # per component given out, the state before
    tried = [0]  # per depth, how many agents were tried there
    while tried:
        k, i = len(saved), tried[-1]
        if k == last or i == n:
            if k == last:
                yield tuple(assign)
            tried.pop()
            if saved:
                i, held[i], subtree[i], lb[i], union, top, cap = saved.pop()
            continue
        tried[-1] = i + 1
        if twin[i] >= 0 and not held[twin[i]]:
            continue  # the orbit rule
        mask, edges, old = held[i] | comp_mask[k], subtree[i], lb[i]
        new = old + values[k]
        if tree and held[i]:  # the subtree now links two or more components
            edges |= comp_bits[k]
            for below, bit in tree:
                if not edges & bit and 0 != mask & below != mask:
                    edges |= bit
                    new += cut_value.get(bit, 0)
            if edges & (union ^ subtree[i]):
                continue  # (a) or (b): it meets another holder's subtree
        elif tree:
            edges = comp_bits[k]
            if edges & union:
                continue  # (b): another holder's subtree crosses it
        # (c): every other agent's cap falls by what lb_i gained, and top
        # takes the larger of top and lb_i in each field, where the guard
        # bit of top - lb_i survives
        gain = new - old
        grown_cap = cap - gain + (gain & ((1 << w) - 1) << w * i)
        larger = ((top | guard) - new) & guard
        larger |= larger - (larger >> (w - 1))
        grown_top = top & larger | new & ~larger
        if ((grown_cap | guard) - grown_top) & guard != guard:
            continue
        saved.append((i, held[i], subtree[i], old, union, top, cap))
        held[i], subtree[i], lb[i] = mask, edges, new
        union, top, cap = union | edges, grown_top, grown_cap
        assign[k] = agents[i]
        tried.append(0)


def solve_with_cut_set(instance: Instance, cut: Sequence[str]) -> Verdict:
    """Decide existence of an envy-free assignment in which every
    component of G - cut goes wholly to one agent.

    A yes verdict ships a verified assignment; no means no assignment
    within this restricted scope exists.  What does not depend on the cut
    is cached on the instance and its graph.  The component assignments
    are walked depth first, one per orbit of identical agents, and a
    prefix is cut when two holders' subtrees share an edge on a tree, or
    when some holder's bound is worth more to an agent than the most that
    agent's own share can be (see the module docstring).  At each
    assignment the walk reaches, each held set's options are worked out
    once per cut, on first use, and each connector combo goes through the
    envy check before its LPs.
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
    comp_value = [{a: sum([ints[a, g] for g in edges]) for a in agents} for edges in comp_edges]
    # per held set: (connector, edges owned whole, their value to each agent)
    options_of: dict[tuple[int, ...], list[tuple]] = {}

    def find_options(held: tuple[int, ...]) -> list[tuple]:
        own_edges = [e for k in held for e in comp_edges[k]]
        held_mask = sum([comp_mask[k] for k in held])
        base = {a: sum([comp_value[k][a] for k in held]) for a in agents}
        found = options_of[held] = []
        for connector in _connector_choices(masks, cut, own_edges, held_mask):
            if vdgc and any((end_bits[e][0] | end_bits[e][1]) & ~held_mask for e in connector):
                continue
            owned = tuple(sorted(own_edges + list(connector), key=position.get))
            values = {a: v + sum([ints[a, e] for e in connector]) for a, v in base.items()}
            found.append((connector, owned, values))
        return found

    zero = dict.fromkeys(agents, 0)
    for comp_assign in _assignments(instance, cut, comp_mask, comp_edges, comp_value):
        held: dict[str, tuple[int, ...]] = {}
        for k, agent in enumerate(comp_assign):
            held[agent] = held.get(agent, ()) + (k,)
        holders = [a for a in agents if a in held]
        floaters = [a for a in agents if a not in held]
        keys = [held[a] for a in holders]
        choices = [options_of[h] if h in options_of else find_options(h) for h in keys]
        for combo in product(*choices):
            connectors, owned, values = zip(*combo)
            used = frozenset().union(*connectors)
            if len(used) < sum(map(len, connectors)):
                continue  # two holders want the same connector edge
            f_prime = sorted(cut - used, key=position.get)
            end_owners = {e: tuple(comp_assign[k] for k in end_comps[e]) for e in f_prime}
            limit = {
                a: v[a] + sum(ints[a, e] for e in f_prime if a in end_owners[e])
                for a, v in zip(holders, values)
            }
            if _must_envy(values, limit):
                continue
            whole_value = dict.fromkeys(floaters, zero) | dict(zip(holders, values))
            # a floater inside e holds at most e: it must envy a holder whose
            # whole edges are worth more to it, and anyone if e is worth 0
            most = {a: max([v[a] for v in values]) for a in floaters}
            options = [
                [e for e in f_prime if ints[a, e] > 0 and ints[a, e] >= most[a]] for a in floaters
            ]
            for placement in product(*options):
                insiders: dict[str, list[str]] = {}
                for agent, e in zip(floaters, placement):
                    insiders.setdefault(e, []).append(agent)
                result = lp_feasible(
                    _build_cut_lp(instance, f_prime, end_owners, insiders, whole_value)
                )
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
