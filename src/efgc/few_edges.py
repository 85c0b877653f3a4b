"""Decision procedure for arbitrary connected graphs with few edges.

The search first guesses, for both ends of every edge, the agent whose
piece contains that end (one map per orbit of identical agents, see
``orbit_leaders``), plus the number n[e] of agents placed fully inside
each edge (an initial branch).  It finishes each initial branch
along one of two routes and lets an exact LP fill in the lengths:

* explicit placements: put every outsider (an agent holding no end) on
  an edge it values, n[e] on edge e, solve one LP with an envy row per
  ordered agent pair, and tile the first feasible placement;
* the paper's route: guess envy-critical agents -- per ordered edge
  pair, the inside agent closest to envying the other edge, and per
  (edge, holder) pair, the one that envies the holder most at a sample
  point of one cell of the envy-comparison arrangement, by the int test
  the LP's rows read too (``_envies_no_more``) -- solve the LP, pin them
  and match the rest to leftover intervals worth their best piece.

With m outsiders, h hot edges (n[e] > 0) and H holders, a branch has
m!/prod n[e]! placements and at most max(1, m)^(h(h-1) + hH) critical
guesses per cell; it takes the explicit route when that is no more
(``_explicit_is_no_larger``).  The paper's route stays for the paper's
bound: placements alone grow exponentially in m, the smaller count is
polynomial for a fixed number of edges.  The rule guards that bound; it
is no speed threshold, as the paper's route is far slower on every
branch small enough to time.  Both routes are exact for their branch.

Only consistent guesses are generated (under VDGC, one owner per
vertex), and each LP states each constraint once, as ``build_lp`` and
``_holder_blocks`` explain.  Any produced assignment is re-verified.
Sample points are enumerated per holder: holders' length variables are
disjoint, so the joint cells are the product of the per-holder ones.

An initial branch in which some holder must envy another whatever the
lengths is skipped before any LP (``_holders_must_envy``), and so is a
placement that makes an outsider envy a holder whatever the lengths
(``_placements``); both tests are in ints, and every LP built goes
straight to the simplex.

The witness of a feasible LP fixes every length, and its non-negativity
and tiling rows hold, so ``extract_assignment`` tiles it straight into
pieces, in ints over one denominator, with one ``tile_spans`` per edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Iterable, Iterator, Mapping, Sequence

from efgc.cells import (
    endpoint_var,
    enumerate_sign_conditions,
    guessed_pieces,
    ordering_forms,
)
from efgc.linprog import EQ, GE, Feasible, LinearSystem, lp_feasible
from efgc.matching import compatibility_graph, is_perfect, max_bipartite_matching
from efgc.model import (
    Assignment,
    Instance,
    InternalError,
    Piece,
    Variant,
    Verdict,
    orbit_leaders,
    piece_utility,
    tile_spans,
    verify_assignment,
)


def delta_var(edge: str) -> str:
    return f"d_{edge}"


@dataclass(frozen=True)
class BranchGuess:
    """One node of the search tree.

    ``endpoint_agent`` maps (edge, end) to the agent holding that end,
    ``n`` counts the agents placed fully inside each edge, and ``holders``
    lists the agents holding an end, in ``instance.agents`` order.  On the
    paper's route the critical-agent maps plus the sample point pin down
    the envy rows; on the explicit route ``placement`` maps every outsider
    to its edge.  Either way, the agents a guess puts on an edge are pinned
    there: they take that edge's leftmost inside intervals in agent order.
    """

    endpoint_agent: Mapping[tuple[str, int], str]
    holders: tuple[str, ...]
    n: Mapping[str, int]
    pair_critical: Mapping[tuple[str, str], str] = field(default_factory=dict)
    vertex_critical: Mapping[tuple[str, str], str] = field(default_factory=dict)
    sample_point: Mapping[str, Fraction] = field(default_factory=dict)
    placement: Mapping[str, str] | None = None


def _holder_links(instance: Instance, endpoint_agent, vertex_of) -> list[tuple[set[str], list[str]]]:
    """Per holder whose ends sit at two or more vertices: those vertices,
    and the edges whose two ends are both guessed for the holder;
    ``vertex_of`` maps each edge end to its vertex."""
    graph = instance.graph
    ends: dict[str, set[str]] = {}
    for slot, agent in endpoint_agent.items():
        ends.setdefault(agent, set()).add(vertex_of[slot])
    return [
        (vertices, [e for e in graph.edge_ids if endpoint_agent[e, 0] == a == endpoint_agent[e, 1]])
        for a, vertices in ends.items() if len(vertices) > 1
    ]


def _linked(instance: Instance, links, n) -> bool:
    """Can each holder of ``links`` link its vertices through the edges
    it owns outright: its two-end edges with nobody inside?"""
    for vertices, both in links:
        root = instance.graph.roots([e for e in both if not n.get(e, 0)])
        if len({root[v] for v in vertices}) > 1:
            return False
    return True


def check_connected_guesses(instance: Instance, endpoint_agent, n) -> bool:
    """Each holder's guessed ends must be linkable through edges that the
    holder owns outright (both ends guessed for it, nobody inside)."""
    vertex_of = {(e, i): instance.graph.coord_vertex(e, i) for e, i in endpoint_agent}
    return _linked(instance, _holder_links(instance, endpoint_agent, vertex_of), n)


def enumerate_initial_branches(instance: Instance) -> Iterator[BranchGuess]:
    """One endpoint-holder map per orbit of identical agents, crossed with
    every inside-count map placing exactly the agents that hold no end,
    minus the guesses whose holders' ends cannot be linked; in lexicographic
    order of the edge ends (edge by edge, end 0 first), then of the counts.

    Under VDGC all ends at one vertex belong to one agent, so one owner
    is guessed per vertex, the vertices taken in the order they first
    appear among the edge ends.  Two consistent maps first differ at the
    first appearance of some vertex, so this yields the same maps in the
    same order as filtering all maps of the ends; the order is kept
    because the first feasible branch gives the witness.
    """
    graph = instance.graph
    agents = instance.agents
    edges = graph.edge_ids
    slots = [(e, i) for e in edges for i in (0, 1)]
    vertex_of = {(e, i): graph.coord_vertex(e, i) for e, i in slots}
    # each slot's owner is that of its unit: its vertex under VDGC, else itself
    keys = list(vertex_of.values()) if instance.variant is Variant.VDGC else slots
    units = list(dict.fromkeys(keys))
    counts_by_sum: dict[int, list[dict[str, int]]] = {}
    for counts in product(range(len(agents) + 1), repeat=len(edges)):
        counts_by_sum.setdefault(sum(counts), []).append(dict(zip(edges, counts)))
    for combo in orbit_leaders(instance, len(units)):
        owner = dict(zip(units, combo))
        ep = {slot: owner[key] for slot, key in zip(slots, keys)}
        holders = tuple([a for a in agents if a in combo])
        links = _holder_links(instance, ep, vertex_of)
        for n in counts_by_sum.get(len(agents) - len(holders), ()):
            if _linked(instance, links, n):
                yield BranchGuess(ep, holders, n)


def _ratio_ge(instance: Instance, a1: str, a2: str, e: str, f: str) -> bool:
    """Division-free test for u_a1(e)/u_a1(f) >= u_a2(e)/u_a2(f), on
    ints: each side carries both agents' denominators once."""
    ints = instance.ints
    return ints[a1, e] * ints[a2, f] >= ints[a1, f] * ints[a2, e]


def _hot_edges(instance: Instance, n) -> list[str]:
    return [e for e in instance.graph.edge_ids if n[e] > 0]


def _explicit_is_no_larger(counts: Iterable[int], holders: int) -> bool:
    """The route rule: are the branch's explicit placements, m!/prod n[e]!,
    no more than the paper route's unpruned guess product,
    max(1, m)^(h(h-1) + hH), for m outsiders and h hot edges?"""
    hot = [k for k in counts if k]
    m, h = sum(hot), len(hot)
    return factorial(m) // prod(map(factorial, hot)) <= max(1, m) ** (h * (h - 1) + h * holders)


def _placements(instance: Instance, base: BranchGuess) -> Iterator[dict]:
    """Every map of the outsiders to edges that puts n[e] of them on edge
    e, in lexicographic order (agents in turn, edges in graph order),
    less those that make an outsider b envy whatever the lengths.  A
    holder's outright edges (both ends its, nobody inside) lose nothing
    to any length, and on e, b's piece d_e is at most 1/n[e] of e, so b's
    envy row against a holder has maximum ints[b, e]/n[e] less the
    holder's outright edges' value to b.  With top[b] the most that one
    holder's outright edges are worth to b, b is offered e only when
    ints[b, e] > 0 and ints[b, e] >= n[e]*top[b].  b's rows against the
    other inside pieces never go negative, nor do the holders' against
    b's, and the holders' rows against each other are
    ``_holders_must_envy``'s."""
    ints, ep, n = instance.ints, base.endpoint_agent, base.n
    outsiders = [a for a in instance.agents if a not in base.holders]
    outright: dict[str, list[str]] = {}
    for e, k in n.items():
        if not k and ep[e, 0] == ep[e, 1]:
            outright.setdefault(ep[e, 0], []).append(e)
    top = {
        b: max([sum([ints[b, e] for e in edges]) for edges in outright.values()], default=0)
        for b in outsiders
    }
    offers = [
        [e for e, k in n.items() if k and ints[b, e] > 0 and ints[b, e] >= k * top[b]]
        for b in outsiders
    ]
    left = dict(n)

    def place(i: int) -> Iterator[dict]:
        if i == len(outsiders):
            yield {}
            return
        for e in offers[i]:
            if left[e]:
                left[e] -= 1
                for rest in place(i + 1):
                    yield {outsiders[i]: e, **rest}
                left[e] += 1

    return place(0)


def _pin_map(guess_maps: Sequence[Mapping]) -> dict[str, str] | None:
    """Collect agent -> edge pins; None when an agent is pinned twice."""
    pinned: dict[str, str] = {}
    for mapping in guess_maps:
        for key, agent in mapping.items():
            edge = key[0]
            if pinned.setdefault(agent, edge) != edge:
                return None
    return pinned


def _placed_inside(
    instance: Instance, n, pair_critical: Mapping, *more: Mapping
) -> dict[str, list[str]] | None:
    """The agents that the critical guesses place inside each edge, or
    None when the guesses contradict: an agent on two edges, more agents
    on an edge than it has inside, or an agent inside e below the
    pair-critical agent of (e, f) in the (e, f) ratio order."""
    pinned = _pin_map([pair_critical, *more])
    if pinned is None:
        return None
    inside: dict[str, list[str]] = {}
    for agent, edge in pinned.items():
        inside.setdefault(edge, []).append(agent)
    if any(len(placed) > n[e] for e, placed in inside.items()):
        return None
    for (e, f), low in pair_critical.items():
        if not all(_ratio_ge(instance, other, low, e, f) for other in inside[e]):
            return None
    return inside


def enumerate_pair_critical(instance: Instance, guess: BranchGuess) -> Iterator[dict]:
    """Guesses of the inside agent per ordered edge pair that is closest
    (by utility ratio) to envying the second edge."""
    hot = _hot_edges(instance, guess.n)
    pairs = [(e, f) for e in hot for f in hot if e != f]
    if not pairs:
        yield {}
        return
    outsiders = [a for a in instance.agents if a not in guess.holders]
    for combo in product(outsiders, repeat=len(pairs)):
        pc = dict(zip(pairs, combo))
        if _placed_inside(instance, guess.n, pc) is not None:
            yield pc


def _sample_values(instance: Instance, guess: BranchGuess, sample: Mapping) -> dict:
    """Each outsider b's value of each holder's ends at the sample point,
    times dens[b]: b's ints over the ends' lengths, keyed (b, holder)."""
    ints, pieces = instance.ints, guessed_pieces(guess.endpoint_agent)
    return {
        (b, holder): sum([ints[b, e] * sample.get(endpoint_var(e, i), 0) for e, i in pieces[holder]])
        for b in instance.agents if b not in guess.holders
        for holder in guess.holders
    }


def _envies_no_more(ints, at_sample, b: str, alpha: str, e: str, holder: str) -> bool:
    """Does b, inside e, envy ``holder`` no more than alpha does at the
    sample?  u_b(e) * s_alpha >= u_alpha(e) * s_b over ``_sample_values``,
    both sides times dens[b] * dens[alpha]."""
    return ints[b, e] * at_sample[alpha, holder] >= ints[alpha, e] * at_sample[b, holder]


def enumerate_vertex_critical(
    instance: Instance, guess: BranchGuess, pair_critical: Mapping, sample: Mapping
) -> Iterator[dict]:
    """Guesses of the inside agent per (edge, holder) pair that envies
    the holder the most, judged at the sample point: every other agent
    guessed inside e envies the holder no more (``_envies_no_more``)."""
    hot = _hot_edges(instance, guess.n)
    slots = [(e, a) for e in hot for a in guess.holders]
    if not slots:
        yield {}
        return
    ints, at_sample = instance.ints, _sample_values(instance, guess, sample)
    outsiders = [a for a in instance.agents if a not in guess.holders]
    for combo in product(outsiders, repeat=len(slots)):
        vc = dict(zip(slots, combo))
        inside = _placed_inside(instance, guess.n, pair_critical, vc)
        if inside is not None and all(
            _envies_no_more(ints, at_sample, other, alpha, e, holder)
            for (e, holder), alpha in vc.items()
            for other in inside[e]
        ):
            yield vc


def build_lp(instance: Instance, guess: BranchGuess) -> LinearSystem:
    """The length program of one fully guessed branch, on either route
    (``_explicit_is_no_larger`` picks one per initial branch).

    Variables per edge: the two endpoint lengths and, on an edge with
    agents inside (a hot edge), the shared inside length d_e.
    Constraints: non-negativity; per-edge tiling; mutual envy among
    endpoint holders; holders against the inside pieces of hot edges.
    Explicit route: each placed outsider against the other hot edges and
    every holder, so every ordered agent pair has its envy row.  Paper's
    route: the guessed pair-critical agents against their target edges
    and, for every agent who envies the holder at the sample point no
    more than the vertex-critical agent does, that agent against the holder.
    On an edge with nobody inside, d_e would appear only in d_e >= 0 and
    in "holder >= u * d_e", all satisfied by d_e = 0 because holder
    values are non-negative, so the variable and its rows are left out.
    Each row is built from the valuer's ints (``Instance.ints``), in
    canonical form in one pass: the terms it joins have disjoint variables.
    """
    graph = instance.graph
    edges = graph.edge_ids
    ints, dens = instance.ints, instance.dens
    hot = _hot_edges(instance, guess.n)
    system = LinearSystem()  # the bound rows declare the variables, edge by edge
    pieces = guessed_pieces(guess.endpoint_agent)
    holders = guess.holders
    values: dict[tuple[str, str], list[tuple[str, int]]] = {}

    def value(valuer: str, holder: str) -> list[tuple[str, int]]:
        if (valuer, holder) not in values:
            values[valuer, holder] = sorted(
                (endpoint_var(e, i), c) for e, i in pieces[holder] if (c := ints[valuer, e])
            )
        return values[valuer, holder]

    def envy(valuer: str, *terms: tuple[str, int]):
        system.add_row(tuple(sorted(t for t in terms if t[1])), 0, dens[valuer], GE)

    for e in edges:
        x0, d, x1 = endpoint_var(e, 0), delta_var(e), endpoint_var(e, 1)
        for var in (x0, d, x1) if guess.n[e] else (x0, x1):
            system.add_row(((var, 1),), 0, 1, GE)
        tiling = ((x0, 1), (x1, 1))
        if guess.n[e]:
            tiling = ((d, guess.n[e]),) + tiling
        system.add_row(tiling, -1, 1, EQ)
    for a in holders:
        own = value(a, a)
        for b in holders:
            if a != b:
                envy(a, *own, *((v, -c) for v, c in value(a, b)))
        for e in hot:
            envy(a, *own, (delta_var(e), -ints[a, e]))
    if guess.placement is not None:
        start = len(system.rows)
        for b, e in guess.placement.items():
            mine = (delta_var(e), ints[b, e])
            others = [[(delta_var(f), -ints[b, f])] for f in hot if f != e]
            for terms in others + [[(v, -c) for v, c in value(b, h)] for h in holders]:
                envy(b, mine, *terms)
        # identical agents on one edge give equal rows: keep the first of each
        system.rows[start:] = list(dict.fromkeys(system.rows[start:]))
        return system
    for (e, f) in sorted(guess.pair_critical):
        agent = guess.pair_critical[(e, f)]
        envy(agent, (delta_var(e), ints[agent, e]), (delta_var(f), -ints[agent, f]))
    outsiders = [a for a in instance.agents if a not in holders]
    at_sample = _sample_values(instance, guess, guess.sample_point)
    for e in hot:
        for holder in holders:
            alpha = guess.vertex_critical[(e, holder)]
            for b in outsiders:
                if _envies_no_more(ints, at_sample, b, alpha, e, holder):
                    envy(b, (delta_var(e), ints[b, e]), *((v, -c) for v, c in value(b, holder)))
    return system


def _holders_must_envy(ints, base: BranchGuess) -> bool:
    """Does a holder a value the edges where it holds an end below those a
    holder b owns outright (both ends, nobody inside)?  That is the maximum
    of a's envy row against b over the tiling simplices in every LP of the
    branch, so a's row is negative whatever the lengths.  The envied b is
    the outer loop: the endpoint maps give the first ends to the earliest
    agents, so those most often own an edge outright."""
    ep, n = base.endpoint_agent, base.n
    return any(
        sum(ints[a, e] for e in n if a in (ep[e, 0], ep[e, 1]))
        < sum(ints[a, e] for e in n if ep[e, 0] == b == ep[e, 1] and not n[e])
        for b in base.holders for a in base.holders if a != b
    )


def extract_assignment(
    instance: Instance, guess: BranchGuess, result: Feasible
) -> tuple[dict[str, Piece], list[Piece]]:
    """Tile a feasible LP's witness into pieces, one ``tile_spans`` per edge.

    Each edge is laid out left to right as its end-0 holder's interval
    (x0), one inside interval of length d_e per agent pinned to the edge
    (placed or guessed critical), in agent order, then the free inside
    intervals, then its end-1 holder's interval (x1); d_e = 0 where the
    LP has no d_e, all in ints over the witness's denominator.
    The LP's rows fix every length, so no length is re-checked here.
    Returns the pieces of the holders and pinned agents, in agent order,
    and the free intervals in edge order.
    """
    pinned = guess.placement
    if pinned is None:
        pinned = _pin_map([guess.pair_critical, guess.vertex_critical])
        if pinned is None:
            raise InternalError("a critical agent is pinned to two edges")
    den, length = result.den, result.point
    buckets: dict[str, list] = {a: [] for a in instance.agents}
    leftovers = []
    for e in instance.graph.edge_ids:
        d = length.get(delta_var(e), 0)
        inside = [a for a in instance.agents if pinned.get(a) == e]
        segments = [(guess.endpoint_agent[e, 0], length[endpoint_var(e, 0)])]
        segments += [(a, d) for a in inside]
        segments += [((e, j), d) for j in range(len(inside), guess.n[e])]
        segments.append((guess.endpoint_agent[e, 1], length[endpoint_var(e, 1)]))
        for owner, span in tile_spans(e, segments, den):
            if owner in buckets:
                buckets[owner].append(span)
            else:
                leftovers.append(Piece.tiled(den, [span]))
    return {a: Piece.tiled(den, b) for a, b in buckets.items() if b}, leftovers


def _holder_blocks(instance: Instance, guess: BranchGuess):
    """Per-holder comparison forms and bounded region on the holder's
    own length variables (holders' variable sets are disjoint).

    The region is x >= 0 on each held end plus, per held edge, one row
    saying that its held ends sum to at most 1; with x >= 0 that row
    also bounds each end by 1, so no separate x <= 1 row is needed.
    """
    pieces = guessed_pieces(guess.endpoint_agent)
    hot = _hot_edges(instance, guess.n)
    blocks = []
    if not hot:
        return blocks
    for holder in guess.holders:
        held = pieces[holder]  # sorted by edge, then end
        region = LinearSystem()
        for e, i in held:
            region.add_row(((endpoint_var(e, i), 1),), 0, 1, GE)
        for e in dict.fromkeys(e for e, _ in held):
            ends = tuple((endpoint_var(f, i), -1) for f, i in held if f == e)
            region.add_row(ends, 1, 1, GE)
        blocks.append((ordering_forms(instance, held, hot), region))
    return blocks


def _sample_points(instance: Instance, guess: BranchGuess) -> Iterator[dict]:
    """Sample points covering every combination of per-holder envy
    orderings; one witness per combined cell."""
    blocks = _holder_blocks(instance, guess)
    if not blocks:
        yield {}
        return
    per_block = [enumerate_sign_conditions(forms, region) for forms, region in blocks]
    for combo in product(*per_block):
        point: dict[str, Fraction] = {}
        for cw in combo:
            point.update(cw.point)
        yield point


def _complete_with_matching(
    instance: Instance, guess: BranchGuess, partial: dict, leftovers: list[Piece]
) -> Assignment | None:
    full_partition = [*partial.values(), *leftovers]
    best = {
        a: max(piece_utility(a, q, instance) for q in full_partition)
        for a in instance.agents
    }
    for agent, piece in partial.items():  # everyone there but the holders is pinned
        if agent not in guess.holders and piece_utility(agent, piece, instance) < best[agent]:
            return None  # a pinned agent would envy; reject the branch
    unassigned = [a for a in instance.agents if a not in partial]
    graph = compatibility_graph(instance, best, unassigned, leftovers)
    matching = max_bipartite_matching(graph)
    if not is_perfect(graph, matching):
        return None
    assignment = dict(partial)
    for li, ri in matching.items():
        assignment[unassigned[li]] = leftovers[ri]
    return Assignment(assignment)


def _paper_guesses(instance: Instance, base: BranchGuess) -> Iterator[BranchGuess]:
    """The paper's route: pair-critical guesses, sample points, vertex-critical guesses."""
    samples = None
    for pc in enumerate_pair_critical(instance, base):
        if samples is None:
            samples = list(_sample_points(instance, base))
        for sample in samples:
            for vc in enumerate_vertex_critical(instance, base, pc, sample):
                yield replace(base, pair_critical=pc, vertex_critical=vc, sample_point=sample)


def solve_few_edges(instance: Instance) -> Verdict:
    """Decide envy-free divisibility of an arbitrary connected graph.

    Explores the initial branches in a fixed order, each along the route
    with fewer guesses; the first feasible placement, or paper's guess
    whose leftover pieces admit a perfect compatibility matching, yields
    the witness.  The verdict is deterministic.
    """
    for base in enumerate_initial_branches(instance):
        if _holders_must_envy(instance.ints, base):
            continue
        if _explicit_is_no_larger(base.n.values(), len(base.holders)):
            guesses = (replace(base, placement=p) for p in _placements(instance, base))
        else:
            guesses = _paper_guesses(instance, base)
        for guess in guesses:
            if not isinstance(result := lp_feasible(build_lp(instance, guess)), Feasible):
                continue
            partial, leftovers = extract_assignment(instance, guess, result)
            if guess.placement is None:
                assignment = _complete_with_matching(instance, guess, partial, leftovers)
            else:  # everyone is placed, and the LP has every envy row
                assignment = Assignment(partial)
            if assignment is not None:
                report = verify_assignment(instance, assignment)
                if not report.valid:
                    raise InternalError(f"witness failed verification: {report.failures}")
                return Verdict(True, assignment)
    return Verdict(False, None)
