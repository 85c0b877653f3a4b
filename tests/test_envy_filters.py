"""The int envy filters of the two searches.

Each search drops, in ints and before building an LP, what must envy
whatever the lengths: the few-edges search a branch in which a holder
must envy another (``_holders_must_envy``, whose dict-scan reference is
``helpers.holders_must_envy``) and a placement that puts an
outsider on an edge worth too little to it (``_placements``); the
cut-set search a connector combo in which a holder must envy another
(``_must_envy``) and a floater's cut edge worth less to it than some
holder's whole edges.  These tests hold each filter to the ``Fraction``
maximum of each envy row over the LP's tiling simplices (``row_maxima``):
what a filter drops has a negative row, whose certificate verifies, and
no LP that gets built has one.
"""
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import efgc.component_lp as component_lp
import efgc.few_edges as few_edges
from efgc.component_lp import _maximal_cuts, solve_with_cut_set
from efgc.few_edges import build_lp, enumerate_initial_branches, solve_few_edges
from efgc.linprog import Feasible, Infeasible, lp_feasible, verify_certificate
from efgc.model import Variant, build_instance
from helpers import (
    GRAPH_SHAPES,
    components_without,
    connector_choices_reference,
    force_paper_route,
    holders_must_envy,
    identical_agents_corpus,
    negative_row,
    orbit_branches_reference,
    random_cycle_instance,
    random_graph_instance,
    random_path_instance,
    random_tree_instance,
    random_utilities,
    row_certificate,
    shared_rows,
    star3_identical,
)


def _few_edges_corpus(rng: random.Random, count: int, most_agents: int):
    instances = [star3_identical(), star3_identical("vdgc")]
    for _ in range(count):
        n_edges, n_agents = rng.randint(1, 3), rng.randint(2, most_agents)
        instances.append(random_graph_instance(rng, n_edges, n_agents, rng.choice(["gc", "vdgc"])))
    return instances


def _refuted(system, seen, key):
    """Assert that ``system`` has a row with a negative maximum, that its
    certificate and the simplex's verify, and count it under ``key``."""
    row = negative_row(system)
    assert row is not None and verify_certificate(system, row_certificate(system, row))
    result = lp_feasible(system)
    assert isinstance(result, Infeasible) and verify_certificate(system, result.certificate)
    seen[key] += 1


def _every_placement(inst, base):
    """The placements of ``_placements`` with no envy filter: each
    outsider on an edge it values above 0, n[e] on edge e, in the same
    order."""
    edges = inst.graph.edge_ids
    outsiders = [a for a in inst.agents if a not in base.holders]
    options = [[e for e in edges if base.n[e] and inst.ints[a, e] > 0] for a in outsiders]
    return [
        dict(zip(outsiders, edge_of))
        for edge_of in product(*options)
        if all(edge_of.count(e) == base.n[e] for e in edges)
    ]


def test_placement_filter_drops_exactly_the_placements_a_row_refutes():
    """On every initial branch the search yields, all of which the holder
    check keeps, ``_placements`` yields, in order, exactly the unfiltered
    placements whose LP has no row with a negative maximum; each one it
    drops is refuted by a row and infeasible, with verified certificates."""
    rng = random.Random(1616)
    seen = Counter()
    for inst in _few_edges_corpus(rng, 40, 4) + [inst for inst, _ in identical_agents_corpus()]:
        for base in enumerate_initial_branches(inst):
            assert not holders_must_envy(inst.ints, base), (inst, base)
            got = list(few_edges._placements(inst, base))
            kept = []
            for placement in _every_placement(inst, base):
                system = build_lp(inst, replace(base, placement=placement))
                if negative_row(system) is None:
                    kept.append(placement)
                    seen["kept"] += 1
                else:
                    _refuted(system, seen, "dropped")
            assert got == kept, (inst, base)
    assert min(seen["kept"], seen["dropped"]) > 50, seen


def test_a_refuting_shared_row_refutes_the_whole_branch():
    """On both routes, every guess of an initial branch builds an LP that
    starts with the same ``shared_rows`` rows; when one of them has a
    negative maximum, no LP of the branch is feasible.  The branches are
    the reference's, with no dead endpoint prefix cut, since this tests
    ``build_lp`` and not the search that meets them."""
    rng = random.Random(2323)
    corpus = _few_edges_corpus(rng, 12, 3)
    skipped = {False: 0, True: 0}
    for paper in (False, True):
        for inst in corpus:
            for base in orbit_branches_reference(inst):
                if paper:
                    guesses = list(few_edges._paper_guesses(inst, base))
                else:
                    guesses = [replace(base, placement=p) for p in _every_placement(inst, base)]
                    if len(base.holders) == len(inst.agents):  # n = 0 on every edge: two
                        # bounds and a tiling row per edge, then one row per ordered holder pair
                        holders = len(base.holders)
                        rows = 3 * len(base.n) + holders * (holders - 1)
                        assert len(build_lp(inst, guesses[0]).rows) == rows
                systems = [build_lp(inst, guess) for guess in guesses]
                shared = shared_rows(inst, base)
                assert len({tuple(system.rows[:shared]) for system in systems}) <= 1
                row = negative_row(systems[0]) if systems else None
                if row is not None and row < shared:
                    skipped[paper] += 1
                    assert not any(isinstance(lp_feasible(s), Feasible) for s in systems)
    assert min(skipped.values()) > 100, skipped


AGENTS3, EDGES4 = ["a1", "a2", "a3"], [e for e, _, _ in GRAPH_SHAPES[4][-1][1]]


def _route_guesses(inst, base):
    """The guesses ``solve_few_edges`` makes for an initial branch, on the
    route its (possibly patched) route rule picks."""
    if few_edges._explicit_is_no_larger(base.n.values(), len(base.holders)):
        return (replace(base, placement=p) for p in few_edges._placements(inst, base))
    return few_edges._paper_guesses(inst, base)


def test_holder_check_skips_exactly_the_branches_a_shared_row_refutes(monkeypatch):
    """On both routes, over the reference's initial branches (no dead
    prefix cut), ``holders_must_envy`` refutes a branch exactly when the
    first row with a negative maximum of the branch's first LP (and of its
    shared rows alone, for a branch with no guess) lies below
    ``shared_rows``; that row is always a holder's row against another
    holder, never one against an inside piece.  The search yields the
    reference's branches less exactly those it refutes, and a search that
    answers No opens each of those, in order."""
    rng = random.Random(1717)
    seen = Counter()
    for paper in (False, True):
        with monkeypatch.context() as patch:
            if paper:
                force_paper_route(patch)
            opened = []
            search = few_edges.enumerate_initial_branches

            def recording(inst):
                for base in search(inst):
                    opened.append(base)
                    yield base

            patch.setattr(few_edges, "enumerate_initial_branches", recording)
            nos = [inst for inst, yes in identical_agents_corpus() if not yes]
            paws = [  # a holder can own a hot edge outright on no smaller shape
                build_instance(*GRAPH_SHAPES[4][-1], random_utilities(rng, AGENTS3, EDGES4), variant)
                for variant in ("gc", "vdgc") for _ in range(2)
            ]
            for inst in _few_edges_corpus(rng, 16, 3 if paper else 4) + nos + paws:
                ints, live = inst.ints, []
                for base in orbit_branches_reference(inst):
                    shared, lps = shared_rows(inst, base), [replace(base, placement={})]
                    first = next(_route_guesses(inst, base), None)
                    lps += [first] if first is not None else []
                    skip = holders_must_envy(ints, base)
                    for guess in lps:
                        row = negative_row(build_lp(inst, guess))
                        assert skip == (row is not None and row < shared), (inst, base)
                    if skip:
                        # bounds and tiling, then per holder: its H - 1
                        # rows against holders and h against inside pieces
                        hot = sum(map(bool, base.n.values()))
                        block = len(base.holders) - 1 + hot
                        assert (row - 3 * len(base.n) - hot) % block < len(base.holders) - 1
                    else:
                        live.append(base)
                    seen[paper, skip, first is not None] += 1
                    ep = base.endpoint_agent
                    seen[paper, "hot edge held whole"] += any(
                        base.n[e] and ep[e, 0] == ep[e, 1] for e in base.n
                    ) and len(base.holders) > 1
                assert list(search(inst)) == live, inst
                del opened[:]
                if not solve_few_edges(inst).yes:
                    assert opened == live
                    seen[paper, "no"] += 1
    assert min(seen[paper, skip, True] for paper in (False, True) for skip in (False, True)) > 50
    for key in ("no", "hot edge held whole"):
        assert min(seen[False, key], seen[True, key]) > 5, seen


def _share_lp_tree(inst, cut):
    """The share LPs of ``solve_with_cut_set`` with no envy check before
    them, grouped by component assignment (with the assignment and
    whether some agent holds no component), then by connector combo, in
    search order, each with whether the floaters' edge filter keeps it:
    no holder's whole edges are worth more to a floater than its edge.
    Each holder's connectors come from the subset-search reference and
    its whole-edge values are summed afresh from its edges."""
    graph, ints, cut = inst.graph, inst.ints, frozenset(cut)
    position = {e: i for i, e in enumerate(graph.edge_ids)}
    comps = components_without(graph, cut)
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp.vertices}
    end_comps = {e: tuple(comp_of[graph.coord_vertex(e, end)] for end in (0, 1)) for e in cut}

    def options(held):
        own = [e for k in held for e in comps[k].edges]
        vertices = frozenset().union(*(comps[k].vertices for k in held))
        for connector in connector_choices_reference(graph, cut, own, vertices):
            ends = [k for e in connector for k in end_comps[e]]
            if inst.variant is Variant.GC or all(k in held for k in ends):
                yield connector, {a: sum(ints[a, e] for e in [*own, *connector]) for a in inst.agents}

    tree = []
    for comp_assign in product(inst.agents, repeat=len(comps)):
        held = {}
        for k, agent in enumerate(comp_assign):
            held.setdefault(agent, []).append(k)
        holders = [a for a in inst.agents if a in held]
        floaters = [a for a in inst.agents if a not in held]
        combos = []
        for combo in product(*(list(options(held[a])) for a in holders)):
            used = [e for connector, _ in combo for e in connector]
            if len(set(used)) < len(used):
                continue
            f_prime = sorted(cut.difference(used), key=position.get)
            end_owners = {e: tuple(comp_assign[k] for k in end_comps[e]) for e in f_prime}
            whole_value = {a: dict.fromkeys(inst.agents, 0) for a in floaters}
            whole_value |= {a: value for a, (_, value) in zip(holders, combo)}
            lps = []
            for placement in product(*([e for e in f_prime if ints[a, e]] for a in floaters)):
                insiders = {}
                for agent, e in zip(floaters, placement):
                    insiders.setdefault(e, []).append(agent)
                system = component_lp._build_cut_lp(inst, f_prime, end_owners, insiders, whole_value)
                kept = all(
                    ints[a, e] >= value[a] for a, e in zip(floaters, placement) for _, value in combo
                )
                lps.append((system, kept))
            combos.append(lps)
        tree.append((comp_assign, bool(floaters), combos))
    return tree


def _all_infeasible(lps, seen):
    for system, _ in lps:
        result = lp_feasible(system)
        assert isinstance(result, Infeasible) and verify_certificate(system, result.certificate)
        seen["skipped LPs"] += 1


def _match(tree, events, seen):
    """Walk the search's events, ("leaf", assignment) per component
    assignment the walk reaches, ("envy", skipped) per connector combo
    check and ("lp", system) per built LP, along the unpruned tree: every
    LP under an assignment the walk never reaches or under a skip is
    infeasible, every LP the edge filter drops has a row with a negative
    maximum, every other LP is built and has none, and the search stops
    at the first feasible one.  An assignment the walk never reaches was
    cut at its shortest prefix that no reached one shares."""
    reached = {leaf for kind, leaf in events if kind == "leaf"}
    alive = {leaf[:j] for leaf in reached for j in range(len(leaf) + 1)}
    dead = set()
    events = iter(events)
    for comp_assign, floaters, combos in tree:
        if comp_assign not in reached:
            prefixes = (comp_assign[:j] for j in range(len(comp_assign) + 1))
            prefix = next(p for p in prefixes if p not in alive)
            seen["prefix cut"] += prefix not in dead and len(prefix) < len(comp_assign)
            dead.add(prefix)
            _all_infeasible([lp for lps in combos for lp in lps], seen)
            continue
        assert next(events) == ("leaf", comp_assign)
        for lps in combos:
            kind, skipped = next(events)  # the connector combo's check
            assert kind == "envy"
            seen["with floaters"] += floaters and skipped
            if skipped:
                seen["combo"] += 1
                _all_infeasible(lps, seen)
                continue
            for system, kept in lps:
                if not kept:
                    _refuted(system, seen, "dropped placements")
                    continue
                kind, built = next(events)
                assert kind == "lp" and built.rows == system.rows
                assert negative_row(system) is None
                seen["built"] += 1
                if isinstance(lp_feasible(system), Feasible):
                    assert next(events, None) is None
                    return
    assert next(events, None) is None


def _cut_sets(inst):
    """The cut sets that the instance's tree or cycle wrapper tries."""
    graph, k = inst.graph, len(inst.agents)
    edges = [frozenset([e]) for e in graph.edge_ids]
    if graph.is_cycle():
        return _maximal_cuts(edges, k)
    if inst.variant is Variant.VDGC:
        return _maximal_cuts(edges, k - 1)
    return _maximal_cuts([frozenset(graph.incident_edges(v)) for v in graph.vertices] + edges, k)


def test_cut_set_envy_checks_skip_only_infeasible_lps(monkeypatch):
    """On seeded paths, stars, spiders and cycles of both variants with up
    to 4 agents, every share LP of every component assignment that the
    walk cuts, of every connector combo skipped before building it and
    of every placement the floaters' edge filter drops, is infeasible,
    with a verified certificate, and every LP it does not skip is built,
    in order, with no row of negative maximum; the combo check skips
    more than 50 times, also more than 50 times where some agent holds no
    component, the walk cuts more than 50 prefixes short of a whole
    assignment, and the edge filter drops more than 50 placements."""
    rng = random.Random(1818)
    events = []
    real_walk = component_lp._assignments
    real_check, real_build = component_lp._must_envy, component_lp._build_cut_lp

    def walk(*args):
        for leaf in real_walk(*args):
            events.append(("leaf", leaf))
            yield leaf

    def check(values, limit):
        events.append(("envy", real_check(values, limit)))
        return events[-1][1]

    def build(*args):
        events.append(("lp", real_build(*args)))
        return events[-1][1]

    monkeypatch.setattr(component_lp, "_assignments", walk)
    monkeypatch.setattr(component_lp, "_must_envy", check)
    monkeypatch.setattr(component_lp, "_build_cut_lp", build)
    seen = Counter()
    for _ in range(10):
        n_agents = rng.randint(2, 4)
        for variant in ("gc", "vdgc"):
            corpus = [
                random_path_instance(rng, rng.randint(1, 3), n_agents, variant),
                random_tree_instance(rng, rng.choice([3, 4]), n_agents, variant),
                random_cycle_instance(rng, rng.randint(3, 4), n_agents, variant),
                random_cycle_instance(rng, rng.randint(3, 4), 3, variant),
            ]
            for inst in corpus:
                for cut in _cut_sets(inst):
                    tree = _share_lp_tree(inst, cut)
                    del events[:]  # building the tree recorded its LPs too
                    solve_with_cut_set(inst, cut)
                    _match(tree, events, seen)
    gates = ("combo", "with floaters", "prefix cut", "dropped placements", "built")
    assert min(seen[gate] for gate in gates) > 50, seen
