"""The row test inside the two searches, and the envy checks before it.

``RowTest`` refutes an LP from one envy row against its tiling simplices
before the simplex.  These tests hold every refutation that the searches
can meet to ``lp_feasible`` and to an explicit Farkas certificate, check
that a refuting shared row of an initial branch refutes every LP of that
branch, and hold the checks that skip a branch, a component assignment
or a connector combo before any LP is built to the row test and to the
LPs they skip.
"""
import random
from collections import Counter
from dataclasses import replace
from itertools import product

import efgc.component_lp as component_lp
import efgc.few_edges as few_edges
from efgc.component_lp import (
    _maximal_cuts,
    solve_cycle,
    solve_tree_gc_bounded_degree,
    solve_tree_vdgc,
    solve_with_cut_set,
)
from efgc.few_edges import build_lp, enumerate_initial_branches, solve_few_edges
from efgc.linprog import Feasible, Infeasible, RowTest, lp_feasible, verify_certificate
from efgc.model import Variant, build_instance
from helpers import (
    GRAPH_SHAPES,
    components_without,
    connector_choices_reference,
    count_branch_skips,
    force_paper_route,
    identical_agents_corpus,
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


def _recording(module, name, built):
    original = getattr(module, name)

    def record(*args):
        system = original(*args)
        built.append(system)
        return system

    return record


def test_row_test_refutes_no_feasible_lp_of_either_search(monkeypatch):
    """Every LP that the few-edges search (both routes) and the cut-set
    search build: a refuted one is infeasible, with a certificate."""
    rng = random.Random(1616)
    built = []
    with monkeypatch.context() as patch:
        patch.setattr(few_edges, "build_lp", _recording(few_edges, "build_lp", built))
        patch.setattr(
            component_lp, "_build_cut_lp", _recording(component_lp, "_build_cut_lp", built)
        )
        for inst in _few_edges_corpus(rng, 14, 4):
            solve_few_edges(inst)
        with monkeypatch.context() as paper:
            force_paper_route(paper)
            for inst in _few_edges_corpus(rng, 10, 3):
                solve_few_edges(inst)
        for _ in range(12):
            n_edges, n_agents = rng.randint(1, 3), rng.randint(2, 4)
            for variant in ("gc", "vdgc"):
                tree = random_tree_instance(rng, n_edges, n_agents, variant)
                (solve_tree_vdgc if variant == "vdgc" else solve_tree_gc_bounded_degree)(tree)
                solve_cycle(random_cycle_instance(rng, rng.randint(3, 4), n_agents, variant))
            solve_tree_vdgc(random_path_instance(rng, n_edges, n_agents, "vdgc"))
    seen = {"refuted": 0, Feasible: 0, Infeasible: 0}
    for system in built:
        row = RowTest(system.rows).refuting_row(system.rows)
        result = lp_feasible(system)
        if row is not None:
            assert isinstance(result, Infeasible)
            assert verify_certificate(system, row_certificate(system, row))
            seen["refuted"] += 1
        else:
            seen[type(result)] += 1
    assert min(seen.values()) > 50, seen


def test_a_refuting_shared_row_refutes_the_whole_branch(monkeypatch):
    """On both routes, every guess of an initial branch builds an LP that
    starts with the same ``shared_rows`` rows, and the row test of those
    rows has the verdict of the full test on each LP; when one of them
    refutes, no LP of the branch is feasible."""
    rng = random.Random(2323)
    corpus = _few_edges_corpus(rng, 12, 3)
    skipped = {False: 0, True: 0}
    for paper in (False, True):
        for inst in corpus:
            for base in enumerate_initial_branches(inst):
                if paper:
                    guesses = list(few_edges._paper_guesses(inst, base))
                else:
                    outsiders = [a for a in inst.agents if a not in base.a_v]
                    placements = few_edges._placements(inst, outsiders, dict(base.n))
                    guesses = [replace(base, placement=p) for p in placements]
                    if not outsiders:  # n = 0 on every edge: two bounds and a
                        # tiling row per edge, then one row per ordered holder pair
                        holders = len(base.a_v)
                        rows = 3 * len(base.n) + holders * (holders - 1)
                        assert len(build_lp(inst, guesses[0]).rows) == rows
                systems = [build_lp(inst, guess) for guess in guesses]
                shared = shared_rows(inst, base)
                assert len({tuple(system.rows[:shared]) for system in systems}) <= 1
                for system in systems:
                    test = RowTest(system.rows[:shared])
                    full = RowTest(system.rows).refuting_row(system.rows)
                    assert test.refuting_row(system.rows) == full
                if systems and RowTest(systems[0].rows).refuting_row(systems[0].rows[:shared]) is not None:
                    skipped[paper] += 1
                    assert not any(isinstance(lp_feasible(s), Feasible) for s in systems)
    assert min(skipped.values()) > 100, skipped


AGENTS3, EDGES4 = ["a1", "a2", "a3"], [e for e, _, _ in GRAPH_SHAPES[4][-1][1]]


def _route_guesses(inst, base):
    """The guesses ``solve_few_edges`` makes for an initial branch, on the
    route its (possibly patched) route rule picks."""
    if few_edges._explicit_is_no_larger(base.n.values(), len(base.a_v)):
        outsiders = [a for a in inst.agents if a not in base.a_v]
        placements = few_edges._placements(inst, outsiders, dict(base.n))
        return (replace(base, placement=p) for p in placements)
    return few_edges._paper_guesses(inst, base)


def test_holder_check_skips_exactly_the_branches_a_shared_row_refutes(monkeypatch):
    """On both routes, the few-edges check skips an initial branch exactly
    when ``RowTest`` over the branch's first LP (and over its shared rows
    alone, for a branch with no guess) returns a row below
    ``shared_rows``; that row is always a holder's row against another
    holder, never one against an inside piece.  A search that answers No
    skips exactly those branches."""
    rng = random.Random(1717)
    seen = Counter()
    for paper in (False, True):
        with monkeypatch.context() as patch:
            if paper:
                force_paper_route(patch)
            skips = count_branch_skips(patch)
            nos = [inst for inst, yes in identical_agents_corpus() if not yes]
            paws = [  # a holder can own a hot edge outright on no smaller shape
                build_instance(*GRAPH_SHAPES[4][-1], random_utilities(rng, AGENTS3, EDGES4), variant)
                for variant in ("gc", "vdgc") for _ in range(2)
            ]
            for inst in _few_edges_corpus(rng, 16, 3 if paper else 4) + nos + paws:
                ints, refuted = inst.ints, []
                for base in enumerate_initial_branches(inst):
                    shared, lps = shared_rows(inst, base), [replace(base, placement={})]
                    first = next(_route_guesses(inst, base), None)
                    lps += [first] if first is not None else []
                    skip = few_edges._holders_must_envy(ints, base)
                    for guess in lps:
                        rows = build_lp(inst, guess).rows
                        row = RowTest(rows).refuting_row(rows)
                        assert skip == (row is not None and row < shared), (inst, base)
                    if skip:
                        refuted.append(base)
                        # bounds and tiling, then per holder: its H - 1
                        # rows against holders and h against inside pieces
                        hot = sum(map(bool, base.n.values()))
                        block = len(base.a_v) - 1 + hot
                        assert (row - 3 * len(base.n) - hot) % block < len(base.a_v) - 1
                    seen[paper, skip, first is not None] += 1
                    ep = base.endpoint_agent
                    seen[paper, "hot edge held whole"] += any(
                        base.n[e] and ep[e, 0] == ep[e, 1] for e in base.n
                    ) and len(base.a_v) > 1
                del skips[:]
                if not solve_few_edges(inst).yes:
                    assert skips == refuted
                    seen[paper, "no"] += 1
    assert min(seen[paper, skip, True] for paper in (False, True) for skip in (False, True)) > 50
    for key in ("no", "hot edge held whole"):
        assert min(seen[False, key], seen[True, key]) > 5, seen


def _share_lp_tree(inst, cut):
    """The share LPs of ``solve_with_cut_set`` with no envy check before
    them, grouped by component assignment (with whether some agent holds
    no component), then by connector combo, in search order; each
    holder's connectors from the subset-search reference and its
    whole-edge values summed afresh from its edges."""
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
                lps.append(component_lp._build_cut_lp(inst, f_prime, end_owners, insiders, whole_value))
            combos.append(lps)
        tree.append((bool(floaters), combos))
    return tree


def _all_infeasible(systems, seen):
    for system in systems:
        result = lp_feasible(system)
        assert isinstance(result, Infeasible) and verify_certificate(system, result.certificate)
        seen["skipped LPs"] += 1


def _match(tree, events, seen):
    """Walk the search's events, ("envy", skipped) per check and ("lp",
    system) per built LP, along the unpruned tree: every LP under a skip
    is infeasible, every other LP is built, and the search stops at the
    first feasible one."""
    events = iter(events)
    for floaters, combos in tree:
        kind, skipped = next(events)  # the component assignment's check
        assert kind == "envy"
        seen["with floaters"] += floaters and skipped
        if skipped:
            seen["assignment"] += 1
            _all_infeasible([system for lps in combos for system in lps], seen)
            continue
        for lps in combos:
            kind, skipped = next(events)  # the connector combo's check
            assert kind == "envy"
            seen["with floaters"] += floaters and skipped
            if skipped:
                seen["combo"] += 1
                _all_infeasible(lps, seen)
                continue
            for system in lps:
                kind, built = next(events)
                assert kind == "lp" and built.rows == system.rows
                if RowTest(system.rows).refuting_row(system.rows) is None:
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
    to 4 agents, every share LP of every component assignment or connector
    combo that ``solve_with_cut_set`` skips before building it is
    infeasible, with a verified certificate, and every LP it does not skip
    is built, in order; each check skips more than 50 times, also where
    some agent holds no component."""
    rng = random.Random(1818)
    events = []
    real_check, real_build = component_lp._must_envy, component_lp._build_cut_lp

    def check(values, limit):
        events.append(("envy", real_check(values, limit)))
        return events[-1][1]

    def build(*args):
        events.append(("lp", real_build(*args)))
        return events[-1][1]

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
            ]
            for inst in corpus:
                for cut in _cut_sets(inst):
                    tree = _share_lp_tree(inst, cut)
                    del events[:]  # building the tree recorded its LPs too
                    solve_with_cut_set(inst, cut)
                    _match(tree, events, seen)
    assert min(seen["assignment"], seen["combo"], seen["with floaters"]) > 50, seen
