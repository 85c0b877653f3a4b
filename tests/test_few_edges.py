import importlib
import io
import random
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest

import efgc.few_edges as few_edges
from efgc.cells import (
    endpoint_var,
    enumerate_sign_conditions,
    guessed_pieces,
    holdings_value_form,
)
from efgc.cli import emit_instance, parse_assignment, run
from efgc.component_lp import solve_cycle, solve_tree_vdgc
from efgc.few_edges import (
    BranchGuess,
    _holder_blocks,
    build_lp,
    delta_var,
    enumerate_initial_branches,
    extract_assignment,
    solve_few_edges,
)
from efgc.generators import (
    _explicit_lp,
    gen_ladder_tw2,
    gen_matching_plus_two,
    solve_explicit_oracle,
)
from efgc.linprog import (
    GE,
    Feasible,
    Infeasible,
    LinearForm,
    Optimal,
    lp_feasible,
    lp_max,
    verify_certificate,
)
from efgc.model import build_instance, verify_assignment
from helpers import (
    GRAPH_SHAPES,
    as_fractions,
    branches_of_map,
    count_branch_skips,
    criterion_4_instances,
    cycle,
    endpoint_prefix_dead,
    endpoint_units,
    extract_assignment_reference,
    force_paper_route,
    four_agent_triangles,
    forms_of,
    holder_region_reference,
    holders_must_envy,
    identical_agents_corpus,
    initial_branches_reference,
    least_in_orbit,
    lowest_terms,
    mixed_classes_corpus,
    numpart_family_solvable,
    orbit_maps_reference,
    path,
    random_cycle_instance,
    random_graph_instance,
    random_path_instance,
    random_tree_instance,
    random_utilities,
    single_edge,
    singleton_interval_lengths_agree,
    star,
    star3_identical,
)

F = Fraction


def branches(inst):
    return list(enumerate_initial_branches(inst))


def test_single_edge_one_agent_single_branch():
    got = branches(single_edge({"a": 1}))
    assert len(got) == 1
    only = got[0]
    assert only.endpoint_agent == {("e1", 0): "a", ("e1", 1): "a"}
    assert only.n == {"e1": 0}


def _single_edge_shapes(got):
    return {(g.endpoint_agent[("e1", 0)], g.endpoint_agent[("e1", 1)], g.n["e1"]) for g in got}


def test_single_edge_identical_agents_one_branch():
    # ("b", "a", 0) is ("a", "b", 0) with the identical agents renamed
    for utilities in ({"a": 1, "b": 1}, {"a": 1, "b": 2}):
        assert _single_edge_shapes(branches(single_edge(utilities))) == {("a", "b", 0)}


def test_vdgc_branch_rejects_vertex_conflicts():
    inst = path(2, {"a1": [1, 0], "a2": [0, 1]}, "vdgc")
    for g in branches(inst):
        # v2 sits at coordinate 1 of e1 and coordinate 0 of e2
        assert g.endpoint_agent[("e1", 1)] == g.endpoint_agent[("e2", 0)]


# a path listed out of vertex order: the ends first meet v2, then v3, then v1
OUT_OF_ORDER_PATH = (["v1", "v2", "v3"], [("e1", "v2", "v3"), ("e2", "v1", "v2")])


def test_initial_branches_match_reference():
    """With identical agents, the reference's branches whose endpoint map
    is least among its renamings (edge ends in reference order), in the
    reference's order; with distinct agents, every reference branch.
    Either way less every branch that ``holders_must_envy`` refutes: with
    every agent holding an end, which the walk's envy cut drops, and with
    outsiders, which the count vectors' envy test drops.  Both occur on
    this corpus, as do live branches in which a holder owns a hot edge
    (both ends, agents inside), some of which the rule would refute if it
    counted that edge as the holder's (on seeded paws: no smaller shape
    has one)."""
    dropped = Counter()

    def live(inst, reference):
        kept, refuted = [], []
        for b in reference:
            (refuted if holders_must_envy(inst.ints, b) else kept).append(b)
        dropped[bool(inst.prior_twin)] += len(refuted)
        dropped["outsiders"] += sum(len(b.holders) < len(inst.agents) for b in refuted)
        dropped["hot edge held whole"] += sum(map(_holds_a_hot_edge, kept))
        dropped["hot edge decides"] += sum(
            holders_must_envy(inst.ints, replace(b, n=dict.fromkeys(b.n, 0))) for b in kept
        )
        return kept

    shapes = [shape for n in (1, 2, 3, 4) for shape in GRAPH_SHAPES[n]]
    for vertices, edges in shapes + [OUT_OF_ORDER_PATH]:
        slots = [(e[0], i) for e in edges for i in (0, 1)]
        for n_agents in (1, 2, 3):
            agents = [f"a{i}" for i in range(1, n_agents + 1)]
            for variant in ("gc", "vdgc"):
                table = {a: {e[0]: 1 for e in edges} for a in agents}
                inst = build_instance(vertices, edges, table, variant)
                want = [
                    b for b in initial_branches_reference(inst)
                    if least_in_orbit([agents], agents, [b.endpoint_agent[s] for s in slots])
                ]
                assert branches(inst) == live(inst, want), (edges, n_agents, variant)
                if len(edges) > 1:  # a_i values the j-th edge, from 0, at (i + 1)^j
                    table = {a: {e[0]: (i + 2) ** j for j, e in enumerate(edges)}
                             for i, a in enumerate(agents)}
                    inst = build_instance(vertices, edges, table, variant)
                    assert branches(inst) == live(inst, initial_branches_reference(inst)), (
                        edges, n_agents, variant,
                    )
    rng = random.Random(3232)
    paw = GRAPH_SHAPES[4][-1]
    for _ in range(4):
        for variant in ("gc", "vdgc"):
            table = random_utilities(rng, ["a1", "a2", "a3"], [e for e, _, _ in paw[1]])
            inst = build_instance(*paw, table, variant)
            assert branches(inst) == live(inst, initial_branches_reference(inst)), (table, variant)
    assert dropped.pop("hot edge decides") > 10, dropped
    assert min(dropped.values()) > 50, dropped


def _holds_a_hot_edge(base):
    ep = base.endpoint_agent
    return any(base.n[e] and ep[e, 0] == ep[e, 1] for e in base.n)


def _walked_maps(monkeypatch, inst):
    """The branches of the search's walk, and the endpoint maps it reaches."""
    reached = []
    walk = few_edges._endpoint_maps

    def recording(*args):
        for leaf in walk(*args):
            reached.append(leaf[0])
            yield leaf

    with monkeypatch.context() as patch:
        patch.setattr(few_edges, "_endpoint_maps", recording)
        return branches(inst), reached


def test_walk_reaches_every_orbit_leader_that_has_a_live_branch(monkeypatch):
    # every shape of at most 3 edges (4 with two agents), with its ends in
    # a second order as well, 2-3 agents, both variants, distinct and
    # identical agents: the walk reaches the orbit leaders' endpoint maps
    # with no dead prefix (by the reference, one unit at a time), in
    # order; every map it drops has no branch that passes the oracle's
    # link test and that ``holders_must_envy`` does not refute; and its
    # branches are the reference's less those refuted
    rng = random.Random(3131)
    seen = Counter()
    shapes = [shape for n in (1, 2, 3, 4) for shape in GRAPH_SHAPES[n]] + [OUT_OF_ORDER_PATH]
    for vertices, edges in shapes:
        for n_agents in (2, 3) if len(edges) < 4 else (2,):
            agents = [f"a{i}" for i in range(1, n_agents + 1)]
            for variant in ("gc", "vdgc"):
                for identical in (False, True):
                    rows = [random_utilities(rng, agents[:1], [e for e, _, _ in edges])["a1"]]
                    while not identical and len(rows) < n_agents:
                        rows += random_utilities(rng, agents[:1], [e for e, _, _ in edges]).values()
                    table = {a: rows[i % len(rows)] for i, a in enumerate(agents)}
                    inst = build_instance(vertices, edges, table, variant)
                    got, reached = _walked_maps(monkeypatch, inst)
                    slots, keys = endpoint_units(inst)
                    units = list(dict.fromkeys(keys))
                    rank = [units.index(key) for key in keys]  # each slot's unit
                    every = orbit_maps_reference(inst)

                    def dead(ep):
                        return any(
                            endpoint_prefix_dead(inst, {s: ep[s] for s, r in zip(slots, rank) if r < j})
                            for j in range(1, len(units) + 1)
                        )

                    assert reached == [ep for ep in every if not dead(ep)], (table, edges, variant)
                    want, walked = [], 0
                    for ep in every:
                        live = [
                            b for b in branches_of_map(inst, ep)
                            if not holders_must_envy(inst.ints, b)
                        ]
                        want += live
                        if reached[walked:walked + 1] == [ep]:
                            walked += 1
                            seen[identical, "reached"] += 1
                            continue
                        assert not live, (table, edges, variant, ep)
                        seen[identical, "envy" if branches_of_map(inst, ep) else "link"] += 1
                    assert got == want, (table, edges, variant)
    assert min(seen.values()) > 50, seen


def test_build_lp_single_edge_forces_halves():
    inst = single_edge({"a": 1, "b": 1})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b"}, frozenset(["a", "b"]), {"e1": 0}
    )
    res = lp_feasible(build_lp(inst, guess))
    assert isinstance(res, Feasible)
    assert as_fractions(res)[endpoint_var("e1", 0)] == F(1, 2)
    assert as_fractions(res)[endpoint_var("e1", 1)] == F(1, 2)


def test_build_lp_star_unbalanced_split_infeasible():
    inst = star3_identical()
    guess = BranchGuess(
        {
            ("e1", 0): "a1",
            ("e1", 1): "a1",
            ("e2", 0): "a1",
            ("e2", 1): "a1",
            ("e3", 0): "a2",
            ("e3", 1): "a2",
        },
        frozenset(["a1", "a2"]),
        {"e1": 0, "e2": 0, "e3": 0},
    )
    system = build_lp(inst, guess)
    res = lp_feasible(system)
    assert isinstance(res, Infeasible)
    assert verify_certificate(system, res.certificate)


def test_build_lp_no_inside_agents_has_no_delta_constraints():
    inst = path(2, {"a1": [1, 0], "a2": [0, 1]})
    guess = BranchGuess(
        {("e1", 0): "a1", ("e1", 1): "a1", ("e2", 0): "a2", ("e2", 1): "a2"},
        frozenset(["a1", "a2"]),
        {"e1": 0, "e2": 0},
    )
    system = build_lp(inst, guess)
    # every variable of every row is declared, so this covers the rows too
    assert not [v for v in system.variables if v.startswith("d_")]


def _built_guesses(monkeypatch, instances):
    """Every (instance, guess) pair that the search builds an LP for
    along the paper's route, which is forced on every branch."""
    seen = []
    original = few_edges.build_lp

    def recording(inst, guess):
        seen.append((inst, guess))
        return original(inst, guess)

    with monkeypatch.context() as patch:
        opened = force_paper_route(patch)
        patch.setattr(few_edges, "build_lp", recording)
        for inst in instances:
            solve_few_edges(inst)
    assert opened and all(guess.placement is None for _, guess in seen)
    return seen


def _small_instances():
    rng = random.Random(8080)
    # three identical agents on one edge: a holder must not envy the agent
    # inside, so the holder-versus-inside rows of a hot edge bind
    instances = [
        single_edge({"a": 1, "b": 1, "c": 1}),
        star3_identical(),
        star3_identical("vdgc"),
    ]
    for _ in range(16):
        instances.append(
            random_graph_instance(
                rng, rng.randint(1, 3), rng.randint(2, 3), rng.choice(["gc", "vdgc"])
            )
        )
    return instances


def _implies(system, form) -> bool:
    """Does every point of ``system`` satisfy ``form >= 0``?"""
    if not form.coeffs:
        return form.const >= 0
    low = lp_max(system, -form)
    return isinstance(low, Optimal) and low.value <= 0


def test_inside_length_rows_left_out_are_implied(monkeypatch):
    """Adding back d_e >= 0 and "holder >= u * d_e" on every edge, as
    the LP had them before idle edges lost d_e, changes no verdict; on a
    feasible LP each row added back holds at every point once the
    lengths the LP lacks are set to 0."""
    added_somewhere = False
    for inst, guess in _built_guesses(monkeypatch, _small_instances()):
        system = build_lp(inst, guess)
        full = system.copy()
        present = set(forms_of(full))
        pieces = guessed_pieces(guess.endpoint_agent)
        added = []
        for e in inst.graph.edge_ids:
            d = delta_var(e)
            rows = [LinearForm.var(d)]
            for a in guess.holders:
                own = holdings_value_form(inst, a, pieces[a]).coeffs
                rows.append(LinearForm.make(own + ((d, -inst.util(a, e)),)))
            for form in rows:
                if (form, GE) not in present:
                    full.add(form, GE)
                    added.append(form)
        added_somewhere |= bool(added)
        result = lp_feasible(system)
        assert type(result) is type(lp_feasible(full))
        if isinstance(result, Feasible):
            known = set(system.variables)
            for form in added:
                kept = LinearForm(tuple(t for t in form.coeffs if t[0] in known), form.const)
                assert _implies(system, kept)
    assert added_somewhere


def test_sample_region_matches_written_out_bounds(monkeypatch):
    """Each holder's sample region is the polytope of the written-out
    bounds, and both give the same sign vectors."""
    seen, checked = set(), 0
    for inst, guess in _built_guesses(monkeypatch, _small_instances()):
        key = (id(inst), tuple(sorted(guess.endpoint_agent.items())), tuple(guess.n.items()))
        if key in seen:
            continue
        seen.add(key)
        pieces = guessed_pieces(guess.endpoint_agent)
        holders = guess.holders
        for (forms, region), holder in zip(_holder_blocks(inst, guess), holders):
            reference = holder_region_reference(pieces[holder])
            for form, _ in forms_of(reference):
                assert _implies(region, form)
            for form, _ in forms_of(region):
                assert _implies(reference, form)
            got = [cw.signs for cw in enumerate_sign_conditions(forms, region)]
            want = [cw.signs for cw in enumerate_sign_conditions(forms, reference)]
            assert got == want
            checked += 1
    assert checked


def extract(inst, guess, x0, delta, x1):
    witness = {}
    for e in x0:
        witness[endpoint_var(e, 0)], witness[endpoint_var(e, 1)] = x0[e], x1[e]
        witness[delta_var(e)] = delta[e]
    return extract_assignment(inst, guess, Feasible(*lowest_terms(witness)))


def test_extract_halves_no_leftovers():
    inst = single_edge({"a": 1, "b": 1})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b"}, frozenset(["a", "b"]), {"e1": 0}
    )
    partial, leftovers = extract(
        inst, guess, {"e1": F(1, 2)}, {"e1": F(0)}, {"e1": F(1, 2)}
    )
    assert leftovers == []
    assert partial["a"].edge_pieces[0].hi == F(1, 2)
    assert partial["b"].edge_pieces[0].lo == F(1, 2)


def test_extract_two_inside_slots():
    inst = single_edge({"a": 1, "b": 1, "c": 1, "d": 1})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b"}, frozenset(["a", "b"]), {"e1": 2}
    )
    partial, leftovers = extract(
        inst, guess, {"e1": F(0)}, {"e1": F(1, 2)}, {"e1": F(0)}
    )
    spans = [(p.edge_pieces[0].lo, p.edge_pieces[0].hi) for p in leftovers]
    assert spans == [(F(0), F(1, 2)), (F(1, 2), F(1))]


def test_extract_middle_slot_between_quarters():
    inst = single_edge({"a": 1, "b": 1, "c": 1})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b"}, frozenset(["a", "b"]), {"e1": 1}
    )
    partial, leftovers = extract(
        inst, guess, {"e1": F(1, 4)}, {"e1": F(1, 2)}, {"e1": F(1, 4)}
    )
    assert len(leftovers) == 1
    ep = leftovers[0].edge_pieces[0]
    assert (ep.lo, ep.hi) == (F(1, 4), F(3, 4))


def test_extract_rejects_inconsistent_lengths():
    inst = single_edge({"a": 1, "b": 1})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b"}, frozenset(["a", "b"]), {"e1": 0}
    )
    # the LP's rows rule both out; a direct caller still meets the checks of tile_spans
    with pytest.raises(ValueError, match="sum to 1/2"):
        extract(inst, guess, {"e1": F(1, 4)}, {"e1": F(0)}, {"e1": F(1, 4)})
    with pytest.raises(ValueError, match="invalid interval"):
        extract(inst, guess, {"e1": F(5, 4)}, {"e1": F(0)}, {"e1": F(-1, 4)})


def test_extract_pins_critical_agent_to_leftmost_slot():
    inst = single_edge({"a": 1, "b": 1, "c": 1, "d": 1})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b"},
        frozenset(["a", "b"]),
        {"e1": 2},
        vertex_critical={("e1", "a"): "c", ("e1", "b"): "c"},
        sample_point={
            endpoint_var("e1", 0): F(1, 4),
            endpoint_var("e1", 1): F(1, 4),
        },
    )
    partial, leftovers = extract(
        inst, guess, {"e1": F(1, 4)}, {"e1": F(1, 4)}, {"e1": F(1, 4)}
    )
    assert partial["c"].edge_pieces[0].lo == F(1, 4)
    assert partial["c"].edge_pieces[0].hi == F(1, 2)
    assert len(leftovers) == 1
    assert leftovers[0].edge_pieces[0].lo == F(1, 2)


def test_extract_pins_critical_agents_in_agent_order():
    inst = single_edge({"a": 1, "b": 1, "c": 1, "d": 1})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b"},
        frozenset(["a", "b"]),
        {"e1": 2},
        vertex_critical={("e1", "a"): "d", ("e1", "b"): "c"},  # d is pinned first
    )
    partial, leftovers = extract(
        inst, guess, {"e1": F(1, 4)}, {"e1": F(1, 4)}, {"e1": F(1, 4)}
    )
    spans = {a: [(ep.lo, ep.hi) for ep in partial[a].edge_pieces] for a in "cd"}
    assert spans == {"c": [(F(1, 4), F(1, 2))], "d": [(F(1, 2), F(3, 4))]}
    assert leftovers == []


def test_extract_cold_edge_has_its_end_intervals_alone():
    """An explicit placement whose LP has no d_e on the edge with nobody
    inside: that edge is tiled by its two holders' intervals."""
    inst = path(2, {"a": [1, 0], "b": [1, 1], "c": [0, 1], "d": [1, 0]})
    guess = BranchGuess(
        {("e1", 0): "a", ("e1", 1): "b", ("e2", 0): "b", ("e2", 1): "c"},
        frozenset("abc"),
        {"e1": 1, "e2": 0},
        placement={"d": "e1"},
    )
    result = lp_feasible(build_lp(inst, guess))
    assert isinstance(result, Feasible) and delta_var("e2") not in result.point
    partial, leftovers = extract_assignment(inst, guess, result)
    assert leftovers == [] and set(partial) == set("abcd")
    cold = [(a, ep) for a, piece in partial.items() for ep in piece.edge_pieces if ep.edge == "e2"]
    point = as_fractions(result)
    x0, x1 = point[endpoint_var("e2", 0)], point[endpoint_var("e2", 1)]
    assert [(a, ep.lo, ep.hi) for a, ep in cold] == [("b", 0, x0), ("c", x0, x0 + x1)]
    assert x0 + x1 == 1


def test_extraction_matches_the_reference(monkeypatch):
    """Every extraction of the search, on both routes, gives the pieces
    and leftovers of the length-checking, slot-keyed reference."""
    rng = random.Random(7070)
    corpus = [
        random_graph_instance(rng, rng.randint(1, 3), rng.randint(2, 4), variant)
        for variant in ("gc", "vdgc") * 12
    ]
    calls = {"explicit": 0, "paper": 0}
    original = few_edges.extract_assignment

    def checked(inst, guess, result):
        got = original(inst, guess, result)
        assert got == extract_assignment_reference(inst, guess, as_fractions(result)), (inst, guess)
        calls["paper" if guess.placement is None else "explicit"] += 1
        return got

    monkeypatch.setattr(few_edges, "extract_assignment", checked)
    for inst in corpus:
        solve_few_edges(inst)
    with monkeypatch.context() as patch:
        opened = force_paper_route(patch)
        for inst in corpus:
            solve_few_edges(inst)
    assert opened and all(calls.values()), calls


def test_solve_star_identical_is_no():
    assert not solve_few_edges(star3_identical()).yes
    assert not solve_few_edges(star3_identical("vdgc")).yes


def test_solve_path_complementary_is_yes():
    verdict = solve_few_edges(path(2, {"a1": [1, 0], "a2": [0, 1]}))
    assert verdict.yes
    inst = path(2, {"a1": [1, 0], "a2": [0, 1]})
    assert verify_assignment(inst, verdict.assignment).valid


def test_solve_triangle_two_identical_is_yes():
    inst = cycle(3, {"a": [1, 1, 1], "b": [1, 1, 1]})
    verdict = solve_few_edges(inst)
    assert verdict.yes
    assert verify_assignment(inst, verdict.assignment).valid


def test_witnesses_have_equal_inside_lengths():
    rng = random.Random(21)
    for _ in range(10):
        inst = random_graph_instance(
            rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(["gc", "vdgc"])
        )
        verdict = solve_few_edges(inst)
        if verdict.yes:
            assert singleton_interval_lengths_agree(verdict.assignment)


def test_agreement_with_oracle_small_random():
    rng = random.Random(4040)
    for _ in range(12):
        inst = random_graph_instance(
            rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(["gc", "vdgc"])
        )
        assert solve_few_edges(inst).yes == solve_explicit_oracle(inst).yes


def test_agreement_with_tree_solver_on_paths():
    rng = random.Random(5050)
    for _ in range(6):
        inst = random_path_instance(rng, rng.randint(1, 3), rng.randint(1, 3), "vdgc")
        assert solve_few_edges(inst).yes == solve_tree_vdgc(inst).yes


def test_agreement_with_cycle_solver():
    rng = random.Random(6060)
    for _ in range(6):
        inst = random_cycle_instance(
            rng, rng.randint(3, 4), rng.randint(1, 2), rng.choice(["gc", "vdgc"])
        )
        assert solve_few_edges(inst).yes == solve_cycle(inst).yes


def test_identical_agents_agree_with_oracle(monkeypatch):
    skips = count_branch_skips(monkeypatch)
    for inst, expected in identical_agents_corpus():
        verdict = solve_few_edges(inst)
        assert verdict.yes == expected, (inst.graph.edges, len(inst.agents), inst.variant)
        if verdict.yes:
            assert verify_assignment(inst, verdict.assignment).valid
    assert skips  # some branches were skipped before any LP


def _agree(corpus):
    for inst, expected in corpus:
        verdict = solve_few_edges(inst)
        assert verdict.yes == expected, (inst.graph.edges, inst.variant)
        if verdict.yes:
            assert verify_assignment(inst, verdict.assignment).valid


def test_mixed_classes_agree_with_oracle():
    # a3's raw row is twice a1's, so the built instance makes them
    # identical; a2 sits between them
    _agree(mixed_classes_corpus())


def test_paper_route_agrees_with_oracle_on_mixed_classes(monkeypatch):
    opened = force_paper_route(monkeypatch)
    _agree(mixed_classes_corpus())
    assert opened


def _sample_orders(monkeypatch, corpus) -> tuple[Counter, list[BranchGuess]]:
    """Solve ``corpus`` along the paper's route, as ``_agree`` checks, and
    assert that the one int comparison both vertex-critical guessing and
    build_lp read agrees, at every sample the route evaluates, with the
    sign of the comparison form built as cells.ordering_forms builds its
    forms.  Returns the answers counted and the guesses evaluated."""
    force_paper_route(monkeypatch)
    seen = {}
    vertex_critical = few_edges.enumerate_vertex_critical

    def recording(instance, guess, pair_critical, sample):
        seen[id(instance), repr(guess), repr(sample)] = instance, guess, sample
        return vertex_critical(instance, guess, pair_critical, sample)

    monkeypatch.setattr(few_edges, "enumerate_vertex_critical", recording)
    _agree(corpus)
    answers = Counter()
    for inst, guess, sample in seen.values():
        at_sample = few_edges._sample_values(inst, guess, sample)
        pieces = guessed_pieces(guess.endpoint_agent)
        outsiders = [a for a in inst.agents if a not in guess.holders]
        for holder in guess.holders:
            value = {a: holdings_value_form(inst, a, pieces[holder]) for a in outsiders}
            for e in [e for e in inst.graph.edge_ids if guess.n[e]]:
                for b, alpha in permutations(outsiders, 2):
                    form = value[alpha].scale(inst.util(b, e)) - value[b].scale(inst.util(alpha, e))
                    got = few_edges._envies_no_more(inst.ints, at_sample, b, alpha, e, holder)
                    assert got == (form.evaluate(sample) >= 0), (inst.graph.edges, guess, b, alpha)
                    answers[got] += 1
    return answers, [guess for _, guess, _ in seen.values()]


def test_sample_envy_order_is_the_ordering_form_sign(monkeypatch):
    answers, _ = _sample_orders(monkeypatch, mixed_classes_corpus())
    assert sum(answers.values()) > 50 and answers[True] and answers[False]


def test_paper_route_tells_the_two_ends_of_an_edge_apart(monkeypatch):
    # two holders hold the two ends of an edge with nobody inside, and two
    # outsiders sit inside another edge: each holder's value at the sample
    # must read the length of its own end, not the other holder's
    answers, guesses = _sample_orders(monkeypatch, four_agent_triangles())
    split = [
        g for g in guesses
        if len(g.holders) == 2
        and any(not g.n[e] and g.endpoint_agent[e, 0] != g.endpoint_agent[e, 1] for e in g.n)
    ]
    assert split and sum(answers.values()) > 50 and answers[True] and answers[False]


def _trace_identical_stars() -> list:
    """Trace the search on stars of three identical agents, and on a
    two-edge path where some placement or critical guess would add a
    refuting row, and check that the tracer sees one LP solve per built
    LP, in order.  Returns the guesses the LPs were built for."""
    from perfbench.tracer import BOUNDARIES, Tracer

    # every name the benchmark's tracer wraps must still exist
    for module, attr, _, _ in BOUNDARIES:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    guesses, built, solved = [], [], []

    def record_build(span, args, result):
        guesses.append(args[1])
        built.append(result)

    probes = (
        ("efgc.few_edges", "build_lp", "probe.built", record_build),
        ("efgc.few_edges", "lp_feasible", "probe.solved",
         lambda span, args, result: solved.append(args[0])),
    )
    uneven = star(3, {a: [5, 2, F(3, 4)] for a in ("a1", "a2", "a3")}, "vdgc")
    placed = path(2, {"a1": [2, 0], "a2": [5, 5], "a3": [3, 1]})
    with Tracer(BOUNDARIES + probes) as tracer:
        assert not solve_few_edges(star3_identical()).yes
        assert not solve_few_edges(uneven).yes
        assert solve_few_edges(placed).yes
    lp_spans = [s for s in tracer.spans if s.kind == "linprog.lp_feasible@few_edges"]
    assert 0 < len(lp_spans) == len(solved) == len(built)
    assert [id(system) for system in solved] == [id(system) for system in built]
    return guesses


def test_tracer_sees_one_solve_per_unrefuted_lp(monkeypatch):
    opened = force_paper_route(monkeypatch)
    guesses = _trace_identical_stars()
    assert opened and all(g.placement is None for g in guesses)  # the paper route's LPs


def test_tracer_sees_one_solve_per_unrefuted_explicit_lp():
    guesses = _trace_identical_stars()
    assert all(g.placement is not None for g in guesses)


def test_paper_route_agrees_with_oracle_on_identical_agents(monkeypatch):
    opened, skips = force_paper_route(monkeypatch), count_branch_skips(monkeypatch)
    for inst, expected in identical_agents_corpus():
        verdict = solve_few_edges(inst)
        assert verdict.yes == expected, (inst.graph.edges, len(inst.agents), inst.variant)
        if verdict.yes:
            assert verify_assignment(inst, verdict.assignment).valid
    assert opened and skips


def test_paper_route_agrees_with_oracle_on_random_graphs(monkeypatch):
    opened, skips = force_paper_route(monkeypatch), count_branch_skips(monkeypatch)
    for inst in criterion_4_instances():
        verdict = solve_few_edges(inst)
        assert verdict.yes == solve_explicit_oracle(inst).yes, inst
        if verdict.yes:
            assert verify_assignment(inst, verdict.assignment).valid
    assert opened and skips


def test_route_rule_takes_the_smaller_count():
    # 19!/(9! 10!) = 92,378 placements against 19^(2 + 2) = 130,321 guesses
    assert few_edges._explicit_is_no_larger([9, 0, 10], 1)
    # 20!/(10! 10!) = 184,756 placements against 20^4 = 160,000 guesses
    assert not few_edges._explicit_is_no_larger([10, 0, 10], 1)
    for holders in range(4):
        assert few_edges._explicit_is_no_larger([0, 0], holders)  # no outsider
        for m in range(1, 25):  # one hot edge: one placement
            assert few_edges._explicit_is_no_larger([0, m], holders)


def test_explicit_lp_matches_the_oracle_lp():
    """On every branch that takes the explicit route, the placements are
    the oracle's (each outsider on an edge it values, n[e] on edge e, in
    the same order) less those where an outsider b's edge e has
    u_b(e) < n[e] times what some holder's outright edges (both ends its,
    nobody inside) are worth to b; each dropped placement's oracle LP is
    infeasible, and each kept one's LP has the oracle LP's verdict.  Two
    edges with agents inside need four agents, so on the four-agent
    triangles only those branches are checked."""
    rng = random.Random(9090)
    corpus = [
        (random_graph_instance(rng, rng.randint(2, 3), rng.randint(2, 3), variant), 1)
        for variant in ("gc", "vdgc") * 7
    ]
    triangle = GRAPH_SHAPES[3][2]
    agents = [f"a{i}" for i in range(1, 5)]
    for variant in ("gc", "vdgc") * 2:
        table = random_utilities(rng, agents, ["e1", "e2", "e3"])
        corpus.append((build_instance(*triangle, table, variant), 2))
    verdicts = {Feasible: 0, Infeasible: 0, "dropped": 0}
    for inst, min_hot in corpus:
        edges = inst.graph.edge_ids
        live = [e for e in edges if any(inst.util(a, e) > 0 for a in inst.agents)]
        for base in enumerate_initial_branches(inst):
            if sum(1 for e in edges if base.n[e]) < min_hot:
                continue
            assert few_edges._explicit_is_no_larger(list(base.n.values()), len(base.holders))
            outsiders = [a for a in inst.agents if a not in base.holders]
            options = [[e for e in edges if inst.util(a, e) > 0] for a in outsiders]
            want = [
                dict(zip(outsiders, edge_of))
                for edge_of in product(*options)
                if all(edge_of.count(e) == base.n[e] for e in edges)
            ]
            ep, n = dict(base.endpoint_agent), dict(base.n)
            outright = [
                [e for e in edges if ep[e, 0] == h == ep[e, 1] and not n[e]] for h in base.holders
            ]

            def kept(placement):
                return all(
                    inst.util(b, e) >= n[e] * sum(inst.util(b, f) for f in whole)
                    for b, e in placement.items() for whole in outright
                )

            got = list(few_edges._placements(inst, base))
            assert got == [placement for placement in want if kept(placement)]
            for placement in want:
                ref = lp_feasible(_explicit_lp(inst, ep, placement, n, live))
                if not kept(placement):
                    assert isinstance(ref, Infeasible), (inst, base, placement)
                    verdicts["dropped"] += 1
                    continue
                ours = lp_feasible(build_lp(inst, replace(base, placement=placement)))
                assert type(ours) is type(ref), (inst, base, placement)
                verdicts[type(ours)] += 1
    assert all(verdicts.values()), verdicts


def test_path2_eight_identical_agents_is_yes():
    inst = path(2, {f"a{i}": [1, 1] for i in range(1, 9)})
    verdict = solve_few_edges(inst)
    assert verdict.yes
    assert verify_assignment(inst, verdict.assignment).valid


HARDNESS_FAMILIES = (
    ("matching", gen_matching_plus_two, (4, 5, 6)),
    ("vdgc ladder", lambda values: gen_ladder_tw2(values, "vdgc"), (4, 5, 6)),
    # a 6-value gc ladder (28 edges) that says No walks for seconds
    ("gc ladder", lambda values: gen_ladder_tw2(values, "gc"), (4, 5)),
)


def test_hardness_families_get_the_planted_verdict_in_bounded_time(monkeypatch, capsys):
    # the paper's two-agent number-partitioning reductions at 12-23 edges
    # (28 on vdgc): neither graph is a tree or a cycle, so ``efgc solve
    # --mode auto`` runs the few-edges search; each verdict is the planted
    # one and each Yes witness verifies, within a bound per request that a
    # table of every inside-count vector, (|A| + 1)^|E| of them, misses
    rng = random.Random(3131)
    requests = [
        (name, values, make(values))
        for size in (4, 5, 6)
        for name, make, sizes in HARDNESS_FAMILIES if size in sizes
        for values in ([rng.randint(1, 9) for _ in range(size)] for _ in range(3))
    ]
    answers = Counter()
    for name, values, inst in requests:
        monkeypatch.setattr(sys, "stdin", io.StringIO(emit_instance(inst)))
        start = time.perf_counter()
        code = run(["solve", "--in", "-", "--mode", "auto"])
        elapsed = time.perf_counter() - start
        head, _, witness = capsys.readouterr().out.partition("\n")
        assert elapsed < 5, (name, values, elapsed)
        assert (code, head) == ((0, "Yes") if numpart_family_solvable(values) else (1, "No")), (
            name, values,
        )
        if code == 0:
            assert verify_assignment(inst, parse_assignment(witness)).valid, (name, values)
        answers[name, code] += 1
    assert len(answers) == 2 * len(HARDNESS_FAMILIES), answers
