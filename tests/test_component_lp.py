import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations

import pytest

import efgc.component_lp
from efgc.cli import emit_assignment
from efgc.component_lp import (
    NotCycleError,
    NotTreeError,
    NotTreeOrCycleError,
    _components,
    _connector_choices,
    _maximal_cuts,
    solve_cycle,
    solve_tree_gc_bounded_degree,
    solve_tree_vdgc,
    solve_with_cut_set,
)
from efgc.generators import solve_explicit_oracle
from efgc.model import (
    Graph,
    UnknownEdgeError,
    Variant,
    Verdict,
    build_instance,
    piece_utility,
    verify_assignment,
)
from helpers import (
    GRAPH_SHAPES,
    Component,
    components_without,
    connector_choices_reference,
    cycle,
    identical_agents_corpus,
    mixed_classes_corpus,
    path,
    piece_of,
    random_cycle_instance,
    random_tree_instance,
    single_edge,
    star,
    star3_identical,
)

F = Fraction


def test_components_of_cut_tree():
    graph = path(3, {"a": [1, 1, 1]}).graph
    comps = components_without(graph, frozenset(["e2"]))
    assert [sorted(c.vertices) for c in comps] == [["v1", "v2"], ["v3", "v4"]]
    assert [c.edges for c in comps] == [("e1",), ("e3",)]
    isolated = components_without(graph, frozenset(["e1", "e2", "e3"]))
    assert all(not c.edges for c in isolated)
    assert len(isolated) == 4


def test_cut_set_on_path_splits_cut_edge():
    inst = path(2, {"a1": [1, 0], "a2": [0, 1]})
    verdict = solve_with_cut_set(inst, ["e2"])
    assert verdict.yes
    assert verify_assignment(inst, verdict.assignment).valid
    # the branch hands the whole first edge to a1
    assert piece_utility("a1", piece_of(verdict.assignment, "a1"), inst) == 1


def test_cut_set_star_small_cuts_say_no():
    inst = star3_identical()
    assert not solve_with_cut_set(inst, []).yes
    for e in ("e1", "e2", "e3"):
        assert not solve_with_cut_set(inst, [e]).yes


def test_cut_set_single_edge_forces_halves():
    verdict = solve_with_cut_set(single_edge({"a": 1, "b": 1}), ["e1"])
    assert verdict.yes
    for agent in ("a", "b"):
        (ep,) = piece_of(verdict.assignment, agent).edge_pieces
        assert ep.length == F(1, 2)


def test_cut_set_rejects_general_graphs():
    shape = (
        ["v1", "v2", "v3", "v4"],
        [
            ("e1", "v1", "v2"),
            ("e2", "v2", "v3"),
            ("e3", "v3", "v1"),
            ("e4", "v3", "v4"),
        ],
    )
    from efgc.model import build_instance

    paw = build_instance(shape[0], shape[1], {"a": {"e1": 1}}, Variant.GC)
    with pytest.raises(NotTreeOrCycleError):
        solve_with_cut_set(paw, [])


def test_tree_vdgc_examples():
    assert solve_tree_vdgc(path(2, {"a1": [1, 0], "a2": [0, 1]}, "vdgc")).yes
    assert not solve_tree_vdgc(star3_identical("vdgc")).yes
    split = star(3, {"a1": [F(1, 2), F(1, 2), 0], "a2": [0, 0, 1]}, "vdgc")
    verdict = solve_tree_vdgc(split)
    assert verdict.yes
    assert verify_assignment(split, verdict.assignment).valid


def test_tree_vdgc_guards():
    with pytest.raises(NotTreeError):
        solve_tree_vdgc(cycle(3, {"a": [1, 1, 1]}, "vdgc"))
    with pytest.raises(ValueError):
        solve_tree_vdgc(path(2, {"a": [1, 1]}, "gc"))


def test_tree_gc_examples():
    assert not solve_tree_gc_bounded_degree(star3_identical()).yes
    verdict = solve_tree_gc_bounded_degree(
        path(2, {"a1": [F(1, 2), F(1, 2)], "a2": [F(1, 2), F(1, 2)]})
    )
    assert verdict.yes
    thirds = solve_tree_gc_bounded_degree(single_edge({"a": 1, "b": 1, "c": 1}))
    assert thirds.yes
    for agent in ("a", "b", "c"):
        (ep,) = piece_of(thirds.assignment, agent).edge_pieces
        assert ep.length == F(1, 3)


def test_tree_gc_guards():
    with pytest.raises(NotTreeError):
        solve_tree_gc_bounded_degree(cycle(3, {"a": [1, 1, 1]}))
    with pytest.raises(ValueError):
        solve_tree_gc_bounded_degree(path(2, {"a": [1, 1]}, "vdgc"))


def test_cycle_examples():
    assert solve_cycle(
        cycle(3, {"a1": [1, 0, 0], "a2": [0, 1, 0], "a3": [0, 0, 1]})
    ).yes
    two = solve_cycle(cycle(3, {"a1": [1, 1, 1], "a2": [1, 1, 1]}))
    assert two.yes
    assert solve_cycle(cycle(3, {"solo": [1, 2, 3]})).yes
    with pytest.raises(NotCycleError):
        solve_cycle(path(2, {"a": [1, 1]}))


def test_every_yes_ships_verified_assignment():
    rng = random.Random(111)
    for _ in range(10):
        inst = random_tree_instance(rng, rng.randint(1, 4), rng.randint(1, 3), "vdgc")
        verdict = solve_tree_vdgc(inst)
        if verdict.yes:
            assert verify_assignment(inst, verdict.assignment).valid


def test_tree_vdgc_agrees_with_oracle():
    rng = random.Random(222)
    for _ in range(15):
        inst = random_tree_instance(rng, rng.randint(1, 4), rng.randint(1, 3), "vdgc")
        assert solve_tree_vdgc(inst).yes == solve_explicit_oracle(inst).yes
    # four agents: some cut sets give a holder a connector through the
    # centre, another agent's vertex, which vdgc must not take
    F = Fraction
    inst = star(
        4,
        {
            "a1": [F(5, 3), 0, F(3, 2), 2],
            "a2": [F(1, 2), 2, 5, 1],
            "a3": [F(3, 2), F(3, 2), 3, F(4, 3)],
            "a4": [0, F(1, 3), 2, F(3, 4)],
        },
        "vdgc",
    )
    verdict = solve_tree_vdgc(inst)
    assert verdict.yes
    assert verify_assignment(inst, verdict.assignment).valid
    assert solve_explicit_oracle(inst).yes


def test_tree_gc_agrees_with_oracle():
    rng = random.Random(555)
    for _ in range(15):
        inst = random_tree_instance(rng, rng.randint(1, 4), rng.randint(1, 3), "gc")
        verdict = solve_tree_gc_bounded_degree(inst)
        assert verdict.yes == solve_explicit_oracle(inst).yes
        if verdict.yes:
            assert verify_assignment(inst, verdict.assignment).valid


def _tree_or_cycle_agree(corpus) -> int:
    """Check every tree and cycle of ``corpus`` with its solver against
    the oracle's verdict; returns how many were checked."""
    checked = 0
    for inst, expected in corpus:
        graph = inst.graph
        if graph.is_tree():
            solver = (
                solve_tree_vdgc if inst.variant is Variant.VDGC else solve_tree_gc_bounded_degree
            )
        elif graph.is_cycle():
            solver = solve_cycle
        else:
            continue
        verdict = solver(inst)
        assert verdict.yes == expected, (solver.__name__, graph.edges, inst.variant)
        if verdict.yes:
            assert verify_assignment(inst, verdict.assignment).valid
        checked += 1
    return checked


def test_identical_agents_agree_with_oracle():
    # identical agents make many cut-set LPs fail on one envy row, which
    # the row test refutes before the simplex
    assert _tree_or_cycle_agree(identical_agents_corpus()) == 72  # every shape but the paw


def test_mixed_classes_agree_with_oracle():
    # a3's raw row is twice a1's, so the built instance makes them
    # identical; a2 sits between them
    assert _tree_or_cycle_agree(mixed_classes_corpus()) == 54  # every shape but the paw


def test_cycle_agrees_with_oracle():
    rng = random.Random(333)
    for _ in range(10):
        inst = random_cycle_instance(
            rng, rng.randint(3, 4), rng.randint(1, 2), rng.choice(["gc", "vdgc"])
        )
        assert solve_cycle(inst).yes == solve_explicit_oracle(inst).yes


def test_uniform_four_leaf_star_separates_the_variants():
    # sharing the hub lets two identical agents take two leaves each;
    # with exclusive vertices the hubless agent is stuck inside one leaf
    def star4(variant):
        from efgc.model import build_instance

        return build_instance(
            ["c", "l1", "l2", "l3", "l4"],
            [(f"e{i}", "c", f"l{i}") for i in (1, 2, 3, 4)],
            {
                "a": {f"e{i}": 1 for i in (1, 2, 3, 4)},
                "b": {f"e{i}": 1 for i in (1, 2, 3, 4)},
            },
            variant,
        )

    assert solve_tree_gc_bounded_degree(star4(Variant.GC)).yes
    assert not solve_tree_vdgc(star4(Variant.VDGC)).yes


def test_shared_no_implies_disjoint_no():
    # vertex-disjoint divisions are a subset of shared-vertex divisions
    rng = random.Random(444)
    for _ in range(10):
        base = random_tree_instance(rng, rng.randint(1, 3), rng.randint(1, 3), "gc")
        paired = replace(base, variant=Variant.VDGC)
        if not solve_explicit_oracle(base).yes:
            assert not solve_explicit_oracle(paired).yes


def test_unknown_cut_edges_are_named():
    inst = path(2, {"a1": [1, 0], "a2": [0, 1]})
    for cut in (["nope"], ["e1", "nope"]):
        with pytest.raises(UnknownEdgeError, match="nope"):
            solve_with_cut_set(inst, cut)


def _tree_or_cycle_shapes():
    for shapes in GRAPH_SHAPES.values():
        for vertices, edges in shapes:
            graph = Graph(tuple(vertices), tuple(edges))
            if graph.is_tree() or graph.is_cycle():
                yield graph


def _solver_for(inst):
    if inst.graph.is_cycle():
        return solve_cycle
    if inst.variant is Variant.VDGC:
        return solve_tree_vdgc
    return solve_tree_gc_bounded_degree


def test_maximal_cut_sets_agree_with_oracle():
    # every tree and cycle shape of at most 4 edges, 2-3 agents, both
    # variants; rows in {0, 1, 2}, identical agents in every other draw
    rng = random.Random(8080)
    counts = {True: 0, False: 0}
    for graph in _tree_or_cycle_shapes():
        for n_agents in (2, 3):
            for variant in (Variant.GC, Variant.VDGC):
                for draw in range(10):
                    rows = []
                    while len(rows) < (1 if draw % 2 else n_agents):
                        row = {e: rng.randint(0, 2) for e in graph.edge_ids}
                        if any(row.values()):
                            rows.append(row)
                    table = {f"a{i}": dict(rows[i % len(rows)]) for i in range(n_agents)}
                    inst = build_instance(graph.vertices, graph.edges, table, variant)
                    verdict = _solver_for(inst)(inst)
                    expected = solve_explicit_oracle(inst).yes
                    assert verdict.yes == expected, (graph.edges, table, variant)
                    if verdict.yes:
                        assert verify_assignment(inst, verdict.assignment).valid
                    counts[expected] += 1
    assert counts[False] >= 10, counts  # seed 8080: 344 Yes, 16 No


def _enumerator_graphs():
    yield from _tree_or_cycle_shapes()
    for n in (5, 6):
        for make in (path, star, cycle):
            yield make(n, {"a": [1] * n}).graph


def _edge_and_vertex_closures(graph):
    edges = [frozenset([e]) for e in graph.edge_ids]
    return edges, [frozenset(graph.incident_edges(v)) for v in graph.vertices]


def _small_cuts(closures, k):
    """The old family: the unions of at most k closures."""
    return {
        frozenset().union(*chosen)
        for size in range(k + 1)
        for chosen in combinations(closures, size)
    }


def _maximal_members(family):
    return {cut for cut in family if not any(cut < other for other in family)}


def test_maximal_cuts_cover_every_smaller_cut():
    for graph in _enumerator_graphs():
        edges, vertices = _edge_and_vertex_closures(graph)
        for closures in (edges, vertices + edges):
            for k in range(5):
                family = _small_cuts(closures, k)
                cuts = _maximal_cuts(closures, k)
                assert len(set(cuts)) == len(cuts)
                assert all(any(cut <= big for big in cuts) for cut in family)
                assert set(cuts) == _maximal_members(family)  # none holds another


def test_maximal_cuts_of_single_edges_are_the_unfiltered_unions_in_order():
    # distinct single-edge closures: every union of min(k, n) is a distinct
    # set of that many edges, so the containment filter removes nothing
    for n in range(1, 10):
        closures = [frozenset([f"e{i}"]) for i in range(n)]
        for k in range(n + 2):
            chosen = combinations(closures, min(k, n))
            unions = list(dict.fromkeys(frozenset().union(*c) for c in chosen))
            filtered = [cut for cut in unions if not any(cut < other for other in unions)]
            assert _maximal_cuts(closures, k) == filtered, (n, k)


def test_wrappers_try_the_maximal_cuts_of_their_family(monkeypatch):
    # edges on cycles (k = |A|) and on vdgc trees (k = |A| - 1); vertices,
    # which cut all their edges, and edges on gc trees (k = |A|)
    tried = []

    def record(instance, cut):
        tried.append(frozenset(cut))
        return Verdict(False, None)

    monkeypatch.setattr(efgc.component_lp, "solve_with_cut_set", record)
    for graph in _enumerator_graphs():
        edges, vertices = _edge_and_vertex_closures(graph)
        for n_agents in (1, 2, 3):
            table = {f"a{i}": {graph.edge_ids[0]: 1} for i in range(n_agents)}
            for variant in (Variant.GC, Variant.VDGC):
                inst = build_instance(graph.vertices, graph.edges, table, variant)
                if graph.is_cycle():
                    closures, k = edges, n_agents
                elif variant is Variant.VDGC:
                    closures, k = edges, n_agents - 1
                else:
                    closures, k = vertices + edges, n_agents
                tried.clear()
                assert not _solver_for(inst)(inst).yes
                assert len(tried) == len(set(tried))
                assert set(tried) == _maximal_members(_small_cuts(closures, k)), (
                    graph.edges,
                    n_agents,
                    variant,
                )


def _connector_graphs():
    for n in range(1, 7):
        yield path(n, {"a": [1] * n}).graph
    for n in range(3, 8):
        yield cycle(n, {"a": [1] * n}).graph
    for n in range(2, 7):
        yield star(n, {"a": [1] * n}).graph
    spider4 = GRAPH_SHAPES[4][2]
    spider5 = (spider4[0] + ["v6"], spider4[1] + [("e5", "v5", "v6")])
    for vertices, edges in (spider4, spider5):
        yield Graph(tuple(vertices), tuple(edges))


def test_connector_choices_match_the_subset_search():
    # every cut (the empty cut on a cycle needs the early return) and
    # every nonempty set of held components, their edges joined in
    # solve_with_cut_set's order
    triples = 0
    for graph in _connector_graphs():
        ids = graph.edge_ids
        for cut in chain.from_iterable(combinations(ids, r) for r in range(len(ids) + 1)):
            cut = frozenset(cut)
            comps = components_without(graph, cut)
            for r in range(1, len(comps) + 1):
                for held in combinations(comps, r):
                    own_edges = [e for comp in held for e in comp.edges]
                    required = frozenset().union(*(comp.vertices for comp in held))
                    expected = connector_choices_reference(graph, cut, own_edges, required)
                    got = _connector_choices(
                        graph.subtree_masks, cut, own_edges, _vertex_mask(graph, required)
                    )
                    assert got == expected, (graph.edges, sorted(cut), sorted(required))
                    triples += 1
    assert triples == 7736


def _vertex_mask(graph, vertices):
    return sum(1 << i for i, v in enumerate(graph.vertices) if v in vertices)


def _random_tree(rng, n_edges):
    """A random tree on shuffled vertex and edge orders: vertex k joins an
    earlier one."""
    names = [f"v{i}" for i in range(n_edges + 1)]
    edges = [(f"e{k}", names[k], names[rng.randrange(k)]) for k in range(1, n_edges + 1)]
    rng.shuffle(names)
    rng.shuffle(edges)
    return Graph(tuple(names), tuple(edges))


def test_connector_choices_match_on_the_workload_sizes():
    # paths, stars, cycles and random trees as large as the benchmark
    # runs, with sampled cuts and held sets
    rng = random.Random(20)
    graphs = [path(n, {"a": [1] * n}).graph for n in (7, 8)]
    graphs += [star(7, {"a": [1] * 7}).graph]
    graphs += [cycle(n, {"a": [1] * n}).graph for n in (8, 9)]
    graphs += [_random_tree(rng, rng.randint(8, 10)) for _ in range(12)]
    triples = 0
    for graph in graphs:
        ids = graph.edge_ids
        for _ in range(40):
            cut = frozenset(e for e in ids if rng.random() < 0.5)
            comps = components_without(graph, cut)
            for _ in range(6):
                held = [comp for comp in comps if rng.random() < 0.5] or comps[:1]
                own_edges = [e for comp in held for e in comp.edges]
                required = frozenset().union(*(comp.vertices for comp in held))
                expected = connector_choices_reference(graph, cut, own_edges, required)
                got = _connector_choices(
                    graph.subtree_masks, cut, own_edges, _vertex_mask(graph, required)
                )
                assert got == expected, (graph.edges, sorted(cut), sorted(required))
                triples += 1
    assert triples == 17 * 40 * 6


def test_gc_tree_cuts_from_vertex_closures_alone_keep_list_and_order():
    # each edge closure in a choice can give way to an unchosen end's
    # closure, which holds it and comes earlier in combinations order
    rng = random.Random(2222)
    graphs = list(_enumerator_graphs())
    graphs += [_random_tree(rng, rng.randint(1, 8)) for _ in range(200)]
    for graph in graphs:
        edges, vertices = _edge_and_vertex_closures(graph)
        for k in range(6):
            assert _maximal_cuts(vertices, k) == _maximal_cuts(vertices + edges, k), (
                graph.edges,
                k,
            )


def _components_by_mask(graph, cut):
    """``_components`` as reference ``Component``s, with each cut edge's
    end components."""
    masks, edges, end_comps = _components(graph, cut)
    vertex_sets = [
        frozenset(v for i, v in enumerate(graph.vertices) if mask >> i & 1) for mask in masks
    ]
    return [Component(vs, tuple(es)) for vs, es in zip(vertex_sets, edges)], end_comps


def _assert_components_match(graph, cut):
    got, end_comps = _components_by_mask(graph, cut)
    expected = components_without(graph, cut)
    assert got == expected, (graph.edges, sorted(cut))
    for e, ends in end_comps.items():
        for end, k in zip((0, 1), ends):
            assert graph.coord_vertex(e, end) in expected[k].vertices


def test_components_read_off_masks_match_the_union_find():
    # vertex sets, edges and order, on every cut of the connector graphs
    # (the empty cut on a cycle included) and on sampled cuts of random
    # trees as large as the benchmark runs
    cuts = 0
    for graph in _connector_graphs():
        ids = graph.edge_ids
        for cut in chain.from_iterable(combinations(ids, r) for r in range(len(ids) + 1)):
            _assert_components_match(graph, frozenset(cut))
            cuts += 1
    rng = random.Random(21)
    for _ in range(12):
        graph = _random_tree(rng, rng.randint(8, 10))
        for _ in range(40):
            cut = frozenset(e for e in graph.edge_ids if rng.random() < 0.5)
            _assert_components_match(graph, cut)
            cuts += 1
    assert cuts == 546 + 12 * 40


def _family_cuts(inst):
    """The cut sets the instance's tree or cycle wrapper tries."""
    graph, k = inst.graph, len(inst.agents)
    edges, vertices = _edge_and_vertex_closures(graph)
    if graph.is_cycle():
        return _maximal_cuts(edges, k)
    if inst.variant is Variant.VDGC:
        return _maximal_cuts(edges, k - 1)
    return _maximal_cuts(vertices, k)


def _outcome(verdict):
    return verdict.yes, emit_assignment(verdict.assignment) if verdict.yes else None


def test_per_instance_tables_leak_nothing_between_cut_sets():
    # what is cached on an instance and its graph serves every cut set
    # alike: a cut solved on a shared instance after all the others gives
    # what it gives on a fresh instance, and a second pass repeats the first
    rng = random.Random(2323)
    seen = Counter()
    for graph in _tree_or_cycle_shapes():
        for n_agents in (2, 3):
            for variant in (Variant.GC, Variant.VDGC):
                for draw in range(2):
                    rows = []
                    while len(rows) < (1 if draw else n_agents):  # draw 1: identical agents
                        row = {e: rng.randint(0, 2) for e in graph.edge_ids}
                        if any(row.values()):
                            rows.append(row)
                    table = {f"a{i}": dict(rows[i % len(rows)]) for i in range(n_agents)}

                    def fresh():
                        vertices, edges = list(graph.vertices), list(graph.edges)
                        return build_instance(vertices, edges, table, variant)

                    shared = fresh()
                    cuts = _family_cuts(shared)
                    first = [_outcome(solve_with_cut_set(shared, cut)) for cut in cuts]
                    again = [_outcome(solve_with_cut_set(shared, cut)) for cut in cuts]
                    assert again == first, (graph.edges, table, variant)
                    for cut, outcome in zip(cuts, first):
                        assert _outcome(solve_with_cut_set(fresh(), cut)) == outcome
                        seen[outcome[0]] += 1
    assert min(seen.values()) > 20, seen
