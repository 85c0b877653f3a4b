import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from efgc.cli import select_solver
from efgc.model import (
    AllZeroAgentError,
    Assignment,
    EdgePiece,
    Graph,
    Instance,
    Piece,
    UnknownEdgeError,
    Variant,
    build_instance,
    is_connected_piece,
    normalize,
    orbit_leaders,
    piece_utility,
    verify_assignment,
)
from helpers import (
    contains,
    fraction_int_utilities,
    fraction_normalize,
    is_connected_piece_reference,
    least_in_orbit,
    path,
    random_cycle_instance,
    random_graph_instance,
    random_path_instance,
    random_tree_instance,
    renamings,
    single_edge,
    singleton_interval_lengths_agree,
    tile_edge,
    star,
    star3_identical,
    verify_assignment_reference,
)

F = Fraction


def test_normalize_scales_by_total():
    inst = star(3, {"a": [1, 2, 3]})
    norm = normalize(inst)
    assert norm.util("a", "e1") == F(1, 6)
    assert norm.util("a", "e2") == F(2, 6)
    assert norm.util("a", "e3") == F(3, 6)


def test_normalize_identity_when_already_normalized():
    inst = path(2, {"a": [F(1, 2), F(1, 2)]})
    assert normalize(inst) is inst
    raw = path(2, {"a": [1, 1], "b": [F(1, 3), F(2, 3)]})
    assert sum(raw.util("a", e) for e in raw.graph.edge_ids) != 1
    norm = normalize(raw)
    sums_to_one = all(sum(norm.util(a, e) for e in norm.graph.edge_ids) == 1 for a in norm.agents)
    assert norm is not raw and sums_to_one and normalize(norm) is norm


def test_normalize_rejects_all_zero_agent():
    inst = path(2, {"a": [0, 0]})
    with pytest.raises(AllZeroAgentError):
        normalize(inst)
    # next to an agent whose values already sum to one
    with pytest.raises(AllZeroAgentError):
        normalize(path(2, {"a": [F(1, 2), F(1, 2)], "b": [0, 0]}))


@pytest.mark.parametrize(
    "rows, classes",
    [
        # a3 values each edge twice as much as a1: one class after normalize
        ({"a1": [1, 2], "a2": [1, 1], "a3": [2, 4]}, [["a1", "a3"], ["a2"]]),
        ({"a1": [1, 1], "a2": [1, 1], "a3": [1, 1]}, [["a1", "a2", "a3"]]),
        ({"a1": [1, 2], "a2": [1, 1], "a3": [2, 1]}, [["a1"], ["a2"], ["a3"]]),
    ],
)
def test_orbit_leaders_one_least_member_per_orbit(rows, classes):
    raw = path(2, rows)
    inst = normalize(raw)
    agents = inst.agents

    def orbit(seq):
        return frozenset(tuple(rename[a] for a in seq) for rename in renamings(classes))

    rank = {a: i for i, a in enumerate(agents)}
    for length in range(5):
        every = list(product(agents, repeat=length))
        got = list(orbit_leaders(inst, length))
        keys = [[rank[a] for a in seq] for seq in got]
        assert keys == sorted(keys) and len(set(got)) == len(got)  # lexicographic
        assert {orbit(seq) for seq in got} == {orbit(seq) for seq in every}
        assert len(got) == len({orbit(seq) for seq in every})  # one per orbit
        assert all(least_in_orbit(classes, agents, seq) for seq in got)
        if len(classes) == len(agents):
            assert got == every
        # identity is read off ints and dens: a raw 2·r row is not r's
        assert list(orbit_leaders(raw, length)) == (every if rows["a3"] != rows["a1"] else got)


def _seeded_rows(rng: random.Random, edges, seen: Counter) -> dict[str, dict[str, Fraction]]:
    """Three agents' rows: p/q values, whole values, rows with zeros,
    copies of an earlier row, and rows that already sum to one."""
    rows: dict[str, dict[str, Fraction]] = {}
    for a in ("a1", "a2", "a3"):
        kind = rng.choice(["p/q", "whole", "zeros", "copy", "sums to one"])
        if kind == "copy" and rows:
            row = dict(rows[rng.choice(sorted(rows))])
        elif kind == "whole":
            row = {e: F(rng.randint(0, 6)) for e in edges}
        elif kind == "zeros":
            row = {e: F(rng.randint(1, 9), rng.randint(1, 9)) * rng.randint(0, 1) for e in edges}
        else:
            row = {e: F(rng.randint(0, 9), rng.randint(1, 12)) for e in edges}
        if not any(row.values()):
            row[rng.choice(edges)] = F(rng.randint(1, 9), rng.randint(1, 9))
        if kind == "sums to one":
            total = sum(row.values())
            row = {e: v / total for e, v in row.items()}
        seen[kind] += 1
        seen["zero value"] += not all(row.values())
        rows[a] = row
    return rows


def test_int_normalize_matches_the_fraction_reference():
    """``build_instance`` and ``normalize`` give each agent the ints and
    denominator, and ``util`` the values, that the ``Fraction`` table of
    the same input gives, normalized by division and put over the lcm."""
    rng = random.Random(1818)
    edges = ["e1", "e2", "e3"]
    seen = Counter()
    for _ in range(400):
        rows = _seeded_rows(rng, edges, seen)
        inst = path(3, {a: [row[e] for e in edges] for a, row in rows.items()})
        table = {(a, e): rows[a][e] for a in rows for e in edges}
        assert (inst.ints, inst.dens) == fraction_int_utilities(table, inst.agents, edges)
        want = fraction_normalize(table, inst.agents, edges)
        norm = normalize(inst)
        assert (norm.ints, norm.dens) == fraction_int_utilities(want, inst.agents, edges)
        assert {key: norm.util(*key) for key in want} == want
        already = all(sum(row.values()) == 1 for row in rows.values())
        assert (norm is inst) == already
        seen["instance sums to one"] += already
    assert min(seen.values()) > 5, seen


_E1, _E2 = ("a", "e1"), ("a", "e2")


@pytest.mark.parametrize(
    "ints, dens, message",
    [
        ({_E1: 1}, {"a": 3}, "missing utility"),
        ({_E1: -1, _E2: 2}, {"a": 3}, "negative utility"),
        ({_E1: 1, _E2: 2}, {"a": 0}, "not positive"),
        ({_E1: 1, _E2: 2}, {"a": -3}, "not positive"),
        ({_E1: 1, _E2: 2}, {}, "not positive"),
        ({_E1: 2, _E2: 4}, {"a": 6}, "lowest terms"),
        ({_E1: 0, _E2: 0}, {"a": 2}, "lowest terms"),
    ],
    ids=["missing", "negative", "zero-den", "negative-den", "no-den", "common-factor", "zeros-over-2"],
)
def test_instance_rejects_a_bad_int_row(ints, dens, message):
    graph = path(2, {"a": [1, 2]}).graph
    assert Instance(graph, ("a",), {_E1: 1, _E2: 2}, {"a": 3}, Variant.GC).util("a", "e2") == F(2, 3)
    with pytest.raises(ValueError, match=message):
        Instance(graph, ("a",), ints, dens, Variant.GC)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(("v1", "v2"), (("e1", "v1", "v1"),))  # loop
    with pytest.raises(ValueError):
        Graph(("v1", "v2"), (("e1", "v1", "v2"), ("e2", "v2", "v1")))  # parallel
    with pytest.raises(ValueError):
        Graph(
            ("v1", "v2", "v3", "v4"),
            (("e1", "v1", "v2"), ("e2", "v3", "v4")),
        )  # disconnected


def test_roots_group_vertices_by_edge_subset():
    graph = path(4, {"a": [1, 1, 1, 1]}).graph  # v1-e1-v2-e2-v3-e3-v4-e4-v5
    root = graph.roots({"e1", "e3", "e4"})
    assert root["v1"] == root["v2"] != root["v3"]
    assert root["v3"] == root["v4"] == root["v5"]
    assert len(set(graph.roots(set()).values())) == 5


def test_coordinates_follow_vertex_order():
    g = Graph(("v1", "v2"), (("e1", "v2", "v1"),))  # endpoints listed reversed
    assert g.coord_vertex("e1", 0) == "v1"
    assert g.coord_vertex("e1", 1) == "v2"
    coord = {g.coord_vertex("e1", i): i for i in (0, 1)}  # each vertex's coordinate
    assert coord["v1"] == 0
    assert coord["v2"] == 1


def test_piece_utility_half_edge():
    inst = normalize(path(2, {"a": [1, 1]}))
    piece = Piece([EdgePiece("e1", 0, 1)])
    assert piece_utility("a", piece, inst) == F(1, 2)


def test_piece_utility_whole_graph_is_one():
    inst = normalize(star(3, {"a": [2, 5, 3]}))
    whole = Piece([EdgePiece(e, 0, 1) for e in inst.graph.edge_ids])
    assert piece_utility("a", whole, inst) == 1


def test_piece_utility_mixed_intervals():
    inst = path(2, {"a": [F(1, 3), F(2, 3)]})
    piece = Piece(
        [EdgePiece("e1", 0, F(1, 2)), EdgePiece("e2", F(1, 2), 1)]
    )
    assert piece_utility("a", piece, inst) == F(1, 6) + F(1, 3)


def test_piece_utility_unknown_edge():
    inst = single_edge({"a": 1})
    with pytest.raises(UnknownEdgeError):
        piece_utility("a", Piece([EdgePiece("nope", 0, 1)]), inst)


@given(
    num=st.integers(1, 30),
    den=st.integers(31, 60),
    unum=st.integers(0, 9),
    uden=st.integers(1, 9),
)
def test_piece_utility_split_invariant(num, den, unum, uden):
    # splitting an interval at an interior point never changes its value
    inst = single_edge({"a": F(unum, uden) + F(1, 99)})
    q = F(num, den)
    whole = Piece([EdgePiece("e1", 0, 1)])
    split = Piece([EdgePiece("e1", 0, q), EdgePiece("e1", q, 1)])
    assert piece_utility("a", whole, inst) == piece_utility("a", split, inst)


def fig_graph() -> Graph:
    return Graph(
        ("v1", "v2", "v3", "v4", "v5", "v6"),
        (
            ("a", "v1", "v2"),
            ("b", "v1", "v3"),
            ("c", "v1", "v4"),
            ("d", "v1", "v5"),
            ("e", "v1", "v6"),
            ("f", "v2", "v3"),
            ("g", "v3", "v4"),
        ),
    )


def test_connected_piece_through_shared_vertices():
    g = fig_graph()
    pink = Piece(
        [
            EdgePiece("a", 0, F(1, 2)),
            EdgePiece("b", 0, 1),
            EdgePiece("c", 0, 1),
            EdgePiece("d", 0, F(5, 6)),
            EdgePiece("g", 0, 1),
        ]
    )
    assert is_connected_piece(pink, g)


def test_disconnected_same_edge_intervals():
    g = fig_graph()
    blue = Piece([EdgePiece("f", 0, F(1, 2)), EdgePiece("f", F(3, 4), 1)])
    assert not is_connected_piece(blue, g)


def test_disconnected_without_shared_coordinate():
    g = fig_graph()
    # both on edges at v1, but neither interval contains v1's coordinate
    green = Piece(
        [EdgePiece("d", F(5, 6), 1), EdgePiece("e", F(1, 2), F(3, 4))]
    )
    assert not is_connected_piece(green, g)


def test_disconnected_non_adjacent_edges():
    inst = path(3, {"a": [1, 1, 1]})
    piece = Piece([EdgePiece("e1", 0, F(1, 3)), EdgePiece("e3", F(2, 3), 1)])
    assert not is_connected_piece(piece, inst.graph)


def test_connected_piece_on_unknown_edge_raises():
    g = single_edge({"a": 1}).graph
    with pytest.raises(UnknownEdgeError):
        is_connected_piece(Piece([EdgePiece("e9", 0, 1)]), g)


def test_abutting_intervals_connect_via_shared_point():
    g = single_edge({"a": 1}).graph
    touching = Piece([EdgePiece("e1", 0, F(1, 2)), EdgePiece("e1", F(1, 2), 1)])
    assert is_connected_piece(touching, g)
    apart = Piece(
        [EdgePiece("e1", 0, F(1, 2)), EdgePiece("e1", F(1, 2), 1, False, True)]
    )
    assert not is_connected_piece(apart, g)


def test_zero_length_piece_claims_vertex_and_connects():
    g = path(2, {"a": [1, 1]}).graph
    # degenerate point on e2 at the shared vertex v2, attached to e1
    bridged = Piece([EdgePiece("e1", 0, 1), EdgePiece("e2", 0, 0)])
    assert is_connected_piece(bridged, g)
    # the same point cannot attach to an interval that stops short of v2
    short = Piece([EdgePiece("e1", 0, F(1, 2)), EdgePiece("e2", 0, 0)])
    assert not is_connected_piece(short, g)


def test_verify_valid_halves():
    inst = normalize(single_edge({"a": 1, "b": 1}))
    asg = Assignment(
        {
            "a": Piece([EdgePiece("e1", 0, F(1, 2))]),
            "b": Piece([EdgePiece("e1", F(1, 2), 1, False, True)]),
        }
    )
    assert verify_assignment(inst, asg).valid


def test_verify_reports_envy_on_star_split():
    inst = normalize(star3_identical())
    asg = Assignment(
        {
            "a1": Piece([EdgePiece("e1", 0, 1), EdgePiece("e2", 0, 1)]),
            "a2": Piece([EdgePiece("e3", 0, 1)]),
        }
    )
    report = verify_assignment(inst, asg)
    assert not report.valid
    assert {f.kind for f in report.failures} == {"envy"}


def test_verify_reports_vertex_conflict_in_vdgc():
    inst = normalize(path(2, {"a1": [1, 0], "a2": [0, 1]}, variant="vdgc"))
    # both agents keep the shared vertex v2 (coordinate 1 of e1, 0 of e2)
    asg = Assignment(
        {
            "a1": Piece([EdgePiece("e1", 0, 1)]),
            "a2": Piece([EdgePiece("e2", 0, 1)]),
        }
    )
    report = verify_assignment(inst, asg)
    assert not report.valid
    assert {f.kind for f in report.failures} == {"vertex-disjointness"}
    # under GC the very same assignment is fine
    gc = normalize(path(2, {"a1": [1, 0], "a2": [0, 1]}))
    assert verify_assignment(gc, asg).valid


def test_verify_reports_gap_and_overlap():
    inst = normalize(single_edge({"a": 1, "b": 1}))
    gap = Assignment(
        {
            "a": Piece([EdgePiece("e1", 0, F(1, 4))]),
            "b": Piece([EdgePiece("e1", F(1, 2), 1)]),
        }
    )
    assert any(f.kind == "tiling" for f in verify_assignment(inst, gap).failures)
    overlap = Assignment(
        {
            "a": Piece([EdgePiece("e1", 0, F(3, 4))]),
            "b": Piece([EdgePiece("e1", F(1, 4), 1)]),
        }
    )
    assert any(f.kind == "tiling" for f in verify_assignment(inst, overlap).failures)


def test_verify_reports_uncovered_point():
    inst = normalize(single_edge({"a": 1, "b": 1}))
    asg = Assignment(
        {
            "a": Piece([EdgePiece("e1", 0, F(1, 2), True, False)]),
            "b": Piece([EdgePiece("e1", F(1, 2), 1, False, True)]),
        }
    )
    report = verify_assignment(inst, asg)
    assert any("1/2" in f.message for f in report.failures if f.kind == "tiling")


def test_verify_reports_disconnected_piece():
    inst = normalize(path(2, {"a1": [1, 1], "a2": [1, 1]}))
    asg = Assignment(
        {
            "a1": Piece(
                [EdgePiece("e1", 0, F(1, 2)), EdgePiece("e2", F(1, 2), 1)]
            ),
            "a2": Piece(
                [
                    EdgePiece("e1", F(1, 2), 1, False, True),
                    EdgePiece("e2", 0, F(1, 2), True, False),
                ]
            ),
        }
    )
    report = verify_assignment(inst, asg)
    assert any(f.kind == "connectivity" for f in report.failures)


def test_verify_reports_piece_on_unknown_edge():
    inst = normalize(single_edge({"a": 1, "b": 1}))
    for stray in (
        [EdgePiece("e9", 0, 1)],
        [EdgePiece("e1", F(1, 2), 1, False, True), EdgePiece("e9", 0, 1)],
    ):
        asg = Assignment({"a": Piece([EdgePiece("e1", 0, F(1, 2))]), "b": Piece(stray)})
        report = verify_assignment(inst, asg)
        assert not report.valid
        assert {f.kind for f in report.failures} == {"tiling"}
        assert any("b" in f.message and "e9" in f.message for f in report.failures)


def test_singleton_interval_lengths():
    equal = Assignment(
        {
            "a": Piece([EdgePiece("e1", 0, F(1, 2))]),
            "b": Piece([EdgePiece("e1", F(1, 2), 1, False, True)]),
        }
    )
    assert singleton_interval_lengths_agree(equal)
    unequal = Assignment(
        {
            "a": Piece([EdgePiece("e1", 0, F(1, 3))]),
            "b": Piece([EdgePiece("e1", F(1, 3), 1, False, True)]),
        }
    )
    assert not singleton_interval_lengths_agree(unequal)


def test_tile_edge_standard_cuts():
    tiled = tile_edge("e1", [("a", F(1, 2)), ("b", F(1, 2))])
    assert tiled == [
        ("a", EdgePiece("e1", 0, F(1, 2), True, True)),
        ("b", EdgePiece("e1", F(1, 2), 1, False, True)),
    ]


def test_tile_edge_merges_same_owner():
    tiled = tile_edge("e1", [("a", F(1, 4)), ("a", F(3, 4))])
    assert tiled == [("a", EdgePiece("e1", 0, 1, True, True))]


def test_tile_edge_degenerate_ends_keep_vertices_exclusive():
    tiled = tile_edge("e1", [("a", F(1)), ("b", F(0))])
    assert tiled == [
        ("a", EdgePiece("e1", 0, 1, True, False)),
        ("b", EdgePiece("e1", 1, 1, True, True)),
    ]
    tiled = tile_edge("e1", [("a", F(0)), ("b", F(1))])
    assert tiled == [
        ("a", EdgePiece("e1", 0, 0, True, True)),
        ("b", EdgePiece("e1", 0, 1, False, True)),
    ]


def test_tile_edge_points_covered_exactly_once():
    tiled = tile_edge(
        "e1", [("a", F(1, 4)), ("b", F(1, 4)), ("c", F(1, 2))]
    )
    pieces = [ep for _, ep in tiled]
    for point in (F(0), F(1, 4), F(1, 3), F(1, 2), F(1)):
        assert sum(1 for ep in pieces if contains(ep, point)) == 1


def test_tile_edge_rejects_bad_total():
    with pytest.raises(ValueError):
        tile_edge("e1", [("a", F(1, 2))])


def test_build_instance_defaults_missing_utilities_to_zero():
    inst = path(2, {"a": [1, 1], "b": [1, 1]})
    inst2 = build_instance(
        ["v1", "v2", "v3"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3")],
        {"a": {"e1": 1, "e2": 1}, "b": {"e1": 1}},
        Variant.GC,
    )
    assert inst2.util("b", "e2") == 0
    assert inst.util("b", "e2") == 1


def _witness_corpus():
    """Seeded paths, stars, cycles and graphs with a cycle, both variants,
    2-4 agents, with the Yes witnesses of the solvers ``auto`` picks."""
    rng = random.Random(1414)
    makers = (random_path_instance, random_tree_instance, random_cycle_instance)
    corpus = []
    for n_agents in (2, 3, 4):
        for variant in ("gc", "vdgc"):
            for make in makers + (random_graph_instance,) * (n_agents < 4):
                for _ in range(4):
                    inst = normalize(make(rng, rng.randint(3, 4 if n_agents < 4 else 3), n_agents, variant))
                    verdict = select_solver(inst, "auto")(inst)
                    if verdict.yes:
                        corpus.append((inst, verdict.assignment))
    return corpus


def _eighths(rng, lo=0, hi=1):
    """A random point strictly between ``lo`` and ``hi``."""
    return lo + (hi - lo) * F(rng.randint(1, 7), 8)


def _mutate(inst, rows, rng):
    """One random mutation of an assignment's rows (agent -> edge pieces),
    or None when the draw does not apply."""
    agents = sorted(rows)
    if len(agents) < 2:
        return None
    a = rng.choice(agents)
    b = rng.choice([x for x in agents if x != a])
    if not rows[a]:
        return None
    j = rng.randrange(len(rows[a]))
    ep, rest = rows[a][j], rows[a][:j] + rows[a][j + 1 :]
    kind = rng.choice(
        ("move", "flip", "drop", "give", "swap", "add", "point", "unknown", "no agent")
    )
    if kind == "move":  # every end at one inner cut point of the edge moves with it
        cuts = sorted({x for eps in rows.values() for q in eps if q.edge == ep.edge for x in (q.lo, q.hi)})
        inner = [i for i in range(1, len(cuts) - 1)]
        if not inner:
            return None
        i = rng.choice(inner)
        old, new = cuts[i], _eighths(rng, cuts[i - 1], cuts[i + 1])

        def moved(q):
            lo, hi = (new if x == old else x for x in (q.lo, q.hi))
            return EdgePiece(q.edge, lo, hi, q.lo_closed, q.hi_closed)

        return {c: [moved(q) if q.edge == ep.edge else q for q in eps] for c, eps in rows.items()}
    if kind == "flip":
        if ep.lo == ep.hi:
            return None
        side = rng.randrange(2)
        flipped = EdgePiece(ep.edge, ep.lo, ep.hi, ep.lo_closed ^ (side == 0), ep.hi_closed ^ (side == 1))
        return {**rows, a: rest + [flipped]}
    if kind == "drop":
        return {**rows, a: rest}
    if kind == "give":
        return {**rows, a: rest, b: rows[b] + [ep]}
    if kind == "swap":
        return {**rows, a: rows[b], b: rows[a]}
    edge = rng.choice(inst.graph.edge_ids)
    if kind == "add":
        lo = rng.choice([F(0), _eighths(rng)])
        hi = rng.choice([F(1), _eighths(rng, lo)])
        added = EdgePiece(edge, lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        return {**rows, a: rows[a] + [added]}
    if kind == "point":
        at = F(rng.randrange(2))
        return {**rows, a: rows[a] + [EdgePiece(edge, at, at)]}
    if kind == "unknown":
        return {**rows, a: rest + [EdgePiece("e99", ep.lo, ep.hi, ep.lo_closed, ep.hi_closed)]}
    return {c: eps for c, eps in rows.items() if c != a}


def _report(check, inst, asg):
    return [(f.kind, f.message) for f in check(inst, asg).failures]


def test_verifier_matches_the_fraction_reference_on_mutated_witnesses():
    # each solver witness, and one or two random mutations of it, many
    # times over; the int verifier must give the reference's report
    rng = random.Random(2024)
    corpus = _witness_corpus()
    kinds, valid, cases = set(), 0, 0
    for inst, witness in corpus:
        original = {a: list(piece.edge_pieces) for a, piece in witness.items()}
        for draw in range(40):
            rows = original
            for _ in range(1 + draw % 2):
                rows = _mutate(inst, rows, rng) or rows
            asg = Assignment({a: Piece(eps) for a, eps in rows.items()})
            expected = _report(verify_assignment_reference, inst, asg)
            assert _report(verify_assignment, inst, asg) == expected, (inst, asg)
            for _, piece in asg.items():
                if all(ep.edge in inst.graph.edge_ids for ep in piece.edge_pieces):
                    assert is_connected_piece(piece, inst.graph) == is_connected_piece_reference(
                        piece, inst.graph
                    )
            kinds.update(kind for kind, _ in expected)
            valid += not expected
            cases += 1
    assert len(corpus) >= 60 and cases == 40 * len(corpus)
    assert kinds == {"tiling", "connectivity", "vertex-disjointness", "envy"}
    assert valid >= len(corpus)
