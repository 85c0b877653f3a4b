from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from efgc.model import (
    AllZeroAgentError,
    Assignment,
    EdgePiece,
    Graph,
    Piece,
    UnknownEdgeError,
    Variant,
    build_instance,
    is_connected_piece,
    normalize,
    piece_utility,
    tile_edge,
    verify_assignment,
)
from helpers import (
    path,
    single_edge,
    singleton_interval_lengths_agree,
    star,
    star3_identical,
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
    assert not raw.is_normalized
    norm = normalize(raw)
    assert norm is not raw and norm.is_normalized and normalize(norm) is norm


def test_normalize_rejects_all_zero_agent():
    inst = path(2, {"a": [0, 0]})
    with pytest.raises(AllZeroAgentError):
        normalize(inst)


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
    assert g.coord_of("e1", "v1") == 0
    assert g.coord_of("e1", "v2") == 1


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
        assert sum(1 for ep in pieces if ep.contains(point)) == 1


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
