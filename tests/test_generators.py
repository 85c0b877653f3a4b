import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efgc.component_lp import solve_tree_gc_bounded_degree
from efgc.few_edges import solve_few_edges
from efgc.generators import (
    EmptyInputError,
    ScaleExceededWarning,
    blowup_gc_to_vdgc,
    gen_ladder_tw2,
    gen_matching_plus_two,
    gen_star_from_numpart,
    numpart_dp,
    solve_explicit_oracle,
)
from efgc.model import AllZeroAgentError, Variant, verify_assignment
from helpers import (
    dominant,
    numpart_family_solvable,
    path,
    piece_of,
    single_edge,
    star3_identical,
)

F = Fraction


def test_numpart_examples():
    assert numpart_dp([1, 2, 3])
    assert not numpart_dp([1, 1, 3])
    assert numpart_dp([])
    assert not numpart_dp([5])
    assert numpart_dp([2, 2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=7))
def test_numpart_matches_enumeration(values):
    total = sum(values)
    brute = any(
        2 * sum(sub) == total
        for r in range(len(values) + 1)
        for sub in itertools.combinations(values, r)
    )
    assert numpart_dp(values) == brute


def test_star_generator_structure():
    inst = gen_star_from_numpart([1, 2, 3])
    assert len(inst.graph.vertices) == 4
    assert len(inst.graph.edges) == 3
    assert inst.variant is Variant.GC
    for agent in ("a1", "a2"):
        assert inst.util(agent, "e1") == F(1, 6)
        assert inst.util(agent, "e2") == F(2, 6)
        assert inst.util(agent, "e3") == F(3, 6)
    assert numpart_dp([1, 2, 3])
    assert solve_tree_gc_bounded_degree(inst).yes


@pytest.mark.parametrize(
    "generate, zero_sum_error",
    [(gen_star_from_numpart, AllZeroAgentError), (gen_matching_plus_two, ValueError), (gen_ladder_tw2, ValueError)],
    ids=["star", "matching2", "ladder"],
)
def test_generator_guards(generate, zero_sum_error):
    with pytest.raises(EmptyInputError):
        generate([])
    with pytest.raises(zero_sum_error):
        generate([0])


def test_matching_plus_two_structure():
    inst = gen_matching_plus_two([1, 1])
    assert len(inst.graph.vertices) == 6
    assert len(inst.graph.edges) == 6
    assert inst.variant is Variant.VDGC
    assert numpart_dp([1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScaleExceededWarning)
        assert solve_explicit_oracle(inst).yes
    with pytest.raises(ValueError):
        gen_matching_plus_two([0, 1])


def test_ladder_structure():
    inst = gen_ladder_tw2([1, 1], "vdgc")
    graph = inst.graph
    assert len(graph.vertices) == 8
    assert len(graph.edges) == 8
    assert max(len(graph.incident_edges(v)) for v in graph.vertices) == 3
    assert numpart_dp([1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScaleExceededWarning)
        assert solve_explicit_oracle(inst).yes
    small = gen_ladder_tw2([7])
    assert len(small.graph.vertices) == 4
    assert len(small.graph.edges) == 3


def test_reduction_rule_on_sweep_corpus():
    for n in (1, 2, 3):
        for values in itertools.combinations_with_replacement(range(1, 5), n):
            inst = gen_star_from_numpart(list(values))
            verdict = solve_tree_gc_bounded_degree(inst)
            assert verdict.yes == numpart_family_solvable(values), values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScaleExceededWarning)
        for n in (1, 2):
            for values in itertools.combinations_with_replacement(range(1, 4), n):
                assert (
                    solve_explicit_oracle(gen_matching_plus_two(list(values))).yes
                    == numpart_family_solvable(values)
                ), values
                assert (
                    solve_explicit_oracle(gen_ladder_tw2(list(values), "vdgc")).yes
                    == numpart_family_solvable(values)
                ), values


def test_balanced_multisets_track_the_partition_answer():
    rng = random.Random(1212)
    done = 0
    while done < 8:
        values = [rng.randint(1, 8) for _ in range(rng.randint(2, 4))]
        if dominant(values):
            continue  # outside the faithful regime
        done += 1
        inst = gen_star_from_numpart(values)
        assert solve_tree_gc_bounded_degree(inst).yes == numpart_dp(values), values


def test_blowup_counts():
    single = blowup_gc_to_vdgc(single_edge({"a": 1}))
    assert len(single.graph.vertices) == 2
    assert len(single.graph.edges) == 1
    p = blowup_gc_to_vdgc(path(2, {"a1": [1, 0], "a2": [0, 1]}))
    assert len(p.graph.vertices) == 6
    assert len(p.graph.edges) == 5
    s = blowup_gc_to_vdgc(star3_identical())
    assert len(s.graph.vertices) == 12
    assert len(s.graph.edges) == 15
    assert s.variant is Variant.VDGC
    # original edge utilities survive, clique edges are worthless
    inst = star3_identical()
    blown = blowup_gc_to_vdgc(inst)
    assert blown.util("a1", "e1") == inst.util("a1", "e1")
    clique_edges = [e for e in blown.graph.edge_ids if e.startswith("q_")]
    assert all(blown.util("a1", e) == 0 for e in clique_edges)


def test_oracle_examples():
    assert not solve_explicit_oracle(star3_identical()).yes
    thirds = solve_explicit_oracle(single_edge({"a": 1, "b": 1, "c": 1}))
    assert thirds.yes
    for agent in ("a", "b", "c"):
        (ep,) = piece_of(thirds.assignment, agent).edge_pieces
        assert ep.length == F(1, 3)
    split = solve_explicit_oracle(path(2, {"a1": [1, 0], "a2": [0, 1]}))
    assert split.yes
    assert verify_assignment(
        path(2, {"a1": [1, 0], "a2": [0, 1]}), split.assignment
    ).valid


def test_oracle_warns_beyond_intended_scale():
    inst = gen_ladder_tw2([1, 1], "vdgc")  # 8 edges
    with pytest.warns(ScaleExceededWarning):
        solve_explicit_oracle(inst)
